"""Every module of the package uses each name it imports, every private
function is read, and every public name is read outside the tests."""

import ast
import re
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "snalg"


def unused_imports(source: str) -> list[str]:
    """The names `source` imports (outside `from __future__`) and never
    reads: not as a name, not in a quoted annotation, not in `__all__`."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, (ast.arg, ast.AnnAssign)):
            annotations.append(node.annotation)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {e.value for e in node.value.elts}
    for ann in filter(None, annotations):
        for node in ast.walk(ann):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                quoted = ast.parse(node.value, mode="eval")
                used |= {n.id for n in ast.walk(quoted) if isinstance(n, ast.Name)}
    return [name for name in imported if name not in used]


def test_no_module_imports_a_name_it_never_uses():
    sample = (
        "from __future__ import annotations\n"
        "import json, os.path\n"
        "from math import comb, factorial as fact\n"
        "from typing import Optional\n"
        "__all__ = ['comb']\n"
        "def f(x: 'Optional[int]') -> int:\n"
        "    return os.path.sep\n"
    )
    assert unused_imports(sample) == ["json", "fact"]
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) >= 10
    for path in modules:
        assert unused_imports(path.read_text()) == [], path.name


def unread_private_functions(sources: list[str]) -> list[str]:
    """The module-level functions named with a leading underscore in
    `sources` that no other top-level statement of `sources` reads, as a
    name, an attribute or an imported name.  A function that only reads
    itself counts as unread."""
    statements = [stmt for source in sources for stmt in ast.parse(source).body]
    reads = []
    for stmt in statements:
        names = set()
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                names.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                names |= {a.name for a in node.names}
        reads.append(names)
    return [
        stmt.name
        for i, stmt in enumerate(statements)
        if isinstance(stmt, ast.FunctionDef)
        and stmt.name.startswith("_")
        and not any(stmt.name in names for j, names in enumerate(reads) if j != i)
    ]


def test_every_private_function_is_read():
    sample = [
        "def _used(): pass\n"
        "def _recursive(): return _recursive()\n"
        "def _by_attribute(): pass\n"
        "def public(): return _used()\n",
        "import m\nfrom m import _imported\nm._by_attribute\n_stored = 1\n",
        "def _imported(): pass\ndef _stored(): pass\n",
    ]
    assert unread_private_functions(sample) == ["_recursive", "_stored"]
    sources = [path.read_text() for path in sorted(SRC.glob("*.py"))]
    assert unread_private_functions(sources) == []


ROOT = SRC.parent.parent

# Public names that nothing outside tests/ reads, each kept for a reason.
KEEP = {
    "dalg.reference_unity": "the stored unity formulas that the tests compare unity_find against",
    "groupalg._Element.coeff": "the coefficient of a permutation, which the tests read",
    "perm.avoids_incr": "the paper's Av_n(m), one permutation at a time; the counts read the length table",
    "perm.avoids_decr": "the paper's Av'_n(m), one permutation at a time; the counts read the length table",
    "ideals.orthogonal_complement_check": "paper result: span I_k is the orthogonal complement of J_k",
    "ideals.tuple_sum_span_check": "paper result: the tuple sums span the sign-twisted J_k",
    "reps.syt_count": "the independent hook-length reference for f_lambda",
    "reps.specht_annihilation_check": "paper result: which Specht modules I_k and J_k kill",
    "rook.all_subsets": "read by acceptance criterion 5",
    "rook.omega": "the paper's ω, the scalar of the product rule",
    "rook.delta_tilde": "the paper's δ̃, the roots of the mirrored annihilation identity",
    "rook.triangular_annihilation": "the paper's annihilation identity; acceptance criterion 5",
}


def _reads(tree: ast.AST) -> tuple[set[str], set[str]]:
    """(names, attributes) that a tree reads.  Names: read as a name, or
    imported and bound under another name.  Attributes: read as an
    attribute, or a part of a dotted string constant such as "rook.nabla",
    the way the benchmark's tracer names what it wraps."""
    names, attributes = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            attributes.add(node.attr)
        elif isinstance(node, ast.ImportFrom):  # `from m import f as g` reads f
            names |= {a.name for a in node.names if a.asname}
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            parts = node.value.split(".")
            if len(parts) > 1 and all(part.isidentifier() for part in parts):
                attributes |= set(parts)
    return names, attributes


def unread_public_names(modules: dict[str, str], readers: list[str], words: set[str]) -> list[str]:
    """The public module-level functions and classes of `modules` (name ->
    source), and the public methods of their classes, that nothing reads:
    no statement of `modules` but the definition itself (a class counts
    each method as a statement), no source in `readers`, no word in
    `words`.  A method counts as read only as an attribute, so that a
    variable of the same name does not hide it.  Dunder methods are left
    out; each name comes back as module.name or module.Class.name."""
    units = []  # (qualified public name or None, is a method, what it reads)
    for module, source in modules.items():
        for stmt in ast.parse(source).body:
            name = getattr(stmt, "name", "_")
            public = not name.startswith("_")
            if isinstance(stmt, ast.ClassDef):
                header = ast.Tuple(elts=[*stmt.bases, *stmt.decorator_list], ctx=ast.Load())
                units.append((public and f"{module}.{name}", False, _reads(header)))
                for item in stmt.body:
                    method = getattr(item, "name", "_")
                    qual = not method.startswith("_") and f"{module}.{name}.{method}"
                    units.append((qual, True, _reads(item)))
            else:
                qual = public and isinstance(stmt, ast.FunctionDef) and f"{module}.{name}"
                units.append((qual, False, _reads(stmt)))
    everything = units + [(None, False, _reads(ast.parse(s))) for s in readers]
    everything.append((None, False, (words, words)))
    unread = []
    for i, (qual, method, _) in enumerate(units):
        if not qual:
            continue
        name = qual.rsplit(".", 1)[1]
        if not any(
            name in attributes or (not method and name in names)
            for j, (_, _, (names, attributes)) in enumerate(everything)
            if j != i
        ):
            unread.append(qual)
    return unread


def test_every_public_name_is_read_outside_the_tests():
    sample = {
        "m": "class C:\n"
        "    def read(self): pass\n"
        "    def recursive(self): return self.recursive()\n"
        "    def shadowed(self): pass\n"
        "    def _private(self): pass\n"
        "    def __len__(self): return 0\n"
        "class Unused: pass\n"
        "class _Base:\n"
        "    def inherited(self): pass\n"
        "def f(shadowed): return C().read(), shadowed\n"
        "def g(): pass\n"
        "def h(): pass\n"
        "def documented(): pass\n"
    }
    readers = ["import m\nm.f()\nNAMED = ['m.g', 'h', 'not a path']\n"]
    assert unread_public_names(sample, readers, {"documented"}) == [
        "m.C.recursive", "m.C.shadowed", "m.Unused", "m._Base.inherited", "m.h",
    ]
    readme = (ROOT / "README.md").read_text()
    readers = re.findall(r"^```python\n(.*?)^```", readme, re.M | re.S)
    for folder in ("demos", "perfbench"):
        readers += [path.read_text() for path in sorted((ROOT / folder).glob("*.py"))]
    words = set(re.findall(r"\w+", " ".join(re.findall(r"`([^`\n]+)`", readme))))
    modules = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert sorted(unread_public_names(modules, readers, words)) == sorted(KEEP)
