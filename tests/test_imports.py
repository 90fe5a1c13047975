"""Every module of the package uses each name it imports."""

import ast
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
