"""Per-layer tracing from outside the program.

`Tracer.install()` replaces every public module-level function of the
snalg modules (the names in each module's `__all__`) with a timing
wrapper, in every snalg module that binds it, so aliases such as
`dalg.algebra_mul` (which is `groupalg.mul`) are traced too.  It also wraps
the public methods of `SpanBasis` and `DenseMatrix`.  Each call becomes a
span (name, start, end, parent) kept in flat in-memory arrays; `summary()`
turns the spans into per-layer metrics after the run, and `dump()` writes
them out.

A span's self time is its duration minus the durations of its child spans.
Time outside every span is `trace.unattributed_s`.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
from array import array
from time import perf_counter

LAYERS = ("perm", "exactla", "groupalg", "rook", "setdecomp", "ideals", "reps", "dalg", "cli")

# Functions reported under a name of their own.  Several functions may share
# a name; a call nested directly inside a call of the same name (such as
# `exactla.span_insert` calling `SpanBasis.insert`) is counted once.
NAMED = {
    "exactla.span_insert": ["exactla.span_insert", "exactla.SpanBasis.insert"],
    "exactla.span_contains": ["exactla.span_contains", "exactla.SpanBasis.contains"],
    "exactla.rank": ["exactla.rank", "exactla.DenseMatrix.rank", "exactla.DenseMatrix.rank_bareiss"],
    "exactla.nullspace": ["exactla.nullspace", "exactla.DenseMatrix.nullspace"],
    "exactla.min_dependency": ["exactla.min_dependency"],
    "groupalg.mul": ["groupalg.mul"],
    "groupalg.element_min_poly": ["groupalg.element_min_poly"],
    "rook.nabla": ["rook.nabla"],
    "rook.nabla_tilde": ["rook.nabla_tilde"],
    "rook.product_rule": ["rook.product_rule_a", "rook.product_rule_b", "rook.product_rule_c"],
    "setdecomp.row_sum": ["setdecomp.row_sum"],
    "setdecomp.antisymmetrizer": ["setdecomp.antisymmetrizer"],
    "perm.enumerate_av": ["perm.enumerate_av"],
    "ideals.build_basis": ["ideals.build_I_basis", "ideals.build_J_basis"],
    "ideals.suite": [
        "ideals.verify_row_main",
        "ideals.twin_check",
        "ideals.mixed_quotient_check",
        "ideals.cross_char_intersection",
    ],
    "reps.apply_element": ["reps.apply_element"],
    "reps.annihilator": ["reps.annihilator_check_V", "reps.annihilator_check_N"],
    "dalg.d_mul": ["dalg.d_mul"],
    "dalg.center_dim": ["dalg.center_dim"],
    "dalg.radical_dim": ["dalg.radical_dim"],
    "dalg.unity_find": ["dalg.unity_find"],
    "dalg.associativity_check": ["dalg.associativity_check"],
    "dalg.to_group_algebra": ["dalg.to_group_algebra"],
    "cli.main": ["cli.main"],
}

# Which of calls / self_s / an extra work counter each named span reports.
FIELDS = {
    "exactla.span_insert": ("calls", "self_s", "growth_ratio"),
    "exactla.rank": ("calls", "self_s", "cells"),
    "exactla.nullspace": ("calls", "self_s", "cells"),
    "exactla.min_dependency": ("calls", "self_s", "vectors"),
    "groupalg.mul": ("calls", "self_s", "term_pairs"),
    "ideals.suite": ("self_s",),
    "reps.annihilator": ("self_s",),
    "dalg.d_mul": ("calls", "self_s", "term_pairs"),
    "dalg.center_dim": ("self_s",),
    "dalg.radical_dim": ("self_s",),
    "dalg.unity_find": ("self_s",),
    "dalg.associativity_check": ("self_s",),
    "dalg.to_group_algebra": ("self_s",),
}


def _cells(m, *_, **__):
    return m.nrows * m.ncols


def _term_pairs(a, b, *_, **__):
    return len(a) * len(b)


def _d_term_pairs(x, y, *_, **__):
    return len(x.support()) * len(y.support())


# Work counted per call, from the call's arguments.
WORK = {
    "exactla.rank": _cells,
    "exactla.nullspace": _cells,
    "exactla.min_dependency": lambda vectors, *_, **__: len(vectors),
    "groupalg.mul": _term_pairs,
    "dalg.d_mul": _d_term_pairs,
}

WRAPPED_CLASSES = ("SpanBasis", "DenseMatrix")


def unit(name: str) -> str:
    """Unit of a per-layer metric: seconds, a ratio, or a count."""
    if name.endswith("_s"):
        return "s"
    return "1" if name.endswith("_ratio") else "count"


def metric_names() -> list[str]:
    """Every per-layer metric, in report order."""
    names = []
    for layer in LAYERS:
        names += [f"{layer}.calls", f"{layer}.self_s"]
    for key in NAMED:
        names += [f"{key}.{field}" for field in FIELDS.get(key, ("calls", "self_s"))]
    return names + ["trace.wall_s", "trace.unattributed_s", "trace.overhead_s"]


class Tracer:
    """Span recorder; one per traced process."""

    def __init__(self):
        self.keys: list[str] = []  # span key id -> "<layer>.<function>"
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.grew = array("b")  # span_insert only: did the rank grow
        self.work = array("q")
        self._stack = [-1]
        self._key_id: dict[str, int] = {}

    def _key(self, qualname: str) -> int:
        key = next((k for k, fns in NAMED.items() if qualname in fns), qualname)
        if key not in self._key_id:
            self._key_id[key] = len(self.keys)
            self.keys.append(key)
        return self._key_id[key]

    def _wrap(self, fn, qualname: str):
        key_id = self._key(qualname)
        key = self.keys[key_id]
        work = WORK.get(key)
        grows = key == "exactla.span_insert"
        stack, name, parent = self._stack, self.name, self.parent
        start, end, grew, counts = self.start, self.end, self.grew, self.work

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            top = stack[-1]
            if top >= 0 and name[top] == key_id:
                return fn(*args, **kwargs)
            i = len(name)
            name.append(key_id)
            parent.append(top)
            grew.append(0)
            counts.append(work(*args, **kwargs) if work else 0)
            end.append(0.0)
            stack.append(i)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = perf_counter()
                stack.pop()
            if grows and result:
                grew[i] = 1
            return result

        return traced

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"snalg.{layer}") for layer in LAYERS}
        for layer, mod in modules.items():
            public = getattr(mod, "__all__", [])
            for attr in public:
                obj = getattr(mod, attr)
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    wrapper = self._wrap(obj, f"{layer}.{attr}")
                    for other in modules.values():
                        for bound, value in list(vars(other).items()):
                            if value is obj:
                                setattr(other, bound, wrapper)
        exactla = modules["exactla"]
        for cls_name in WRAPPED_CLASSES:
            cls = getattr(exactla, cls_name)
            for attr, value in list(vars(cls).items()):
                if not attr.startswith("_") and inspect.isfunction(value):
                    setattr(cls, attr, self._wrap(value, f"exactla.{cls_name}.{attr}"))

    def summary(self, wall: float) -> dict[str, float]:
        """Per-layer metrics from the recorded spans; `wall` is the traced
        wall time of the job list.  `trace.overhead_s` needs an untraced run
        and is left to the caller."""
        count = len(self.name)
        child = [0.0] * count
        for i in range(count):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        per_key: dict[int, list] = {}
        covered = 0.0
        for i in range(count):
            self_time = self.end[i] - self.start[i] - child[i]
            covered += self_time
            agg = per_key.setdefault(self.name[i], [0, 0.0, 0, 0])
            agg[0] += 1
            agg[1] += self_time
            agg[2] += self.work[i]
            agg[3] += self.grew[i]
        out = {name: 0 for name in metric_names()}
        for key_id, (calls, self_time, work, grew) in per_key.items():
            key = self.keys[key_id]
            layer = key.split(".", 1)[0]
            out[f"{layer}.calls"] += calls
            out[f"{layer}.self_s"] += self_time
            if key in NAMED:
                fields = FIELDS.get(key, ("calls", "self_s"))
                if "calls" in fields:
                    out[f"{key}.calls"] = calls
                out[f"{key}.self_s"] = self_time
                if "growth_ratio" in fields:
                    out[f"{key}.growth_ratio"] = grew / calls
                for extra in ("cells", "vectors", "term_pairs"):
                    if extra in fields:
                        out[f"{key}.{extra}"] = work
        out["trace.wall_s"] = wall
        out["trace.unattributed_s"] = wall - covered
        return out

    def dump(self, path: str) -> None:
        """Write the spans as gzipped JSON lines: name, start, end, parent."""
        with gzip.open(path, "wt") as fh:
            for i in range(len(self.name)):
                row = [self.keys[self.name[i]], self.start[i], self.end[i], self.parent[i]]
                fh.write(json.dumps(row) + "\n")
