"""The Δ-algebra unity from the two-sided system in every symbol, for
checking only.

`dalg.unity_find` solves for the unity inside the invariant center, with
one unknown per basis vector of it; this is the C(2n,n)-unknown system it
is checked against: e·g = g = g·e for every symbol g.
"""

from __future__ import annotations

from snalg.dalg import DElement, _multiplication_columns, d_dim, d_mul
from snalg.exactla import QQ, SpanBasis, _clear_denominators


def unity_equations(n: int):
    """The equations e·Δᵢ = Δᵢ and Δᵢ·e = Δᵢ, one per symbol i and
    target t, as ({s: c}, δ_{it}) meaning Σ_s c·e_s = δ_{it}: c is
    c(s,i,t) for the first and c(i,s,t) for the second.  Targets that share
    a block share their rows, so each distinct equation of one symbol
    is yielded once."""
    for i in range(d_dim(n)):
        seen = set()
        for cols in _multiplication_columns(n, i):
            for t in set(cols) | {i}:
                row = cols.get(t, {})
                key = (frozenset(row.items()), t == i)
                if key not in seen:
                    seen.add(key)
                    yield row, int(t == i)


def two_sided_unity(n: int, field=QQ):
    """The two-sided unity, or None, by incremental elimination of
    `unity_equations` in C(2n,n) + 1 columns.  The solutions are exactly
    the unities, a unity is unique, so a consistent system has full rank;
    the candidate is checked against every symbol by multiplying."""
    dim = d_dim(n)
    aug = SpanBasis(field, dim + 1)
    for cols, rhs in unity_equations(n):
        aug.insert({**cols, dim: rhs})
        if dim in aug.pivots:
            return None
        if aug.rank() == dim:
            break
    else:
        raise ArithmeticError("unity system is underdetermined")
    nums, den = _clear_denominators([row[dim] for row in aug.rows])
    e = DElement._canonical(n, field, zip(aug.pivots, nums), den)
    for i in range(dim):
        g = DElement._raw(n, field, {i: 1})
        if not d_mul(e, g) == g == d_mul(g, e):
            return None
    return e
