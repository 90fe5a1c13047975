"""`twin_check`, `mixed_quotient_check` and `cross_char_intersection` by
elimination, for checking only.

`snalg.ideals` reads these ranks off the triangular leaders: the rank of a
sum of spans is the rank of one family plus the rank of the residues of
the other modulo it.  Here every span is the reduced `SpanBasis` of its
basis, extended row by row, and each report is built as in `snalg.ideals`.
"""

from __future__ import annotations

from math import factorial

from snalg.exactla import QQ, SpanBasis
from snalg.ideals import VERIFY_CAP, build_I_basis, build_J_basis, sign_twisted
from snalg.perm import _avoider_ranks, _check_n_range, enumerate_av
from snalg.report import Report


def sum_rank(s: SpanBasis, t: SpanBasis) -> int:
    """rank(s + t): a copy of s with the rows of t inserted."""
    total = s.copy()
    for row in t.rows:
        total.insert(row)
    return total.rank()


def twin_check(n: int, k: int, field=QQ, cap: int = VERIFY_CAP) -> Report:
    _check_n_range(n, cap)
    rep = Report("twin_check", n=n, k=k, field=field.name)
    n_fact = factorial(n)
    num_av = len(enumerate_av(n, k + 1))
    primes = _avoider_ranks(n, k + 1, True)
    rep.data["count_Av"] = num_av
    rep.data["count_Av_prime"] = len(primes)
    rep.add("counts_equal", num_av == len(primes))
    total = build_I_basis(n, k, field, cap).span()
    for r in range(n_fact):
        if r not in primes:
            total.insert({r: 1})
    rep.add("twin_quotient_basis", total.rank() == n_fact, note=f"rank {total.rank()}")
    return rep


def mixed_quotient_check(n: int, k: int, l: int, field=QQ, cap: int = VERIFY_CAP) -> Report:
    _check_n_range(n, cap)
    rep = Report("mixed_quotient_check", n=n, k=k, l=l, field=field.name)
    n_fact = factorial(n)
    s = build_I_basis(n, k, field, cap).span()
    for e in sign_twisted(build_J_basis(n, l, field, cap)).elements:
        s.insert(e._terms)
    index_set = sorted(_avoider_ranks(n, l + 1, True) - _avoider_ranks(n, k + 1, False))
    rep.data["rank_sum"] = s.rank()
    rep.data["quotient_size"] = len(index_set)
    rep.add(
        "corank_matches",
        s.rank() == n_fact - len(index_set),
        note=f"rank {s.rank()}, expect {n_fact - len(index_set)}",
    )
    total = s.copy()
    for r in index_set:
        total.insert({r: 1})
    rep.add("residues_complete", total.rank() == n_fact, note=f"rank {total.rank()}")
    return rep


def cross_char_intersection(n: int, field=QQ, cap: int = VERIFY_CAP) -> int:
    _check_n_range(n, cap)
    ibasis = build_I_basis(n, 2, field, cap)
    ispan = ibasis.span()
    tspan = sign_twisted(ibasis).span()
    return ispan.rank() + tspan.rank() - sum_rank(ispan, tspan)
