"""Permutations of [n] = {1, ..., n} in one-line notation.

Provides the group operations (compose, inverse, sign), the lexicographic
order on one-line notations, longest monotone subsequence lengths, the
enumerations Av_n(m) / Av'_n(m) of permutations avoiding an increasing
(resp. decreasing) run of length m, read off one cached table of both
lengths per n, and the block decomposition that sorts positions by the
length of the longest increasing subsequence ending there.

Positions and values are 1-indexed in all inputs and outputs (matching the
usual one-line notation); storage is 0-indexed.

>>> w = Permutation([2, 4, 1, 3])
>>> w(1), w(2)
(2, 4)
>>> inverse(w).to_string()
'3142'
>>> lis_length(w)
2
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import permutations as _itpermutations
from math import factorial
from typing import Iterable, Iterator

__all__ = [
    "Permutation",
    "compose",
    "inverse",
    "sign",
    "all_permutations",
    "lis_length",
    "lds_length",
    "avoids_incr",
    "avoids_decr",
    "enumerate_av",
    "enumerate_av_prime",
    "erdos_szekeres_decomposition",
    "ENUMERATION_CAP",
]

ENUMERATION_CAP = 8

_monotone_tables: dict[int, tuple[bytes, bytes]] = {}


class Permutation:
    """A bijection of {1, ..., n}, stored as a 0-indexed image tuple."""

    __slots__ = ("_img",)

    def __init__(self, images: Iterable[int]):
        img = tuple(int(v) - 1 for v in images)
        n = len(img)
        if sorted(img) != list(range(n)):
            raise ValueError(f"not a bijection of [{n}]: {[v + 1 for v in img]}")
        self._img = img

    @classmethod
    def _from_zero(cls, img: tuple[int, ...]) -> "Permutation":
        p = object.__new__(cls)
        p._img = img
        return p

    @classmethod
    def unrank(cls, n: int, r: int) -> "Permutation":
        """The r-th permutation of [n] in lexicographic order (r from 0)."""
        if not 0 <= r < factorial(n):
            raise ValueError(f"rank {r} out of range for n={n}")
        pool = list(range(n))
        img = []
        for i in range(n, 0, -1):
            f = factorial(i - 1)
            q, r = divmod(r, f)
            img.append(pool.pop(q))
        return cls._from_zero(tuple(img))

    @property
    def n(self) -> int:
        return len(self._img)

    @property
    def oln(self) -> tuple[int, ...]:
        """One-line notation, 1-indexed."""
        return tuple(v + 1 for v in self._img)

    def __call__(self, i: int) -> int:
        """Image of i, both 1-indexed."""
        return self._img[i - 1] + 1

    def rank(self) -> int:
        """Lexicographic rank among all permutations of [n] (0-based)."""
        img = self._img
        n = len(img)
        r = 0
        for i, v in enumerate(img):
            smaller = sum(1 for u in img[i + 1 :] if u < v)
            r += smaller * factorial(n - 1 - i)
        return r

    def to_string(self) -> str:
        if self.n >= 10:
            return ",".join(str(v + 1) for v in self._img)
        return "".join(str(v + 1) for v in self._img)

    def __repr__(self) -> str:
        return f"Permutation({list(self.oln)!r})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Permutation) and self._img == other._img

    def __hash__(self) -> int:
        return hash(self._img)

    def __lt__(self, other: "Permutation") -> bool:
        return self._img < other._img

    def __le__(self, other: "Permutation") -> bool:
        return self._img <= other._img

    def __gt__(self, other: "Permutation") -> bool:
        return self._img > other._img

    def __ge__(self, other: "Permutation") -> bool:
        return self._img >= other._img


def compose(u: Permutation, v: Permutation) -> Permutation:
    """The product uv, acting as (uv)(i) = u(v(i))."""
    if u.n != v.n:
        raise ValueError(f"size mismatch: {u.n} vs {v.n}")
    ui = u._img
    return Permutation._from_zero(tuple(ui[x] for x in v._img))


def inverse(w: Permutation) -> Permutation:
    img = w._img
    inv = [0] * len(img)
    for i, v in enumerate(img):
        inv[v] = i
    return Permutation._from_zero(tuple(inv))


def sign(w: Permutation) -> int:
    """(-1)^w, computed from the cycle type."""
    img = w._img
    seen = [False] * len(img)
    s = 1
    for start in range(len(img)):
        if seen[start]:
            continue
        length = 0
        j = start
        while not seen[j]:
            seen[j] = True
            j = img[j]
            length += 1
        if length % 2 == 0:
            s = -s
    return s


def all_permutations(n: int) -> Iterator[Permutation]:
    """All of S_n in lexicographic order of one-line notation."""
    for img in _itpermutations(range(n)):
        yield Permutation._from_zero(img)


def _longest_increasing(values: Iterable[int]) -> int:
    """Length of the longest strictly increasing subsequence, by patience
    sorting: tails[i] is the smallest last value of an increasing
    subsequence of length i + 1 seen so far."""
    tails: list[int] = []
    for v in values:
        i = bisect_left(tails, v)
        if i == len(tails):
            tails.append(v)
        else:
            tails[i] = v
    return len(tails)


def lis_length(w: Permutation) -> int:
    """Length of the longest strictly increasing subsequence of w(1..n)."""
    return _longest_increasing(w._img)


def lds_length(w: Permutation) -> int:
    """Length of the longest strictly decreasing subsequence of w(1..n):
    the longest increasing one of the image read backwards."""
    return _longest_increasing(reversed(w._img))


def avoids_incr(w: Permutation, m: int) -> bool:
    """True iff w has no increasing subsequence of length m."""
    if m < 1:
        raise ValueError("pattern length must be >= 1")
    return lis_length(w) < m


def avoids_decr(w: Permutation, m: int) -> bool:
    """True iff w has no decreasing subsequence of length m."""
    if m < 1:
        raise ValueError("pattern length must be >= 1")
    return lds_length(w) < m


def _check_cap(n: int, cap: int) -> None:
    if n > cap:
        raise ValueError(f"enumeration cap exceeded: n={n} > {cap}")


def _check_n_range(n: int, cap: int) -> None:
    """The n-range check of the capped verifications: 1 <= n <= cap."""
    if not 1 <= n <= cap:
        raise ValueError(f"n = {n} outside supported range 1..{cap}")


def _check_trials(trials: int) -> None:
    """The trial-count check of the sampled verifications: trials >= 1."""
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")


def _monotone_lengths(n: int) -> tuple[bytes, bytes]:
    """The longest increasing and the longest decreasing subsequence
    length of every permutation of [n], in lex order; built once per n."""
    if n not in _monotone_tables:
        perms = list(all_permutations(n))
        _monotone_tables[n] = bytes(map(lis_length, perms)), bytes(map(lds_length, perms))
    return _monotone_tables[n]


def _avoider_ranks(n: int, m: int, decreasing: bool) -> set[int]:
    """The lex ranks of the w in S_n whose longest increasing (decreasing)
    subsequence is shorter than m, read by position off the length table."""
    return {r for r, length in enumerate(_monotone_lengths(n)[decreasing]) if length < m}


def _avoiders(n: int, m: int, cap: int, decreasing: bool) -> list[Permutation]:
    """All w in S_n, in lex order, whose longest increasing (decreasing)
    subsequence is shorter than m."""
    _check_cap(n, cap)
    if m < 1:
        raise ValueError("pattern length must be >= 1")
    lengths = _monotone_lengths(n)[decreasing]
    return [
        Permutation._from_zero(img)
        for img, length in zip(_itpermutations(range(n)), lengths)
        if length < m
    ]


def enumerate_av(n: int, m: int, cap: int = ENUMERATION_CAP) -> list[Permutation]:
    """All w in S_n avoiding an increasing run of length m, in lex order."""
    return _avoiders(n, m, cap, False)


def enumerate_av_prime(n: int, m: int, cap: int = ENUMERATION_CAP) -> list[Permutation]:
    """All w in S_n avoiding a decreasing run of length m, in lex order."""
    return _avoiders(n, m, cap, True)


def _increasing_ending_lengths(values: Iterable[int]) -> list[int]:
    """For each value in turn, the length of the longest strictly
    increasing subsequence ending at it, by patience sorting."""
    tails: list[int] = []
    lengths = []
    for v in values:
        i = bisect_left(tails, v)
        if i == len(tails):
            tails.append(v)
        else:
            tails[i] = v
        lengths.append(i + 1)
    return lengths


def lis_ending_lengths(w: Permutation) -> list[int]:
    """For each position j (1-indexed list order), the length of the longest
    increasing subsequence of w ending exactly at w(j)."""
    return _increasing_ending_lengths(w._img)


def lis_starting_lengths(w: Permutation) -> list[int]:
    """For each position j (1-indexed list order), the length of the longest
    increasing subsequence of w starting exactly at w(j): read backwards
    with the values negated, such a subsequence increases and ends at j."""
    return _increasing_ending_lengths(-v for v in reversed(w._img))[::-1]


def erdos_szekeres_decomposition(v: Permutation, k: int):
    """Split positions 1..n into blocks A_1, ..., A_k where A_i holds the
    positions j whose longest increasing subsequence ending at v(j) has
    length i.  Each restriction of v to a block is strictly decreasing.
    Raises if some position needs a block index beyond k (i.e. v has an
    increasing subsequence of length k+1).
    """
    from snalg.rook import Subset
    from snalg.setdecomp import SetDecomposition

    lengths = lis_ending_lengths(v)
    if any(L > k for L in lengths):
        raise ValueError(
            f"{v.to_string()} has an increasing subsequence longer than {k}"
        )
    n = v.n
    blocks = [[] for _ in range(k)]
    for j, L in enumerate(lengths, start=1):
        blocks[L - 1].append(j)
    return SetDecomposition(n, [Subset(n, b) for b in blocks])


if __name__ == "__main__":
    import doctest

    doctest.testmod()
