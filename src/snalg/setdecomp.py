"""Set decompositions of [n], row-to-row sums, antisymmetrizers and tuple
sums.

A set decomposition is an ordered tuple of pairwise disjoint subsets (blocks,
possibly empty) covering [n]; a composition additionally has no empty
blocks.  The row-to-row sum row_sum(B, A) adds every permutation carrying
each block of A onto the corresponding block of B.  The antisymmetrizer of
a subset U is the signed sum of the permutations fixing [n] ∖ U pointwise.
Tuple sums constrain images of (not necessarily distinct) entries instead
of blocks.

Each of these sums is a rook sum: it turns its constraints into a board,
the columns each position may take, and reads its terms from the rook
board enumerator of `snalg.groupalg`, which lists the board's cosets of
its Young subgroup instead of filtering all of S_n.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

from snalg.exactla import QQ
from snalg.groupalg import AlgebraElement, _rook_sum, sign_twist
from snalg.perm import Permutation
from snalg.rook import Subset

__all__ = [
    "SetDecomposition",
    "act",
    "row_sum",
    "antisymmetrizer",
    "tuple_sum",
    "random_set_composition",
]


class SetDecomposition:
    """An ordered tuple of disjoint blocks covering [n]; empty blocks are
    kept and equality is positional."""

    __slots__ = ("n", "blocks")

    def __init__(self, n: int, blocks: Iterable[Subset]):
        blocks = tuple(blocks)
        union = 0
        for b in blocks:
            if not isinstance(b, Subset) or b.n != n:
                raise ValueError(f"block {b!r} is not a subset of [{n}]")
            if union & b.mask:
                raise ValueError("blocks are not disjoint")
            union |= b.mask
        if union != (1 << n) - 1:
            raise ValueError("blocks do not cover [n]")
        self.n = n
        self.blocks = blocks

    @classmethod
    def from_members(cls, n: int, groups: Iterable[Iterable[int]]) -> "SetDecomposition":
        return cls(n, (Subset(n, g) for g in groups))

    @property
    def length(self) -> int:
        return len(self.blocks)

    def __iter__(self) -> Iterator[Subset]:
        return iter(self.blocks)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SetDecomposition)
            and self.n == other.n
            and self.blocks == other.blocks
        )

    def __hash__(self) -> int:
        return hash((self.n, self.blocks))

    def __str__(self) -> str:
        return "(" + "|".join(str(b) for b in self.blocks) + ")"

    def __repr__(self) -> str:
        return f"SetDecomposition({self.n}, {[list(b.members) for b in self.blocks]!r})"


def act(w: Permutation, d: SetDecomposition) -> SetDecomposition:
    """Blockwise image (w(B_1), ..., w(B_k))."""
    if w.n != d.n:
        raise ValueError("permutation size mismatch")
    return SetDecomposition(d.n, (b.apply(w) for b in d.blocks))


def row_sum(Bdec: SetDecomposition, Adec: SetDecomposition, field=QQ) -> AlgebraElement:
    """Sum of all w with w(A_i) = B_i for every block index i."""
    if Bdec.n != Adec.n:
        raise ValueError("decompositions of different ground sets")
    if Bdec.length != Adec.length:
        raise ValueError(
            f"block count mismatch: {Bdec.length} vs {Adec.length}"
        )
    n = Bdec.n
    if any(a.size != b.size for a, b in zip(Adec.blocks, Bdec.blocks)):
        return AlgebraElement.zero(n, field)
    rows = [0] * n
    for a, b in zip(Adec.blocks, Bdec.blocks):
        for i in a.members:
            rows[i - 1] = b.mask
    return _rook_sum(n, tuple(rows), field)


def antisymmetrizer(U: Subset, field=QQ) -> AlgebraElement:
    """The signed sum of all permutations fixing [n] ∖ U pointwise."""
    n = U.n
    rows = tuple(U.mask if U.mask >> i & 1 else 1 << i for i in range(n))
    return sign_twist(_rook_sum(n, rows, field))


def tuple_sum(b: Sequence[int], a: Sequence[int], n: int, field=QQ) -> AlgebraElement:
    """Sum of all w in S_n with w(a_i) = b_i for every i.  Entries may
    repeat; inconsistent constraints give the zero element."""
    if len(a) != len(b):
        raise ValueError("tuple length mismatch")
    for x in (*a, *b):
        if not 1 <= x <= n:
            raise ValueError(f"entry {x} outside [{n}]")
    required: dict[int, int] = {}
    for ai, bi in zip(a, b):
        if required.setdefault(ai, bi) != bi:
            return AlgebraElement.zero(n, field)
    rows = [(1 << n) - 1] * n
    for ai, bi in required.items():
        rows[ai - 1] = 1 << (bi - 1)
    return _rook_sum(n, tuple(rows), field)


def random_set_composition(rng, n: int, max_blocks: int) -> SetDecomposition:
    """A random set composition of [n] with at most max_blocks blocks,
    drawn by assigning every element a uniform block label and dropping
    empty blocks."""
    if max_blocks < 1:
        raise ValueError("need at least one block")
    groups: list[list[int]] = [[] for _ in range(max_blocks)]
    for i in range(1, n + 1):
        groups[rng.randrange(max_blocks)].append(i)
    return SetDecomposition.from_members(n, (g for g in groups if g))
