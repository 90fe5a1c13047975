"""Partitions, tableau counts, tensor-module actions, and annihilator
verification.

The two module families are permutation modules on words: V_k^{⊗n} has
the words in [k]^n as basis, and w moves the letter at place i to place
w(i); N_n^{⊗k} has the words in [n]^k, and w replaces each letter t by
w(t).  The image of the group algebra in each representation has the rank
of the matrix of x ↦ ρ(x), with one column per permutation w and one 0/1
row per pair (t, s) of basis indices, holding the w with w·e_t = e_s, so
elimination runs in n! columns, not d².  Exact rank computations verify
that the ideals J_k (place action) and the sign-twist of I_{n-k-1} (entry
action) annihilate, with the expected image ranks given by avoider
counts.  Young-symmetrizer spans give the per-partition annihilation
claims, and the avoider counting identities are checked against
hook-length data.
"""

from __future__ import annotations

from math import factorial

from snalg.exactla import QQ, SpanBasis
from snalg.groupalg import AlgebraElement, mul, permutation_basis, sign_twist
from snalg.ideals import build_I_basis, build_J_basis
from snalg.perm import (
    Permutation,
    _avoider_ranks,
    _check_n_range,
    _monotone_lengths,
    enumerate_av,
    enumerate_av_prime,
)
from snalg.report import Report
from snalg.rook import Subset
from snalg.setdecomp import SetDecomposition, antisymmetrizer, row_sum

__all__ = [
    "Partition",
    "partitions",
    "transpose",
    "f_lambda",
    "syt_count",
    "count_identity_check",
    "two_sided_count_check",
    "ModuleAction",
    "place_action",
    "entry_action",
    "annihilator_check_V",
    "annihilator_check_N",
    "specht_annihilation_check",
    "young_symmetrizers",
    "MODULE_DIM_CAP",
    "ANNIHILATOR_CAP",
    "SPECHT_CAP",
]

MODULE_DIM_CAP = 4096
ANNIHILATOR_CAP = 5
SPECHT_CAP = 5


class Partition:
    """A partition: weakly decreasing positive parts.  Serializes as
    "4+2+1" (empty partition as "0")."""

    __slots__ = ("parts",)

    def __init__(self, parts):
        parts = tuple(int(p) for p in parts)
        if any(p <= 0 for p in parts):
            raise ValueError("parts must be positive")
        if any(a < b for a, b in zip(parts, parts[1:])):
            raise ValueError("parts must be weakly decreasing")
        self.parts = parts

    @property
    def n(self) -> int:
        return sum(self.parts)

    @property
    def length(self) -> int:
        return len(self.parts)

    @property
    def first(self) -> int:
        return self.parts[0] if self.parts else 0

    def __iter__(self):
        return iter(self.parts)

    def __len__(self) -> int:
        return len(self.parts)

    def __getitem__(self, i):
        return self.parts[i]

    def __eq__(self, other) -> bool:
        return isinstance(other, Partition) and self.parts == other.parts

    def __hash__(self) -> int:
        return hash(self.parts)

    def __str__(self) -> str:
        return "+".join(str(p) for p in self.parts) if self.parts else "0"

    def __repr__(self) -> str:
        return f"Partition({list(self.parts)!r})"


def partitions(n: int) -> list[Partition]:
    """All partitions of n, in lexicographically decreasing part order."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    out: list[Partition] = []

    def rec(remaining: int, largest: int, prefix: list[int]) -> None:
        if remaining == 0:
            out.append(Partition(prefix))
            return
        for p in range(min(remaining, largest), 0, -1):
            prefix.append(p)
            rec(remaining - p, p, prefix)
            prefix.pop()

    rec(n, n, [])
    return out


def transpose(lam: Partition) -> Partition:
    """Conjugate partition: column lengths of the diagram."""
    if not lam.parts:
        return Partition(())
    return Partition(
        sum(1 for p in lam.parts if p > j) for j in range(lam.parts[0])
    )


def f_lambda(lam: Partition) -> int:
    """Number of standard tableaux of the given shape, by the hook length
    formula."""
    n = lam.n
    if n == 0:
        return 1
    tr = transpose(lam).parts
    product = 1
    for i, row in enumerate(lam.parts):
        for j in range(row):
            product *= row - j + tr[j] - i - 1
    count, rem = divmod(factorial(n), product)
    if rem:
        raise ArithmeticError("hook product does not divide n!")
    return count


def syt_count(lam: Partition) -> int:
    """Independent tableau count by backtracking: place 1, 2, ... into
    cells keeping rows and columns increasing."""
    parts = lam.parts
    rows = len(parts)
    filled = [0] * rows

    def rec(placed: int) -> int:
        if placed == lam.n:
            return 1
        total = 0
        for i in range(rows):
            if filled[i] < parts[i] and (i == 0 or filled[i - 1] > filled[i]):
                filled[i] += 1
                total += rec(placed + 1)
                filled[i] -= 1
        return total

    return rec(0)


def count_identity_check(n: int, k: int) -> bool:
    """|Av_n(k+1)| equals the sums of (f^λ)² over ℓ(λ) ≤ k and over
    λ₁ ≤ k."""
    avoiders = len(enumerate_av(n, k + 1))
    by_length = sum(f_lambda(l) ** 2 for l in partitions(n) if l.length <= k)
    by_width = sum(f_lambda(l) ** 2 for l in partitions(n) if l.first <= k)
    return avoiders == by_length == by_width


def two_sided_count_check(n: int, k: int, l: int) -> bool:
    """|Av_n(k+1) ∩ Av'_n(l+1)| equals the sum of (f^λ)² over partitions
    with ℓ(λ) ≤ k and λ₁ ≤ l; the left side is read off the table of
    longest increasing and decreasing subsequence lengths."""
    lis, lds = _monotone_lengths(n)
    both = sum(1 for a, d in zip(lis, lds) if a <= k and d <= l)
    expected = sum(
        f_lambda(lam) ** 2
        for lam in partitions(n)
        if lam.length <= k and lam.first <= l
    )
    return both == expected


class ModuleAction:
    """S_n permuting the basis e_0, ..., e_{d-1} of a d-dimensional module.

    `images(w)` is the list whose t-th entry is the basis index s of w·e_t,
    so the matrix of w in column convention has a single 1 in column t, at
    row s.  Read the other way, the pairs (t, s) index the rows of the
    matrix of x ↦ ρ(x), and row (t, s) holds the w with images(w)[t] = s
    (see `_image_rank`).  Each permutation's list is computed once and
    cached.
    """

    __slots__ = ("n", "dim", "_images", "_cache")

    def __init__(self, n: int, dim: int, images):
        self.n = n
        self.dim = dim
        self._images = images
        self._cache: dict[Permutation, list[int]] = {}

    def index_action(self, w: Permutation) -> list[int]:
        """The basis index of w·e_t for each t."""
        if w.n != self.n:
            raise ValueError("permutation size mismatch")
        hit = self._cache.get(w)
        if hit is None:
            hit = self._cache[w] = self._images(w)
        return hit

    def __repr__(self) -> str:
        return f"ModuleAction(n={self.n}, dim={self.dim})"


def _check_dim(dim: int) -> None:
    if dim > MODULE_DIM_CAP:
        raise ValueError(f"module dimension {dim} exceeds cap {MODULE_DIM_CAP}")


def place_action(n: int, k: int) -> ModuleAction:
    """S_n permuting the n tensor places of V_k^{⊗n}.  The basis is the
    words in [k]^n, place 1 most significant (`itertools.product` order),
    and w moves the letter at place i to place w(i)."""
    if k < 1:
        raise ValueError("need k >= 1")
    dim = k**n
    _check_dim(dim)

    def images(w: Permutation) -> list[int]:
        out = [0]
        for v in w.oln:
            step = k ** (n - v)
            out = [a + x * step for a in out for x in range(k)]
        return out

    return ModuleAction(n, dim, images)


def entry_action(n: int, k: int) -> ModuleAction:
    """S_n acting diagonally on the entries of words in [n]^k (the basis
    of N_n^{⊗k}, entry 1 most significant): w·e_{(t₁,…,t_k)} =
    e_{(w(t₁),…,w(t_k))}."""
    if k < 0:
        raise ValueError("need k >= 0")
    dim = n**k
    _check_dim(dim)

    def images(w: Permutation) -> list[int]:
        letters = [v - 1 for v in w.oln]
        out = [0]
        for _ in range(k):
            out = [a * n + v for a in out for v in letters]
        return out

    return ModuleAction(n, dim, images)


def _acts_as_zero(action: ModuleAction, a: AlgebraElement) -> bool:
    """Whether ρ(a) = Σ_w coeff_a(w)·ρ(w) is zero.  Its column t has, at
    row s, the sum of the integer terms of the w with w·e_t = e_s, over the
    denominator `a._den`; over F_p the sums are reduced mod p."""
    if a.n != action.n:
        raise ValueError("element size mismatch")
    perms = permutation_basis(a.n)
    p = a.field.characteristic
    terms = [(action.index_action(perms[r]), c) for r, c in a._terms.items()]
    for t in range(action.dim):
        column: dict[int, int] = {}
        for images, c in terms:
            s = images[t]
            column[s] = column.get(s, 0) + c
        if any(x % p if p else x for x in column.values()):
            return False
    return True


def _image_rank(action: ModuleAction, perms, field) -> int:
    """The rank of the span of ρ(w), w in perms, as the row rank of the
    matrix with one column per w and one 0/1 row per pair (t, s), holding
    the w with w·e_t = e_s.  Equal rows are inserted once, in the order
    they first appear, and the rank stops at the number of columns."""
    images = [action.index_action(w) for w in perms]
    supports: dict[tuple[int, ...], None] = {}
    for t in range(action.dim):
        rows: dict[int, list[int]] = {}  # s -> the support of row (t, s)
        for c, image in enumerate(images):
            rows.setdefault(image[t], []).append(c)
        for columns in rows.values():
            supports.setdefault(tuple(columns))
    span = SpanBasis(field, len(perms))
    for columns in supports:
        span.insert(dict.fromkeys(columns, 1))
        if span.rank() == len(perms):
            break
    return span.rank()


def annihilator_check_V(n: int, k: int, field=QQ, cap: int = ANNIHILATOR_CAP) -> Report:
    """J_k annihilates the place action on V_k^{⊗n}, and the image of the
    group algebra has rank |Av_n(k+1)|, spanned by the avoider rows alone
    (in both the increasing and decreasing conventions)."""
    _check_n_range(n, cap)
    rep = Report("annihilator_check_V", n=n, k=k, field=field.name)
    action = place_action(n, k)
    jbasis = build_J_basis(n, k, field)

    ok = True
    witness = None
    for v, e in zip(jbasis.leaders, jbasis.elements):
        if not _acts_as_zero(action, e):
            ok, witness = False, f"J-basis element for {v.oln}"
            break
    rep.add("ideal_annihilates", ok, witness=witness)

    expected = len(enumerate_av(n, k + 1))
    full_rank = _image_rank(action, permutation_basis(n), field)
    rep.data["image_rank"] = full_rank
    rep.add("image_rank", full_rank == expected, note=f"{full_rank} (expect {expected})")

    av_rank = _image_rank(action, enumerate_av(n, k + 1), field)
    avp_rank = _image_rank(action, enumerate_av_prime(n, k + 1), field)
    rep.add(
        "avoider_rows_span",
        av_rank == full_rank == avp_rank,
        note=f"Av rows {av_rank}, Av' rows {avp_rank}",
    )

    rep.add(
        "kernel_image_accounting",
        len(jbasis) + full_rank == factorial(n),
        note=f"rank J = {len(jbasis)}, image = {full_rank}",
    )
    return rep


def annihilator_check_N(n: int, k: int, field=QQ, cap: int = ANNIHILATOR_CAP) -> Report:
    """The sign-twist of I_{n-k-1} annihilates the entry action on
    N_n^{⊗k}, and the image rank is n! - |Av_n(n-k)| with the non-avoider
    rows spanning."""
    _check_n_range(n, cap)
    rep = Report("annihilator_check_N", n=n, k=k, field=field.name)
    action = entry_action(n, k)

    m = n - k - 1
    if m >= 0:
        ibasis = build_I_basis(n, m, field)
        ok = True
        witness = None
        for v, e in zip(ibasis.leaders, ibasis.elements):
            if not _acts_as_zero(action, sign_twist(e)):
                ok, witness = False, f"twisted I-basis element for {v.oln}"
                break
        rep.add("ideal_annihilates", ok, witness=witness)
        ideal_rank = len(ibasis)
    else:
        rep.skip("ideal_annihilates", f"I_{m} undefined for negative index; nothing to check")
        ideal_rank = 0

    avoider_ranks = _avoider_ranks(n, n - k, False)
    expected = factorial(n) - len(avoider_ranks)
    perms = permutation_basis(n)
    full_rank = _image_rank(action, perms, field)
    rep.data["image_rank"] = full_rank
    rep.add("image_rank", full_rank == expected, note=f"{full_rank} (expect {expected})")

    non_avoiders = [w for r, w in enumerate(perms) if r not in avoider_ranks]
    na_rank = _image_rank(action, non_avoiders, field)
    primes = _avoider_ranks(n, n - k, True)
    non_primes = [w for r, w in enumerate(perms) if r not in primes]
    np_rank = _image_rank(action, non_primes, field)
    rep.add(
        "non_avoider_rows_span",
        na_rank == full_rank == np_rank,
        note=f"S_n∖Av rows {na_rank}, S_n∖Av' rows {np_rank}",
    )

    rep.add(
        "kernel_image_accounting",
        ideal_rank + full_rank == factorial(n),
        note=f"rank twisted-I = {ideal_rank}, image = {full_rank}",
    )
    return rep


def young_symmetrizers(lam: Partition, field=QQ):
    """(a_λ, b_λ) for the row-filled tableau of shape λ: a_λ symmetrizes
    the rows, b_λ antisymmetrizes the columns."""
    n = lam.n
    rows = []
    start = 1
    for p in lam.parts:
        rows.append(list(range(start, start + p)))
        start += p
    row_dec = SetDecomposition.from_members(n, rows)
    a = row_sum(row_dec, row_dec, field)
    b = AlgebraElement.one(n, field)
    tr = transpose(lam).parts
    for j, height in enumerate(tr):
        col = [rows[i][j] for i in range(height)]
        b = mul(b, antisymmetrizer(Subset(n, col), field))
    return a, b


def specht_annihilation_check(n: int, k: int, field=QQ, cap: int = SPECHT_CAP) -> Report:
    """Per partition λ of n: I_k annihilates the Young-symmetrizer span
    when ℓ(λ) > k, and J_k annihilates it when ℓ(λ) ≤ k.  Since both
    ideals are two-sided, annihilating the generator a_λ b_λ is
    equivalent.  The rank of each span 𝒜·a_λ·b_λ is recorded."""
    _check_n_range(n, cap)
    rep = Report("specht_annihilation_check", n=n, k=k, field=field.name)
    ibasis = build_I_basis(n, k, field)
    jbasis = build_J_basis(n, k, field)
    span_ranks = {}
    for lam in partitions(n):
        a, b = young_symmetrizers(lam, field)
        c = mul(a, b)
        span = SpanBasis(field, factorial(n))
        for w in permutation_basis(n):
            span.insert(mul(AlgebraElement.from_perm(w, field), c)._terms)
        span_ranks[str(lam)] = span.rank()
        if lam.length > k:
            name, basis = "I", ibasis
        else:
            name, basis = "J", jbasis
        ok = True
        witness = None
        for v, e in zip(basis.leaders, basis.elements):
            if not mul(e, c).is_zero():
                ok, witness = False, f"{name}-basis element for {v.oln}"
                break
        rep.add(f"{name}_kills_{lam}", ok, witness=witness)
    rep.data["span_ranks"] = span_ranks
    return rep
