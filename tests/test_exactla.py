"""Tests for exact fields, dense elimination and span maintenance."""

import random
import time
from fractions import Fraction
from math import factorial, isqrt
from pathlib import Path

import pytest

from snalg.exactla import (
    GF,
    QQ,
    DenseMatrix,
    SpanBasis,
    span_intersection_dim,
    span_sum_rank,
)

import gauss_jordan as gj


def random_rational_matrix(rng, nrows, ncols, span=4):
    return [
        [Fraction(rng.randint(-span, span), rng.randint(1, span)) for _ in range(ncols)]
        for _ in range(nrows)
    ]


def test_fields_basics():
    assert QQ.normalize(3) == Fraction(3)
    assert QQ.inv(Fraction(2, 3)) == Fraction(3, 2)
    f5 = GF(5)
    assert f5.normalize(-1) == 4
    assert f5.normalize(Fraction(1, 2)) == 3  # 2 * 3 = 6 = 1 mod 5
    assert f5.inv(3) == 2
    assert GF(5) is GF(5)
    with pytest.raises(ValueError):
        GF(6)
    with pytest.raises(ValueError):
        GF(1)
    with pytest.raises(ZeroDivisionError):
        f5.inv(0)


def test_prime_fields_are_decided_fast_and_exactly():
    from snalg.exactla import _MR_BOUND, _is_prime

    m61 = 2**61 - 1
    start = time.perf_counter()
    assert GF(m61).p == m61
    # a product of two Mersenne primes, the Carmichael number 561, and
    # 3215031751, a strong pseudoprime to the bases 2, 3, 5 and 7
    for composite in ((2**17 - 1) * m61, 561, 3215031751):
        with pytest.raises(ValueError, match="not prime"):
            GF(composite)
    # beyond the bound, prime or not
    for p in (_MR_BOUND, (2**31 - 1) * m61, 2**89 - 1):
        with pytest.raises(ValueError, match="too large"):
            GF(p)
    assert time.perf_counter() - start < 1
    # the bases agree with trial division on every small number
    assert [p for p in range(-3, 5000) if _is_prime(p)] == [
        p for p in range(2, 5000) if all(p % d for d in range(2, isqrt(p) + 1))
    ]


def test_scalars_falsy_iff_zero():
    assert not QQ.zero and QQ.one
    assert not GF(7).zero and GF(7).one


def matvec(field, rows, x):
    return [field.normalize(sum(a * b for a, b in zip(row, x))) for row in rows]


def test_rank_examples():
    assert DenseMatrix(QQ, [[int(i == j) for j in range(5)] for i in range(5)]).rank() == 5
    assert len(DenseMatrix(QQ, [[0] * 4] * 3).nullspace()) == 4
    assert DenseMatrix(QQ, [[1, 2], [2, 4]]).rank() == 1


def test_rank_nullity_and_bareiss_agree():
    rng = random.Random(12345)
    for _ in range(25):
        nrows = rng.randint(1, 6)
        ncols = rng.randint(1, 6)
        m = random_rational_matrix(rng, nrows, ncols)
        r = gj.rank(QQ, m, ncols)
        span = SpanBasis(QQ, ncols)
        for row in m:
            span.insert(row)
        assert r == span.rank()
        ns = gj.nullspace(QQ, m, ncols)
        assert r + len(ns) == ncols
        for v in ns:
            assert not any(matvec(QQ, m, v))


def test_rank_over_prime_field():
    rng = random.Random(99)
    f = GF(5)
    for _ in range(20):
        nrows = rng.randint(1, 6)
        ncols = rng.randint(1, 6)
        entries = [[rng.randrange(5) for _ in range(ncols)] for _ in range(nrows)]
        r = gj.rank(f, entries, ncols)
        assert DenseMatrix(f, entries).rank() == r
        assert r + len(gj.nullspace(f, entries, ncols)) == ncols
        assert r <= gj.rank(QQ, entries, ncols)


def test_ragged_rows_rejected():
    with pytest.raises(ValueError):
        DenseMatrix(QQ, [[1, 2], [3]])


def test_span_insert_basics():
    s = SpanBasis(QQ, 2)
    assert s.insert([1, 0])
    assert not s.insert([1, 0])
    assert s.insert([0, 1])
    assert s.rank() == 2
    assert not s.insert([1, 1])
    with pytest.raises(ValueError):
        s.insert([1, 0, 0])


def test_span_membership():
    s = SpanBasis(QQ, 3)
    s.insert([1, 2, 0])
    s.insert([0, 1, 1])
    assert s.contains([1, 3, 1])
    assert not s.contains([0, 0, 1])


def test_span_canonical_under_insertion_order():
    rng = random.Random(31)
    vectors = [[Fraction(rng.randint(-3, 3)) for _ in range(5)] for _ in range(8)]
    reference = SpanBasis(QQ, 5)
    for v in vectors:
        reference.insert(v)
    probe = [Fraction(rng.randint(-3, 3)) for _ in range(5)]
    for _ in range(10):
        shuffled = vectors[:]
        rng.shuffle(shuffled)
        s = SpanBasis(QQ, 5)
        for v in shuffled:
            s.insert(v)
        assert s == reference
        assert s.rows == reference.rows
        assert s.contains(probe) == reference.contains(probe)


def test_span_sum_and_intersection():
    x = SpanBasis(QQ, 3)
    x.insert([1, 0, 0])
    y = SpanBasis(QQ, 3)
    y.insert([0, 1, 0])
    assert span_sum_rank(x, y) == 2
    assert span_intersection_dim(x, y) == 0
    assert span_intersection_dim(x, x) == x.rank()
    z = SpanBasis(QQ, 3)
    z.insert([1, 1, 0])
    z.insert([0, 1, 0])
    assert span_intersection_dim(x, z) == 1
    mismatch = SpanBasis(QQ, 4)
    with pytest.raises(ValueError):
        span_sum_rank(x, mismatch)
    assert x != SpanBasis(GF(5), 3)


def test_span_is_unhashable():
    # spans compare by value and are mutable, so they have no hash
    with pytest.raises(TypeError, match="unhashable"):
        hash(SpanBasis(QQ, 3))
    with pytest.raises(TypeError, match="unhashable"):
        {SpanBasis(GF(5), 2)}


def test_span_over_prime_field():
    s = SpanBasis(GF(2), 3)
    assert s.insert([1, 1, 0])
    assert s.insert([0, 1, 1])
    assert not s.insert([1, 0, 1])
    assert s.rank() == 2


def tagged(v, m, split, t=1):
    """t·[v | e_m] as the sparse dict `SpanBasis.insert_tagged` takes: the
    nonzero entries of v, and the tag t at split + m."""
    return {**{j: t * x for j, x in enumerate(v) if x}, split + m: t}


def min_dependency(vectors, field=QQ):
    """The first linear dependency (c_0, ..., c_m), c_m = 1, of the
    sequence, read off one tagged span the way the Krylov loop of
    `element_min_poly` reads it, or None if the sequence is independent."""
    dim = len(vectors[0])
    span = SpanBasis(field, dim + len(vectors))
    for m, v in enumerate(vectors):
        dep = span.insert_tagged(tagged(v, m, dim), m, dim)
        if dep is not None:
            return dep
    return None


def test_min_dependency_examples():
    v = [Fraction(2), Fraction(3)]
    dep = min_dependency([v, v])
    assert dep == [Fraction(-1), Fraction(1)]
    dep = min_dependency([[1, 0], [0, 1], [1, 1]])
    assert dep == [Fraction(-1), Fraction(-1), Fraction(1)]
    # nilpotent of index 2: vectors v, Nv, N^2 v
    dep = min_dependency([[0, 1], [1, 0], [0, 0]])
    assert len(dep) == 3 and dep[-1] == 1 and dep[0] == dep[1] == 0
    assert min_dependency([[1, 0], [0, 1]]) is None


def test_min_dependency_random():
    rng = random.Random(5)
    for _ in range(20):
        dim = rng.randint(2, 5)
        count = dim + rng.randint(1, 3)
        vectors = [
            [Fraction(rng.randint(-3, 3)) for _ in range(dim)] for _ in range(count)
        ]
        dep = min_dependency(vectors)
        if dep is None:
            assert gj.rank(QQ, vectors, dim) == count
            continue
        m = len(dep) - 1
        assert dep[m] == 1
        combo = [
            sum(dep[i] * vectors[i][j] for i in range(m + 1)) for j in range(dim)
        ]
        assert not any(combo)
        # minimality: the prefix is independent
        assert min_dependency(vectors[:m]) is None
        assert gj.rank(QQ, vectors[:m], dim) == m


def test_min_dependency_prime_field():
    f = GF(3)
    dep = min_dependency([[1, 1], [1, 2], [0, 1]], field=f)
    m = len(dep) - 1
    assert dep[m] == 1
    vectors = [[1, 1], [1, 2], [0, 1]]
    combo = [sum(dep[i] * vectors[i][j] for i in range(m + 1)) % 3 for j in range(2)]
    assert combo == [0, 0]


def random_rational_vector(rng, ncols, span=4, density=0.6):
    return [
        Fraction(rng.randint(-span, span), rng.randint(1, span))
        if rng.random() < density else Fraction(0)
        for _ in range(ncols)
    ]


def test_span_matches_dense_rref_over_q():
    rng = random.Random(2024)
    for _ in range(40):
        ncols = rng.randint(1, 8)
        vectors = [random_rational_vector(rng, ncols) for _ in range(rng.randint(1, 9))]
        # a few dependent vectors: rational combinations of earlier ones
        for _ in range(rng.randint(0, 3)):
            a, b = rng.choice(vectors), rng.choice(vectors)
            c = Fraction(rng.randint(-5, 5), rng.randint(1, 5))
            vectors.append([x + c * y for x, y in zip(a, b)])
        reduced, pivots = gj.rref(QQ, vectors, ncols)
        want_rows = reduced[: len(pivots)]
        s = SpanBasis(QQ, ncols)
        for v in vectors:
            s.insert(v)
        assert s.rank() == len(pivots)
        assert s.pivots == pivots
        assert s.rows == want_rows
        shuffled = vectors[:]
        rng.shuffle(shuffled)
        t = SpanBasis(QQ, ncols)
        for v in shuffled:
            t.insert(v)
        assert s == t and t.rows == want_rows
        for _ in range(5):
            probe = random_rational_vector(rng, ncols)
            assert s.contains(probe) == (
                gj.rank(QQ, vectors + [probe], ncols) == len(pivots)
            )
        combo = [Fraction(0)] * ncols
        for v in vectors:
            c = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
            combo = [x + c * y for x, y in zip(combo, v)]
        assert s.contains(combo)


def test_span_rows_over_q_are_primitive_integers():
    from math import gcd

    rng = random.Random(8)
    s = SpanBasis(QQ, 6)
    for _ in range(5):
        s.insert(random_rational_vector(rng, 6))
    assert s.rank() == 5
    for pc, row in s._rows.items():
        assert min(row) == pc
        assert all(type(x) is int and x for x in row.values())
        assert gcd(*row.values()) == 1 and row[pc] > 0
        assert not any(opc in row for opc in s.pivots if opc != pc)


def test_ideal_span_ranks_agree_over_q_and_fp():
    from snalg.ideals import build_I_basis, build_J_basis

    for n in range(1, 5):
        for k in range(n + 1):
            for build in (build_I_basis, build_J_basis):
                ranks = {build(n, k, f).span().rank() for f in (QQ, GF(5), GF(7))}
                assert len(ranks) == 1, (build.__name__, n, k, ranks)


def test_cross_char_gap_q_vs_f2():
    from snalg.ideals import cross_char_intersection

    assert cross_char_intersection(3, QQ) == 4
    assert cross_char_intersection(3, GF(2)) == 5


PRIMES = (2, 3, 7, 2**31 - 1)


def random_fp_vector(rng, p, ncols, density=0.6):
    """Entries as any int representative of their residue, so the entry
    path sees negatives and values >= p too."""
    return [rng.randrange(-2 * p, 2 * p) if rng.random() < density else 0 for _ in range(ncols)]


@pytest.mark.parametrize("p", PRIMES)
def test_span_matches_dense_rref_over_fp(p):
    f = GF(p)
    rng = random.Random(p)
    for _ in range(30):
        ncols = rng.randint(1, 8)
        vectors = [random_fp_vector(rng, p, ncols) for _ in range(rng.randint(1, 9))]
        for _ in range(rng.randint(0, 3)):
            a, b = rng.choice(vectors), rng.choice(vectors)
            c = rng.randrange(p)
            vectors.append([x + c * y for x, y in zip(a, b)])
        reduced, pivots = gj.rref(f, vectors, ncols)
        want_rows = reduced[: len(pivots)]
        s = SpanBasis(f, ncols)
        for v in vectors:
            s.insert(v)
        assert s.rank() == len(pivots)
        assert s.pivots == pivots
        assert s.rows == want_rows
        shuffled = vectors[:]
        rng.shuffle(shuffled)
        t = SpanBasis(f, ncols)
        for v in shuffled:
            t.insert([f.normalize(x) for x in v])
        assert s == t and t.rows == want_rows
        for _ in range(5):
            probe = random_fp_vector(rng, p, ncols)
            assert s.contains(probe) == (
                gj.rank(f, vectors + [probe], ncols) == len(pivots)
            )
        combo = [0] * ncols
        for v in vectors:
            c = rng.randrange(p)
            combo = [x + c * y for x, y in zip(combo, v)]
        assert s.contains(combo)


@pytest.mark.parametrize("p", PRIMES)
def test_span_rows_over_fp_are_sparse_with_pivot_one(p):
    rng = random.Random(3 * p)
    s = SpanBasis(GF(p), 7)
    for _ in range(12):
        s.insert(random_fp_vector(rng, p, 7))
    assert s.rank() >= 1
    for pc, row in s._rows.items():
        assert min(row) == pc and row[pc] == 1
        assert all(type(x) is int and 0 < x < p for x in row.values())
        assert not any(opc in row for opc in s.pivots if opc != pc)


@pytest.mark.parametrize(
    "field", [QQ] + [GF(p) for p in PRIMES], ids=["Q"] + [f"GF{p}" for p in PRIMES]
)
def test_kernel_matches_gauss_jordan_nullspace(field):
    p = field.characteristic
    rng = random.Random(41 + p)
    for _ in range(30):
        ncols = rng.randint(1, 8)
        if p:
            vectors = [random_fp_vector(rng, p, ncols) for _ in range(rng.randint(1, 9))]
        else:
            vectors = [random_rational_vector(rng, ncols) for _ in range(rng.randint(1, 9))]
        for _ in range(rng.randint(0, 3)):
            a, b = rng.choice(vectors), rng.choice(vectors)
            c = rng.randrange(-p, p) if p else Fraction(rng.randint(-5, 5), rng.randint(1, 5))
            vectors.append([x + c * y for x, y in zip(a, b)])
        want = gj.nullspace(field, vectors, ncols)
        shuffled = vectors[:]
        rng.shuffle(shuffled)
        for order in (vectors, shuffled, vectors[::-1]):
            s = SpanBasis(field, ncols)
            for v in order:
                s.insert(v)
            kernel = s.kernel()
            assert kernel == want
            assert len(kernel) == ncols - s.rank()
            for x in kernel:
                if p:
                    assert all(type(c) is int and 0 <= c < p for c in x)
                else:
                    assert all(type(c) is Fraction for c in x)
                for v in vectors:
                    dot = sum(a * b for a, b in zip(v, x))
                    assert (dot % p if p else dot) == 0


@pytest.mark.parametrize("field", [QQ, GF(2), GF(7)], ids=["Q", "GF2", "GF7"])
def test_kernel_of_empty_and_full_rank_spans(field):
    units = [[int(i == j) for j in range(4)] for i in range(4)]
    assert SpanBasis(field, 4).kernel() == units
    full = SpanBasis(field, 3)
    for v in ([1, 2, 3], [0, 1, 4], [5, 6, 0]):  # determinant 1
        full.insert(v)
    assert full.rank() == 3 and full.kernel() == []


def test_span_fp_entry_accepts_fractions_and_rejects_bad_denominators():
    f = GF(7)
    s = SpanBasis(f, 2)
    assert s.insert([Fraction(1, 2), Fraction(-3)])  # (4, 4) mod 7
    assert s.contains([1, 1])
    assert s.rows == [[1, 1]]
    with pytest.raises(ZeroDivisionError):
        s.insert([Fraction(1, 7), 0])
    with pytest.raises(ZeroDivisionError):
        s.contains([0, Fraction(3, 14)])
    assert s.rank() == 1


def test_fp_span_sum_and_intersection():
    f = GF(3)
    x = SpanBasis(f, 3)
    x.insert([1, 1, 0])
    y = SpanBasis(f, 3)
    y.insert([2, 2, 0])
    y.insert([0, 1, 2])
    assert span_sum_rank(x, y) == 2
    assert span_intersection_dim(x, y) == 1
    z = y.copy()
    z.insert([0, 0, 1])
    assert z.rank() == 3 and y.rank() == 2 and z != y


@pytest.mark.parametrize("p", (3, 7, 2**31 - 1))
def test_min_dependency_random_over_fp(p):
    f = GF(p)
    rng = random.Random(p + 1)
    for _ in range(20):
        dim = rng.randint(2, 5)
        vectors = [random_fp_vector(rng, p, dim, 0.8) for _ in range(dim + 2)]
        dep = min_dependency(vectors, field=f)
        m = len(dep) - 1
        assert dep[m] == 1 and all(0 <= c < p for c in dep)
        assert not any(
            sum(dep[i] * vectors[i][j] for i in range(m + 1)) % p for j in range(dim)
        )
        assert gj.rank(f, vectors[:m], dim) == m
        if m:
            assert min_dependency(vectors[:m], field=f) is None


def test_insert_tagged_leaves_span_unchanged_on_dependency():
    s = SpanBasis(QQ, 2 + 3)
    assert s.insert_tagged(tagged([1, 2], 0, 2), 0, 2) is None
    assert s.insert_tagged(tagged([0, 1], 1, 2), 1, 2) is None
    before = s.copy()
    assert s.insert_tagged(tagged([2, 7], 2, 2), 2, 2) == [-2, -3, 1]
    assert s == before


def test_min_poly_matches_recorded_krylov_dependencies():
    """Every kappa row at n <= 6: the minimal polynomial coefficients as
    recorded from an earlier dense Fraction-row dependency search (n <= 5)
    and from the product before it worked coset by coset (n = 6), and the
    same dependency found by tagged insertion of the explicit power
    vectors."""
    from snalg.groupalg import AlgebraElement, element_min_poly, mul
    from snalg.rook import kappa, kappa_rows

    table = Path(__file__).parent / "data" / "kappa_minpoly_coeffs.tsv"
    recorded = {}
    for line in table.read_text().splitlines()[1:]:
        n, a, b, c, coeffs = line.split("\t")
        recorded[int(n), int(a), int(b), int(c)] = [Fraction(x) for x in coeffs.split()]
    rows = [(n, *abc) for n in range(1, 7) for abc in kappa_rows(n)]
    assert sorted(rows) == sorted(recorded)
    for n, a, b, c in rows:
        want = recorded[n, a, b, c]
        elem = kappa(n, a, b, c)
        assert list(element_min_poly(elem).coeffs) == want
        powers = [AlgebraElement.one(n, QQ)]
        for _ in range(len(want) - 1):
            powers.append(mul(powers[-1], elem))
        dim = factorial(n)
        vectors = [[Fraction(x._terms.get(r, 0), x._den) for r in range(dim)] for x in powers]
        assert min_dependency(vectors) == want
        assert min_dependency(vectors[:-1]) is None


def _sparse(v, rng):
    """v as a {column: entry} dict, in random key order, with some of its
    zero entries kept as explicit zeros."""
    keys = [j for j, x in enumerate(v) if x or rng.random() < 0.3]
    rng.shuffle(keys)
    return {j: v[j] for j in keys}


@pytest.mark.parametrize(
    "field, kind",
    [(QQ, "int"), (QQ, "fraction"), (GF(7), "int")],
    ids=["Q-int", "Q-fraction", "GF7"],
)
def test_sparse_entry_matches_dense_entry(field, kind):
    p = field.characteristic
    rng = random.Random(17 + p + len(kind))
    for _ in range(30):
        ncols = rng.randint(1, 9)
        if p:
            vectors = [random_fp_vector(rng, p, ncols, 0.4) for _ in range(rng.randint(1, 9))]
        elif kind == "int":
            vectors = [
                [rng.randint(-5, 5) if rng.random() < 0.4 else 0 for _ in range(ncols)]
                for _ in range(rng.randint(1, 9))
            ]
        else:
            vectors = [random_rational_vector(rng, ncols, density=0.4) for _ in range(rng.randint(1, 9))]
        for _ in range(rng.randint(0, 3)):
            a, b = rng.choice(vectors), rng.choice(vectors)
            vectors.append([x + 2 * y for x, y in zip(a, b)])
        dense, sparse = SpanBasis(field, ncols), SpanBasis(field, ncols)
        for v in vectors:
            assert dense.insert(v) == sparse.insert(_sparse(v, rng))
        assert sparse.rank() == dense.rank()
        assert sparse.pivots == dense.pivots
        assert sparse.rows == dense.rows
        assert sparse.kernel() == dense.kernel()
        assert sparse == dense
        for _ in range(5):
            probe = (random_fp_vector(rng, p, ncols, 0.4) if p
                     else random_rational_vector(rng, ncols, density=0.4))
            assert sparse.contains(_sparse(probe, rng)) == dense.contains(probe)
            assert sparse.contains(probe) == dense.contains(probe)


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=["Q", "GF7"])
def test_sparse_entry_ignores_zeros_and_checks_columns(field):
    s = SpanBasis(field, 3)
    assert not s.insert({0: 0, 2: 0})
    assert s.rank() == 0 and s.contains({1: 0})
    assert s.insert({1: 2, 0: 0})
    assert s.pivots == [1] and s.rows == [[0, 1, 0]]
    for bad in ({3: 1}, {-1: 1}, {0: 1, 5: 0}):
        with pytest.raises(ValueError, match="column outside"):
            s.insert(bad)
        with pytest.raises(ValueError, match="column outside"):
            s.contains(bad)
    assert s.rank() == 1


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=["Q", "GF7"])
def test_sparse_tagged_insert_finds_the_dense_dependency(field):
    # an input t·[v | e_m], t any nonzero scalar, gives the same dependency
    # as [v | e_m], and it is the first dependency of the dense vectors
    p = field.characteristic
    rng = random.Random(23 + p)
    for _ in range(20):
        dim = rng.randint(2, 5)
        vectors = [
            [rng.randint(-3, 3) if rng.random() < 0.7 else 0 for _ in range(dim)]
            for _ in range(dim + 2)
        ]
        unit = SpanBasis(field, dim + len(vectors))
        scaled = SpanBasis(field, dim + len(vectors))
        for m, v in enumerate(vectors):
            t = rng.choice([1, 2, 3, 5]) * rng.choice([1, -1])
            dep = unit.insert_tagged(tagged(v, m, dim), m, dim)
            assert scaled.insert_tagged(tagged(v, m, dim, t), m, dim) == dep
            assert scaled == unit
            if dep is not None:
                break
        # the dependency is the first one: v_0..v_{m-1} are independent
        assert gj.rank(field, vectors[:m], dim) == m
        if dep is not None:
            assert gj.rank(field, vectors[: m + 1], dim) == m
            combo = [sum(c * v[j] for c, v in zip(dep, vectors)) for j in range(dim)]
            assert not any(map(field.normalize, combo))
