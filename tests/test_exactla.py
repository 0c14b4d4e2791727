import random
import tracemalloc
from collections import Counter
from fractions import Fraction
from math import gcd, isqrt, lcm, prod

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from syzygy.exactla import GF, QQ, ExactMatrix, FieldSpec, closed_ranks, kernel_basis, rank
from syzygy import exactla
from syzygy.exactla import (_F64_SAFE, _GF_BLOCK, _f64_admits, _f64_fits, _gf_array,
                            _is_prime, _pivot_rows, _rank_gf_f64, _reduce_f64, _rref_gf)
from syzygy.exactla import _F32_SAFE, _carrier

from _oracles import (column, entry, exact_of, kernel_from_rref, nonzero_minor_exists,
                      rank_by_minors, rref_fraction, rref_mod_p, subspace_intersection_dim,
                      to_dense, zeros)


def test_fieldspec_validation():
    FieldSpec(0)
    FieldSpec(2)
    FieldSpec(101)
    FieldSpec(2**31 - 1)            # Mersenne prime
    with pytest.raises(ValueError):
        FieldSpec(4)
    with pytest.raises(ValueError):
        FieldSpec(2**31 + 11)
    with pytest.raises(ValueError):
        FieldSpec(-3)


def test_rank_examples():
    assert rank(zeros(0, 0), QQ) == 0
    assert rank(ExactMatrix.identity(2), GF(5)) == 2
    assert rank(ExactMatrix.from_rows([[1, 2], [2, 4]]), QQ) == 1


def test_kernel_examples():
    assert kernel_basis(ExactMatrix.identity(3), QQ) == ExactMatrix(3, 0)
    kb = kernel_basis(ExactMatrix.from_rows([[1, -1]]), QQ)
    assert kb.cols == 1 and entry(kb, 0, 0) == entry(kb, 1, 0) != 0
    assert kernel_basis(zeros(2, 3), GF(7)).cols == 3


def test_kernel_vectors_annihilate():
    rng = random.Random(3)
    for p in (0, 2, 101):
        f = FieldSpec(p)
        for _ in range(15):
            m = ExactMatrix.from_rows(
                [[rng.randint(-5, 5) for _ in range(rng.randint(1, 6))]
                 for _ in range(rng.randint(1, 6))][:1] * 1 or [[0]])
            rows = rng.randint(1, 5)
            cols = rng.randint(1, 5)
            m = ExactMatrix.from_rows([[rng.randint(-5, 5) for _ in range(cols)]
                                       for _ in range(rows)])
            k = kernel_basis(m, f)
            assert k.rows == cols
            assert rank(m @ k - zeros(rows, k.cols), f) == 0


def test_intersection_examples():
    e1, e2 = [1, 0], [0, 1]
    assert subspace_intersection_dim([e1], [e2], QQ) == 0
    assert subspace_intersection_dim([e1], [[1, 1], e2], QQ) == 1
    assert subspace_intersection_dim([e1, e2], [e1, e2], QQ) == 2
    with pytest.raises(ValueError):
        subspace_intersection_dim([[1, 0]], [[1, 0, 0]], QQ)


def test_rank_transpose_and_nullity():
    rng = random.Random(11)
    for _ in range(40):
        rows, cols = rng.randint(1, 7), rng.randint(1, 7)
        m = ExactMatrix.from_rows([[rng.randint(-4, 4) for _ in range(cols)]
                                   for _ in range(rows)])
        for f in (QQ, GF(2), GF(13)):
            r = rank(m, f)
            assert r == rank(m.transpose(), f)
            assert cols == r + kernel_basis(m, f).cols


def test_rank_vs_minor_oracle():
    rng = random.Random(5)
    for _ in range(25):
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        data = [[rng.randint(-6, 6) for _ in range(cols)] for _ in range(rows)]
        m = ExactMatrix.from_rows(data)
        rq = rank(m, QQ)
        assert rq == rank_by_minors(data)
        for p in (2, 3, 5, 101):
            rp = rank(m, GF(p))
            assert rp == rank_by_minors(data, modulus=p)
            assert rp <= rq
            # equality exactly when some maximal minor survives mod p
            assert (rp == rq) == (rq == 0 or nonzero_minor_exists(data, rq, p))


def test_fraction_entries_over_q():
    m = ExactMatrix.from_rows([[Fraction(1, 2), Fraction(1, 3)],
                               [Fraction(1, 5), Fraction(1, 1)]])
    assert rank(m, QQ) == 2
    m2 = ExactMatrix.from_rows([[Fraction(1, 2), Fraction(1, 4)],
                                [Fraction(2, 3), Fraction(1, 3)]])
    assert rank(m2, QQ) == 1


def _primes_descending_from(p, count):
    """The first `count` primes <= p, in descending order, by trial division."""
    out = []
    while len(out) < count:
        if all(p % d for d in range(2, isqrt(p) + 1)):
            out.append(p)
        p -= 1
    return out


def _prime_spy(monkeypatch, calls=None):
    """Record the primes that the char-0 loop ranks with, through
    `_rank_gf` or `_rref_gf`, each once in order of first use; `calls`,
    if given, receives every (engine, prime)."""
    primes = []
    for name in ("_rank_gf", "_rref_gf"):
        def spy(a, p, name=name, real=getattr(exactla, name)):
            if calls is not None:
                calls.append((name, p))
            if p not in primes:
                primes.append(p)
            return real(a, p)

        monkeypatch.setattr(exactla, name, spy)
    return primes


def test_char0_rank_survives_three_bad_primes(monkeypatch):
    # det = p1 p2 p3: full rank over Q, but rank 2 modulo each of the
    # first three primes of the sequence, so a fourth prime must settle it
    p1, p2, p3, p4 = _primes_descending_from(_P_MAX_F64, 4)
    data = [[p1 * p2, 0, 1], [0, p3, 1], [0, 0, 1]]
    assert rank_by_minors(data) == 3
    assert [rank(ExactMatrix.from_rows(data), GF(p)) for p in (p1, p2, p3, p4)] \
        == [2, 2, 2, 3]
    calls = []
    primes = _prime_spy(monkeypatch, calls)
    assert rank(ExactMatrix.from_rows(data), QQ) == 3
    assert primes == [p1, p2, p3, p4]
    # the first deficient prime takes both eliminations, the later ones
    # the RREF alone, and the fourth returns at its full rank
    assert calls == [("_rank_gf", p1)] + [("_rref_gf", q) for q in primes]


def test_char0_rank_deficient_stops_at_hadamard_bound(monkeypatch):
    # rank 2 with entries above 2^62.  Rows 0 and 1 are proportional mod
    # the first prime and mod the 11th, which is the last one the
    # Hadamard bound of this matrix asks for: both primes see rank 1
    seq = _primes_descending_from(_P_MAX_F64, 40)
    x = [2**63 + 1, 2**62 + 7, 5, 2**63 + 11]
    y = [3 * a + seq[0] * seq[10] * z for a, z in zip(x, (1, -2, 3, 0))]
    data = [x, y, [a + b for a, b in zip(x, y)], [2 * a - b for a, b in zip(x, y)]]
    assert rank_by_minors(data) == 2
    m = ExactMatrix.from_rows(data)
    assert rank(m, GF(seq[0])) == rank(m, GF(seq[10])) == 1
    # H^2: the product of the four squared row (column) norms
    h2 = min(prod(sum(v * v for v in vec) for vec in vecs)
             for vecs in (data, list(zip(*data))))
    assert prod(seq[:10]) ** 2 <= h2 < prod(seq[:11]) ** 2
    primes = _prime_spy(monkeypatch)
    assert rank(m, QQ) == 2
    assert primes == seq[:11]


def test_char0_rank_scales_its_rows_once(monkeypatch):
    # the 11-prime matrix of the test above: its rows are scaled to one
    # integer ExactMatrix, read as residues once per prime, instead of
    # one rebuild per prime
    seq = _primes_descending_from(_P_MAX_F64, 40)
    x = [2**63 + 1, 2**62 + 7, 5, 2**63 + 11]
    y = [3 * a + seq[0] * seq[10] * z for a, z in zip(x, (1, -2, 3, 0))]
    data = [x, y, [a + b for a, b in zip(x, y)], [2 * a - b for a, b in zip(x, y)]]
    scaled = []
    real = exactla._integer_rows

    def spy(m):
        scaled.append(m.shape)
        return real(m)

    monkeypatch.setattr(exactla, "_integer_rows", spy)
    primes = _prime_spy(monkeypatch)
    assert rank(ExactMatrix.from_rows(data), QQ) == 2
    assert scaled == [(4, 4)] and primes == seq[:11]


def test_char0_rank_never_densifies_a_full_rank_sparse_block():
    # a unit diagonal with two random entries in [-40, 40) below it in
    # each column: unitriangular, so of full rank over Q and mod every
    # prime.  The block stays an ExactMatrix (0.6 MB traced); as one
    # dense int64 block it would take n^2 * 8 = 32 MB
    n = 2000
    rng = np.random.default_rng(101)
    r, c, v = [np.arange(n)], [np.arange(n)], [np.ones(n, dtype=np.int64)]
    for col in range(n - 1):
        below = rng.choice(np.arange(col + 1, n), min(2, n - 1 - col), replace=False)
        r.append(below)
        c.append(np.full(below.size, col))
        v.append(rng.integers(-40, 40, below.size))
    m = ExactMatrix(n, n, tuple(map(np.concatenate, (r, c, v))))
    tracemalloc.start()
    try:
        got = rank(m, QQ)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == n
    assert peak < n * n * 8 / 4


@st.composite
def _q_matrices(draw):
    """Matrices over Q of planted rank <= k: rows are Fraction combinations
    of k base rows whose entries mix small Fractions and large integers."""
    m = draw(st.integers(1, 4))
    n = draw(st.integers(1, 4))
    k = draw(st.integers(0, min(m, n)))
    entry = st.one_of(
        st.integers(-3, 3),
        st.fractions(min_value=-5, max_value=5, max_denominator=7),
        st.integers(-2**70, 2**70),
        st.sampled_from((2**62 + 1, -(2**63) - 3, _P_MAX_F64)))
    base = [[draw(entry) for _ in range(n)] for _ in range(k)]
    coef = st.one_of(st.integers(-3, 3),
                     st.fractions(min_value=-3, max_value=3, max_denominator=5))
    rows = []
    for _ in range(m):
        cs = [draw(coef) for _ in range(k)]
        rows.append([sum((c * b[j] for c, b in zip(cs, base)), Fraction(0))
                     for j in range(n)])
    return rows, k


@settings(max_examples=80, deadline=None, derandomize=True)
@given(_q_matrices())
def test_char0_rank_matches_minor_oracle_differential(case):
    rows, k = case
    got = rank(ExactMatrix.from_rows(rows), QQ)
    assert got == rank_by_minors(rows) <= k


@st.composite
def _q_kernel_cases(draw):
    """The planted-rank matrices of `_q_matrices`, with zero rows and
    zero columns inserted."""
    rows, _ = draw(_q_matrices())
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(rows[0])))
        rows = [row[:at] + [0] + row[at:] for row in rows]
    for _ in range(draw(st.integers(0, 2))):
        rows.insert(draw(st.integers(0, len(rows))), [0] * len(rows[0]))
    return rows


@settings(max_examples=80, deadline=None, derandomize=True)
@given(_q_kernel_cases())
def test_q_kernel_matches_fraction_rref(rows):
    # each column is the Fraction RREF vector scaled by the lcm of its
    # denominators: integral, gcd 1 and positive at its free column
    got = kernel_basis(ExactMatrix.from_rows(rows), QQ)
    rref, pivots = rref_fraction(rows)
    want = kernel_from_rref(rref, pivots, len(rows[0]))
    free = [c for c in range(len(rows[0])) if c not in pivots]
    assert got.shape == (len(rows[0]), len(want))
    for j, (c, v) in enumerate(zip(free, want)):
        col = column(got, j)
        assert col == [x * lcm(*(y.denominator for y in v)) for x in v]
        assert all(type(x) is int for x in col)
        assert col[c] > 0 and gcd(*col) == 1


@settings(max_examples=80, deadline=None, derandomize=True)
@given(_q_kernel_cases())
def test_lifted_kernels_are_laid_out_canonical(rows):
    # `_kernel` wraps K's arrays without the validating constructor, so
    # they must already be what that constructor would make of them: each
    # K that `_lift` checks over Q, and the kernel over GF(p) of the rows
    # cleared of denominators
    m = ExactMatrix.from_rows(rows)
    kernels, real = [], exactla._kernel

    def spy(*args):
        kernels.append(real(*args))
        return kernels[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(exactla, "_kernel", spy)
        kernels.append(kernel_basis(m, QQ))
        for p in (2, 3, 101, 2**31 - 1):
            kernels.append(kernel_basis(exactla._integer_rows(m), GF(p)))
    assert len(kernels) >= 10
    for k in kernels:
        ref = ExactMatrix(k.rows, k.cols, (k.row, k.col, k.val))
        assert k == ref and k.val.dtype == ref.val.dtype


def test_q_kernel_skips_an_unlucky_pivot(monkeypatch):
    # mod q the 1x2 matrix [q 1] has pivot column 1, over Q column 0; the
    # kernel that q gives, e_0, fails M K = 0, so later primes decide
    q = _P_MAX_F64
    primes = []
    real = exactla._rref_gf

    def spy(a, p):
        primes.append(p)
        return real(a, p)

    monkeypatch.setattr(exactla, "_rref_gf", spy)
    # the RREF vector (-1/q, 1), cleared of its denominator
    assert kernel_basis(ExactMatrix.from_rows([[q, 1]]), QQ) == ExactMatrix.from_rows([[-1], [q]])
    assert primes[0] == q and len(primes) >= 2


def _hadamard_primes(data, seq):
    """How many primes of seq the Hadamard stop of `rank` takes on data."""
    full = min(len(data), len(data[0]))
    h2 = min(prod(sorted((sum(v * v for v in vec) for vec in vecs), reverse=True)[:full])
             for vecs in (data, list(zip(*data))))
    return next(k for k in range(1, len(seq) + 1) if prod(seq[:k]) ** 2 > h2)


def test_char0_rank_certified_by_a_kernel_of_several_primes(monkeypatch):
    # rank 1 with entries near 2^59, so the Hadamard stop takes 6 primes.
    # The kernel, -1/q1, -5/q1 and -7/q1 at column 0, needs 3 primes
    # besides q1, which puts the pivot at column 1 and must not join them
    seq = _primes_descending_from(_P_MAX_F64, 12)
    row = [seq[0], 1, 5, 7]
    data = [row, [(2**36 + 1) * v for v in row], [(2**36 + 3) * v for v in row]]
    assert rank_by_minors(data) == 1 and _hadamard_primes(data, seq) == 6
    primes = _prime_spy(monkeypatch)
    assert rank(ExactMatrix.from_rows(data), QQ) == 1
    assert primes == seq[:4]


def test_char0_rank_falls_back_to_hadamard_when_no_kernel_lifts(monkeypatch):
    # rank 2 with entries near 2^60 and int64: the kernel's entries are
    # 2 x 2 minors, about 2^121, and would need more primes than the
    # Hadamard stop, so every lift fails and the stop decides
    seq = _primes_descending_from(_P_MAX_F64, 20)
    rng = random.Random(7)
    x = [rng.randrange(2**59, 2**60) for _ in range(3)]
    y = [rng.randrange(2**59, 2**60) for _ in range(3)]
    data = [x, y, [a - b for a, b in zip(x, y)]]
    assert rank_by_minors(data) == 2
    primes = _prime_spy(monkeypatch)
    assert rank(ExactMatrix.from_rows(data), QQ) == 2
    assert primes == seq[:_hadamard_primes(data, seq)]


def test_annihilation_check_is_exact_past_int64():
    # 2^62 * 2 + 2^62 * 2 = 2^64 wraps to 0 in int64, so the check must
    # take another route; entries past int64 take it too
    block = ExactMatrix.from_rows([[2**62, 2**62]])
    assert block.val.dtype == np.int64
    assert not exactla._annihilates(block, ExactMatrix.from_rows([[2], [2]]))
    assert exactla._annihilates(block, ExactMatrix.from_rows([[2], [-2]]))
    big = ExactMatrix.from_rows([[2**70, 2**70 + 1]])
    assert exactla._annihilates(big, ExactMatrix.from_rows([[2**70 + 1], [-(2**70)]]))
    assert not exactla._annihilates(big, ExactMatrix.from_rows([[1], [0]]))


def test_gf_engines_agree():
    rng = random.Random(17)
    for p in (2, 3, 101, 2**31 - 1):
        for _ in range(10):
            rows, cols = rng.randint(1, 12), rng.randint(1, 12)
            m = ExactMatrix.from_rows([[rng.randrange(p) for _ in range(cols)]
                                       for _ in range(rows)])
            r64 = len(_rref_gf(_gf_array(m, p), p)[1])
            assert r64 == rank(m, GF(p))
            if _f64_admits(p):
                assert _rank_gf_f64(m, p) == r64


def test_gf_blocked_path_on_wide_matrices():
    # exceed the panel width so the trailing dgemm update actually runs
    rng = random.Random(23)
    p = 5
    rows, cols = 150, 310
    data = [[rng.randrange(p) for _ in range(cols)] for _ in range(rows)]
    m = ExactMatrix.from_rows(data)
    assert _rank_gf_f64(m, p) == len(_rref_gf(_gf_array(m, p), p)[1])
    # and with planted low rank
    basis = [[rng.randrange(p) for _ in range(cols)] for _ in range(7)]
    data = []
    for _ in range(rows):
        coeffs = [rng.randrange(p) for _ in range(7)]
        data.append([sum(cf * b[c] for cf, b in zip(coeffs, basis)) % p
                     for c in range(cols)])
    m = ExactMatrix.from_rows(data)
    r = _rank_gf_f64(m, p)
    assert r == len(_rref_gf(_gf_array(m, p), p)[1]) <= 7


def _largest_f64_prime() -> int:
    p = isqrt(_F64_SAFE // _GF_BLOCK) + 1
    while not (_f64_admits(p) and _is_prime(p)):
        p -= 1
    return p


_P_MAX_F64 = _largest_f64_prime()


def _planted(rng, m, n, r, p):
    """Random m x n matrix mod p of rank <= r (sum of r outer products)."""
    u = rng.integers(0, p, (m, r))
    v = rng.integers(0, p, (r, n))
    a = np.zeros((m, n), dtype=np.int64)
    for i in range(r):                      # reduce each product: no overflow
        a = (a + np.outer(u[:, i], v[i]) % p) % p
    return a


def test_f64_predicate_edge():
    assert _f64_admits(_P_MAX_F64) and _f64_admits(2) and _f64_admits(197)
    assert not _f64_admits(2**31 - 1)
    # at the edge one pivot already forces a bulk reduction before the
    # next panel
    assert not _f64_fits(_P_MAX_F64 - 1 + (_P_MAX_F64 - 1) ** 2, _GF_BLOCK, _P_MAX_F64)
    # primes below 200 need none within 10^9 pivots
    assert _f64_fits(196 + 10**9 * 196 ** 2, _GF_BLOCK, 197)


def test_reduce_f64_balanced_and_exact():
    rng = random.Random(47)
    lim = _F64_SAFE - 1
    for p in (2, 3, 5, 197, 65521, _P_MAX_F64):
        xs = [rng.randrange(-lim, lim + 1) for _ in range(2000)]
        q = lim // p
        xs += [lim, -lim, 0, 1, -1, q * p, -q * p, q * p + p // 2, q * p - p // 2,
               -(q * p + p // 2), (q - 1) * p + (p + 1) // 2]
        x = np.array(xs, dtype=np.float64)
        _reduce_f64(x, p)
        for before, after in zip(xs, x.tolist()):
            assert after == int(after) and abs(after) <= (p + 1) // 2
            assert (before - int(after)) % p == 0


@st.composite
def _gf_matrices(draw):
    """A matrix mod p of planted rank <= r, optionally with a band of zero
    columns wider than a panel, spanning up to three panels."""
    p = draw(st.sampled_from((2, 3, 5, 101, 197, 65521, _P_MAX_F64)))
    m = draw(st.integers(1, 3 * _GF_BLOCK))
    n = draw(st.integers(1, 3 * _GF_BLOCK))
    r = draw(st.integers(0, min(m, n)))
    a = _planted(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), m, n, r, p)
    z0 = draw(st.integers(0, n))
    a[:, z0:z0 + draw(st.integers(0, 2 * _GF_BLOCK))] = 0
    return a, p, r


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_gf_matrices())
def test_gf_f64_matches_int64_differential(case):
    a, p, r = case
    got = _rank_gf_f64(exact_of(a), p)
    assert got == len(_rref_gf(a.copy(), p)[1])
    assert got <= r


@st.composite
def _rref_cases(draw, primes=(2, 3, 5, 101, _P_MAX_F64, 2**31 - 1)):
    """Integer rows for the int64 RREF: 0 rows or 0 columns, tall and wide
    shapes, duplicated and scaled rows, and entries of either sign up to
    p in magnitude, p - 1 among them, so that at p = 2^31 - 1 the
    products reach (p - 1)^2 ~ 2^62.  Only rows of the first draw are
    scaled, by at most p - 1, so every entry stays below p^2 < 2^62 in
    magnitude, within int64."""
    p = draw(st.sampled_from(primes))
    m = draw(st.integers(0, 10))
    n = draw(st.integers(0, 10))
    entry = st.one_of(st.just(0), st.integers(-p, p), st.integers(p - 3, p - 1))
    rows = [[draw(entry) for _ in range(n)] for _ in range(m)]
    drawn = list(rows)
    for _ in range(draw(st.integers(0, 3)) if rows else 0):
        src = drawn[draw(st.integers(0, len(drawn) - 1))]
        f = draw(st.integers(1, p - 1))
        rows.insert(draw(st.integers(0, len(rows))), [f * v for v in src])
    return rows, n, p


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_rref_cases())
def test_rref_gf_matches_list_oracle(case):
    rows, n, p = case
    a = np.array(rows, dtype=np.int64).reshape(len(rows), n)
    got, pivots = _rref_gf(a, p)
    want, want_pivots = rref_mod_p(rows, p)
    assert pivots == want_pivots
    assert got.shape == (len(rows), n) and got.tolist() == want


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_rref_cases((2, 3, 101, 2**31 - 1)))
def test_gf_kernel_matches_list_oracle(case):
    # column j is the RREF kernel vector of free column j in residues
    rows, n, p = case
    got = kernel_basis(exact_of(np.array(rows, dtype=object).reshape(len(rows), n)), GF(p))
    want = kernel_from_rref(*rref_mod_p(rows, p), n)
    assert got.shape == (n, len(want))
    assert [column(got, j) for j in range(got.cols)] == [[x % p for x in v] for v in want]


def test_rank_above_the_f64_range_takes_the_rref(monkeypatch):
    p = 2**31 - 1
    calls = []
    real = exactla._rref_gf

    def spy(a, q):
        calls.append((a.shape, q))
        return real(a, q)

    def f64(a, q):
        raise AssertionError("float64 engine called above its prime range")

    monkeypatch.setattr(exactla, "_rref_gf", spy)
    monkeypatch.setattr(exactla, "_rank_gf_f64", f64)
    rng = random.Random(67)
    rows = [[rng.randrange(p) for _ in range(6)] for _ in range(4)]
    rows.insert(2, [(2 * a + (p - 3) * b) % p for a, b in zip(rows[0], rows[3])])
    assert rank(ExactMatrix.from_rows(rows), GF(p)) == rank_by_minors(rows, p) == 4
    assert calls == [((5, 6), p)]


def test_gf_f64_zero_and_pivotless_panels():
    rng = np.random.default_rng(41)
    p, B = 5, _GF_BLOCK
    for m, n in ((5 * B, 4 * B), (B + 5, 4 * B), (2 * B, 4 * B)):
        a = rng.integers(0, p, (m, n))
        a[:, :B] = 0                        # first panel all zero
        a[:, 2 * B:3 * B] = 0               # an all-zero panel mid-matrix
        # copies of earlier columns: the last panel finds no pivot
        a[:, 3 * B:] = a[:, B:2 * B]
        for b in (a, a[:4], a[:, :B + 3]):
            assert _rank_gf_f64(exact_of(b), p) == len(_rref_gf(b.copy(), p)[1])
    assert _rank_gf_f64(ExactMatrix(B + 1, 3 * B), p) == 0


def test_gf_f64_bulk_reduction_at_largest_prime(monkeypatch):
    p = _P_MAX_F64
    bulk = []

    def spy(x, q):
        bulk.append(x.ndim == 2)
        _reduce_f64(x, q)

    monkeypatch.setattr(exactla, "_reduce_f64", spy)
    rng = np.random.default_rng(43)
    B = _GF_BLOCK
    # planted rank over many panels: without the bulk reductions typical
    # entries pass 2^53 after ~500 pivots, and a rounded entry raises the rank
    for m, n, r in ((18 * B, 17 * B, 16 * B + 8), (5 * B + 3, 9 * B, 4 * B)):
        a = _planted(rng, m, n, r, p)
        a[:, 1] = p - 1                     # entries of the largest magnitude
        bulk.clear()
        assert _rank_gf_f64(exact_of(a), p) == len(_rref_gf(a.copy(), p)[1])
        assert sum(bulk) >= r // B - 1


def test_gf_f64_row_slabs_match_one_slab(monkeypatch):
    # slabs of a few rows: the trailing updates and, at the largest
    # prime, the bulk reductions run slab by slab, and together the
    # slabs reduce exactly the cells that one slab does
    rng = np.random.default_rng(59)
    B = _GF_BLOCK
    cases = [(5, _planted(rng, 3 * B + 5, 5 * B, 2 * B + 3, 5)),
             (_P_MAX_F64, _planted(rng, 18 * B, 17 * B, 16 * B + 8, _P_MAX_F64))]
    bulk = []

    def spy(x, q):
        if x.ndim == 2:
            bulk.append(x.size)
        _reduce_f64(x, q)

    def run():
        bulk.clear()
        return [_rank_gf_f64(exact_of(a), p) for p, a in cases], sum(bulk)

    monkeypatch.setattr(exactla, "_reduce_f64", spy)
    want, cells = run()                     # every block fits one slab
    assert want == [len(_rref_gf(a.copy(), p)[1]) for p, a in cases] and cells
    monkeypatch.setattr(exactla, "_SLAB_CELLS", 7 * B)
    assert [j - i for i, j in exactla._row_slabs(2, 12, B)] == [7, 3]
    assert [j - i for i, j in exactla._row_slabs(0, 3, 9 * B)] == [1, 1, 1]
    for slab in (7 * B, 64 * B):
        monkeypatch.setattr(exactla, "_SLAB_CELLS", slab)
        assert run() == (want, cells)


@st.composite
def _blocked_gf_matrices(draw):
    """Matrices mod p over three or more column blocks of the float64
    engine: it cuts n columns into ceil(n / W) equal blocks, W = 256 for
    these primes up to 65521 and 32 at _P_MAX_F64.  Shapes are wide,
    tall (rank <= 48), or wide with rows that run out in the second
    block (full row rank).  One whole block may be zero or repeat the
    block before it, so that it has no pivot."""
    p = draw(st.sampled_from((2, 3, 5, 101, 197, 65521, _P_MAX_F64)))
    big = 32 if p == _P_MAX_F64 else 256
    n = draw(st.integers(2 * big + 1, 900 if big > 32 else 400))
    width = -(-n // -(-n // big))
    shape = draw(st.sampled_from(("wide", "tall", "rows run out")))
    if shape == "wide":
        m = draw(st.integers(1, 80))
        r = draw(st.integers(0, m))
    elif shape == "tall":
        m = draw(st.integers(n + 1, n + 40))
        r = draw(st.integers(0, 48))
    else:
        m = r = draw(st.integers(width + 1, width + 40))
    # rank <= r; the int64 product cannot overflow: r (p - 1)^2 < 2^63
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = rng.integers(0, p, (m, r)) @ rng.integers(0, p, (r, n)) % p
    b0 = draw(st.integers(0, (n - 1) // width)) * width
    b1 = min(b0 + width, n)
    band = draw(st.sampled_from(("none", "zero", "repeat")))
    if band == "zero" or (band == "repeat" and not b0):
        a[:, b0:b1] = 0
    elif band == "repeat":
        a[:, b0:b1] = a[:, b0 - width:b1 - width]
    return a, p, r


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_blocked_gf_matrices())
def test_gf_f64_blocks_match_the_echelon_forms(case):
    a, p, r = case
    got = _rank_gf_f64(exact_of(a), p)
    assert got == len(_rref_gf(a.copy(), p)[1]) <= r
    if a.shape[0] <= 48:                    # small enough for plain lists
        assert got == len(rref_mod_p(a.tolist(), p)[1])


def test_gf_f64_pivot_rows_are_reduced_before_the_product():
    # p = 65521, blocks of 256.  Block 0 adds k h^2 (~2^37) to every
    # trailing entry of the rows G1.  In block 1 the rows G2 are h times
    # the sum of G1's, so their coefficients are all -h, and each entry
    # of their product sums k terms h (k h^2), ~2^59: inexact unless
    # G1's trailing entries are reduced first.  G2 then vanishes, and
    # the rank is 2k.
    p, W, k, s = 65521, 256, 128, 16
    h = (p - 1) // 2
    c = k * h * h % p
    a = np.zeros((2 * k + s, 3 * W), dtype=np.int64)
    g0, g1, g2 = slice(0, k), slice(k, 2 * k), slice(2 * k, 2 * k + s)
    a[g0, :k] = np.eye(k, dtype=np.int64)
    a[g0, W:] = -h
    a[g1, :k] = h
    a[g1, W:W + k] = np.eye(k, dtype=np.int64)
    a[g1, 2 * W:] = -h
    a[g2, W:2 * W] = h * k * c
    a[g2, W:W + k] += h
    a[g2, 2 * W:] = h * k * (c - h)
    a %= p
    assert _rank_gf_f64(exact_of(a), p) == len(_rref_gf(a.copy(), p)[1]) == 2 * k


def test_gf_f64_bulk_reduction_before_every_replay_at_largest_prime(monkeypatch):
    # at the largest prime one block of 32 pivots fills the bound, so
    # block b reduces its rows from 32 j in bulk before it replays block
    # j, for each 1 <= j < b, and its rows from 32 b before its own
    # search; the rank is full after block 6, and block 7 is never read
    p, B = _P_MAX_F64, _GF_BLOCK
    bulk = Counter()

    def spy(x, q):
        if x.ndim == 2 and x.base is not None:      # a view of the block, not a copy
            bulk[x.shape] += 1
        _reduce_f64(x, q)

    monkeypatch.setattr(exactla, "_reduce_f64", spy)
    a = np.random.default_rng(73).integers(0, p, (200, 8 * B))
    assert _rank_gf_f64(exact_of(a), p) == 200        # random: full rank
    assert bulk == Counter({(200 - B * j, B): 7 - j for j in range(1, 7)})


def test_gf_f64_temporaries_stay_below_the_matrix():
    # its block copies, the pivot rows' trailing entries, the coefficients
    # and one row slab of the product stay well below the 38 MB matrix:
    # a slab must not hold the whole trailing block
    a = np.random.default_rng(71).integers(0, 5, (2000, 2400))
    src = exact_of(a)
    tracemalloc.start()
    try:
        got = _rank_gf_f64(src, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == 2000                      # random mod 5: full rank
    assert peak < a.nbytes / 2


def test_large_sparse_matrix_takes_the_dense_engine(monkeypatch):
    # 100,000 nonzeros at density 4.8%.  A dict-of-rows elimination is
    # 30-65x slower than the dense engine on such shapes, so one dense
    # float64 rank must serve it.  The last 10 rows are multiples of the
    # first 10, so the rank is 190.
    rng = random.Random(53)
    p, rows, cols = 7, 200, 10500
    ent = {}
    for r in range(rows - 10):
        for c in rng.sample(range(cols), 500):
            ent[(r, c)] = rng.randrange(1, p)
    for (r, c), v in list(ent.items()):
        if r < 10:
            ent[(rows - 10 + r, c)] = 3 * v % p
    m = ExactMatrix(rows, cols, ent)
    assert m.nnz == 100_000 and m.nnz / (rows * cols) < 0.05
    calls = []

    def spy(a, q):
        calls.append(a.shape)
        return _rank_gf_f64(a, q)

    monkeypatch.setattr(exactla, "_rank_gf_f64", spy)
    got = rank(m, GF(p))
    assert calls == [(rows, cols)]
    assert got == len(_rref_gf(_gf_array(m, p), p)[1]) == rows - 10


# The float32 block width W of each prime below: the widest multiple of
# 32 up to 256 with (p - 1) + W (p - 1)^2 < 2^22
_F32_WIDTH = {2: 256, 3: 256, 5: 256, 101: 256, 197: 96, 199: 96}


def test_f32_predicate_edge():
    assert _carrier(2) is _carrier(5) is _carrier(199) is np.float32
    assert _carrier(211) is _carrier(359) is _carrier(367) is np.float64
    assert _carrier(_P_MAX_F64) is np.float64
    # float32 needs blocks of 96 columns: 199 has them, 211 only 64
    assert _f64_fits(198, 96, 199, _F32_SAFE)
    assert not _f64_fits(210, 96, 211, _F32_SAFE)
    assert _f64_fits(210, 64, 211, _F32_SAFE)
    # float32 alone would hold one panel up to 359, not at 367
    assert _f64_fits(358, _GF_BLOCK, 359, _F32_SAFE)
    assert not _f64_fits(366, _GF_BLOCK, 367, _F32_SAFE)
    # at 199, 11 pivots force a bulk reduction before the next 96 columns
    assert _f64_fits(198 + 10 * 198**2, 96, 199, _F32_SAFE)
    assert not _f64_fits(198 + 11 * 198**2, 96, 199, _F32_SAFE)
    for p, w in _F32_WIDTH.items():
        assert _f64_fits(p - 1, w, p, _F32_SAFE)
        assert w == 256 or not _f64_fits(p - 1, w + _GF_BLOCK, p, _F32_SAFE)


def test_reduce_f64_balanced_and_exact_in_float32():
    rng = random.Random(83)
    lim = _F32_SAFE - 1
    for p in (2, 3, 5, 7, 11, 101, 127, 131, 197, 331, 359):
        q = lim // p
        xs = list(range(-lim, -lim + 2000)) + list(range(lim - 2000, lim + 1))
        xs += list(range(-2000, 2001)) + [rng.randrange(-lim, lim + 1) for _ in range(4000)]
        xs += [q * p, -q * p, q * p + p // 2, q * p - p // 2, -(q * p + p // 2),
               (q - 1) * p + (p + 1) // 2]
        x = np.array(xs, dtype=np.float32)
        assert x.astype(np.int64).tolist() == xs        # every input is exact
        _reduce_f64(x, p)
        assert x.dtype == np.float32
        after = x.astype(np.int64)
        assert (after == x).all() and np.abs(after).max() <= (p + 1) // 2
        assert not ((np.array(xs) - after) % p).any()


@st.composite
def _blocked_f32_matrices(draw):
    """Residue matrices for the float32 engine over three or more column
    blocks of its width W (`_F32_WIDTH`), as `_blocked_gf_matrices`:
    wide, tall (rank <= 48), or wide with rows that run out in the second
    block, and one whole block zero or a repeat of the block before it.
    At 199 the blocks are 96 wide, and 11 pivots fill the bound."""
    p = draw(st.sampled_from(tuple(_F32_WIDTH)))
    big = _F32_WIDTH[p]
    n = draw(st.integers(2 * big + 1, 900 if big > 96 else 400))
    if p == 199:                            # blocks of exactly 96 columns
        n = -(-n // big) * big
    width = -(-n // -(-n // big))
    shape = draw(st.sampled_from(("wide", "tall", "rows run out")))
    if shape == "wide":
        m = draw(st.integers(1, 80))
        r = draw(st.integers(0, m))
    elif shape == "tall":
        m = draw(st.integers(n + 1, n + 40))
        r = draw(st.integers(0, 48))
    else:
        m = r = draw(st.integers(width + 1, width + 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = rng.integers(0, p, (m, r)) @ rng.integers(0, p, (r, n)) % p
    b0 = draw(st.integers(0, (n - 1) // width)) * width
    b1 = min(b0 + width, n)
    band = draw(st.sampled_from(("zero", "repeat")))
    if band == "zero" or not b0:
        a[:, b0:b1] = 0
    else:
        a[:, b0:b1] = a[:, b0 - width:b1 - width]
    return a, p, r, width


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_blocked_f32_matrices())
def test_gf_f32_blocks_match_the_echelon_forms(case):
    a, p, r, width = case
    m, n = a.shape
    src = exact_of(a)
    dtypes, bulk = [], []

    def spy(x, q):
        dtypes.append(x.dtype)
        if x.ndim == 2 and x.base is not None:
            bulk.append(x.shape)            # a view of the block, not a copy: a bulk reduction
        _reduce_f64(x, q)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(exactla, "_reduce_f64", spy)
        got = _rank_gf_f64(src, p)
    pivots = _rref_gf(a.copy(), p)[1]
    assert got == len(pivots) <= r
    if m <= 48:                             # small enough for plain lists
        assert got == len(rref_mod_p(a.tolist(), p)[1])
    assert dtypes and all(d == np.float32 for d in dtypes)
    if p == 199:
        # the engine takes the short side as rows and cuts the long one
        # into blocks; 11 pivots since the last bulk reduction leave no
        # room for a search over 96 columns, and 107 none at all, so a
        # block reduces its rows from r_j in bulk before it replays block
        # j where the bound requires, and its rows from r before its search
        e = a if m <= n else a.T
        em, en = e.shape
        ew = -(-en // -(-en // width))
        per_block = np.bincount(np.array(_rref_gf(e.copy(), p)[1], dtype=np.int64) // ew,
                                minlength=-(-en // ew)).tolist()
        want, done, r = [], [], 0
        for b, k in enumerate(per_block):
            w = min(ew, en - b * ew)
            since = 0
            for rj, kj in done:
                if not _f64_fits(198 + since * 198**2, kj, p, _F32_SAFE):
                    want.append((em - rj, w))
                    since = 0
                since += kj
            if not _f64_fits(198 + since * 198**2, w, p, _F32_SAFE):
                want.append((em - r, w))
            if k and b + 1 < len(per_block) and r + k < em:
                done.append((r, k))
            r += k
            if r == em:
                break
        assert bulk == want


def test_rank_hands_the_engine_its_carrier(monkeypatch):
    # the engine eliminates in the carrier of p: float32 up to 199, float64 above
    dtypes = []

    def spy(C, w, q):
        dtypes.append((q, C.dtype))
        return _pivot_rows(C, w, q)

    monkeypatch.setattr(exactla, "_pivot_rows", spy)
    m = ExactMatrix.from_rows([[1, 2, 3], [4, 5, 6], [7, 8, 10]])
    for p in (5, 199, 211, 359, 367):
        assert rank(m, GF(p)) == 3
    assert dtypes == [(5, np.float32), (199, np.float32), (211, np.float64),
                      (359, np.float64), (367, np.float64)]
    dtypes.clear()
    assert rank(m, QQ) == 3
    assert [d for _, d in dtypes] == [np.float64]


def test_rank_mod_small_prime_stays_below_the_f64_dense_size():
    # the float32 carrier and the scattered residues: the dense array is
    # half the float64 one, and neither the scatter nor the engine's
    # temporaries make up the difference
    rows, cols = 2000, 2400
    a = np.random.default_rng(71).integers(0, 5, (rows, cols))
    r, c = np.nonzero(a)
    m = ExactMatrix(rows, cols, (r, c, a[r, c]))
    del a, r, c
    tracemalloc.start()
    try:
        got = rank(m, GF(5))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == rows                      # random mod 5: full rank
    # 29.3 MB here and 69.2 MB with float64 residues: the float64 dense
    # size (38.4 MB) separates the two and leaves 9 MB for allocator noise
    assert peak < rows * cols * 8


def test_graded_rank_matches_plain_rank():
    rng = random.Random(31)
    # block-diagonal by construction: entries only within matching weights
    row_w = [rng.randint(0, 3) for _ in range(20)]
    col_w = [rng.randint(0, 3) for _ in range(15)]
    ent = {}
    for _ in range(60):
        r, c = rng.randrange(20), rng.randrange(15)
        if row_w[r] == col_w[c]:
            ent[(r, c)] = rng.randint(-3, 3)
    m = ExactMatrix(20, 15, ent)
    for f in (QQ, GF(3)):
        assert closed_ranks([m], f, [col_w, row_w]) == (rank(m, f),)


def test_graded_rank_rejects_ungraded():
    m = ExactMatrix.from_rows([[1, 1], [0, 1]])
    with pytest.raises(ValueError):
        closed_ranks([m], QQ, [[0, 1], [0, 1]])


def test_matrix_algebra():
    a = ExactMatrix.from_rows([[1, 2], [3, 4]])
    b = ExactMatrix.from_rows([[0, 1], [1, 0]])
    assert to_dense(a @ b) == [[2, 1], [4, 3]]
    assert (a - a).is_zero()
    assert a.kron(ExactMatrix.identity(2)).shape == (4, 4)
    assert ExactMatrix.hstack([a, b]).shape == (2, 4)
    with pytest.raises(ValueError):
        ExactMatrix(2, 2, {(2, 0): 1})


@pytest.mark.parametrize("modulus", [1_000_003, 8_388_593 * 8_388_587])
def test_rational_reconstruction_across_columns(modulus):
    # columns of denominators da, 7, da, da / 2: the second is coprime to
    # the first and 7 da passes the bound, so it lifts only when started
    # from 1 again; the others lift from the denominator before them
    bound = isqrt((modulus - 1) // 2)
    da = next(d for d in range(bound // 12 * 6, 0, -6) if d % 7)
    cols = [[Fraction(a, d) for a in (1, -2, 3, 0)] for d in (da, 7, da, da // 2)]
    x = np.array([[a.numerator * pow(a.denominator, -1, modulus) % modulus for a in col]
                  for col in cols], dtype=np.int64).T
    num, den = exactla._rational(x, modulus)
    assert 0 < den.min() and max(den.tolist()) <= bound
    assert max(map(abs, num.ravel().tolist())) <= bound
    assert [[Fraction(int(v), int(d)) for v in col] for col, d in zip(num.T, den)] == cols
    # one column with both denominators has none below the bound
    both = np.array([[x[0, 0]], [x[0, 1]]], dtype=np.int64)
    assert exactla._rational(both, modulus) is None


@st.composite
def _one_entry_columns(draw):
    """A matrix with at most one entry per column and a prime: rows drawn
    with repeats, entries that may be multiples of p or past int64."""
    p = draw(st.sampled_from([2, 3, 8_388_593, 2**31 - 1]))
    m, n = draw(st.integers(1, 5)), draw(st.integers(1, 6))
    value = st.one_of(st.integers(-5, 5), st.integers(-3, 3).map(lambda k: k * p),
                      st.integers(2**63, 2**70), st.integers(-2**70, -2**63 - 1))
    entries = {}
    for c in range(n):
        if draw(st.booleans()):
            entries[draw(st.integers(0, m - 1)), c] = draw(value)
    return ExactMatrix(m, n, entries), p


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_one_entry_columns())
def test_one_entry_columns_rank_as_the_dense_engines(case):
    m, p = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(exactla, "_markowitz", lambda *a: pytest.fail("took the front end"))
        got = exactla._rank_gf(m, p)
    if _f64_admits(p):
        assert got == _rank_gf_f64(m, p)
    else:
        assert got == len(_rref_gf(_gf_array(m, p), p)[1])
    assert got == rank_by_minors(to_dense(m), p)


def test_one_entry_columns_reject_a_fraction():
    m = ExactMatrix.from_rows([[Fraction(1, 2), 0], [0, 1]])
    with pytest.raises(TypeError):
        exactla._rank_gf(m, 5)
