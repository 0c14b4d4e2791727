"""The sparse front end of the GF(p) rank (`exactla._markowitz`): its
pivots span a diagonal block, and pivots plus the dense rank of the
Schur complement it leaves equal the dense engines' rank."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from syzygy import exactla
from syzygy.exactla import (GF, _MARKOWITZ_MAX, ExactMatrix, _f64_admits, _gf_array,
                            _markowitz, _rank_gf, _rank_gf_f64, _round_pivots, _rref_gf,
                            graded_rank)
from syzygy.tangent import delta2_map

from _oracles import exact_of

# the least prime above 2^23: past the float engine, so its core takes
# the int64 RREF
_P_RREF = 8_388_617


def _dense_rank(m, p):
    """The rank of the dense engine that `_rank_gf` hands its core to."""
    if _f64_admits(p):
        return _rank_gf_f64(m, p)
    return len(_rref_gf(_gf_array(m, p), p)[1])


@st.composite
def _sparse_planted(draw):
    """An integer matrix of planted rank <= k mod p, min dimension 63, 64
    or 65 (the gate is 64): each row a multiple of one sparse base row
    (proportional rows) or a combination of two.  Some entries get
    multiples of p added, so nonzero entries vanish mod p; some get
    multiples of p 2^64, which puts them past int64.  A dense case is a
    sum of k random outer products.  Given as an ExactMatrix, built from
    the nonzero entries or from every entry, the constructor dropping
    the zeros; and as the dense integer array, for the reference."""
    p = draw(st.sampled_from((2, 3, 101, 199, 211, _P_RREF)))
    small = draw(st.sampled_from((63, 64, 65)))
    big = draw(st.integers(small, 3 * small))
    m, n = (small, big) if draw(st.booleans()) else (big, small)
    k = draw(st.integers(0, small))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.integers(0, 9)) == 0:                    # dense
        a = rng.integers(0, p, (m, k)) @ rng.integers(0, p, (k, n)) % p
    else:
        base = np.zeros((max(k, 1), n), dtype=np.int64)
        for row in base[:k]:
            at = rng.choice(n, draw(st.integers(1, 3)), replace=False)
            row[at] = rng.integers(1, p, at.size)
        pick = rng.integers(0, max(k, 1), (m, 2))
        coef = rng.integers(0, p, (m, 2)) * (rng.random((m, 1)) < 0.5)    # half one base row
        coef[:, 0] = rng.integers(1, p, m)
        a = (coef[:, :1] * base[pick[:, 0]] % p + coef[:, 1:] * base[pick[:, 1]] % p) % p
    vanish = rng.random((m, n)) < draw(st.sampled_from((0.0, 0.005)))
    a = a + p * rng.integers(1, 4, (m, n)) * vanish
    if draw(st.booleans()):
        a = a.astype(object)
        past = rng.random((m, n)) < 0.01
        a[past] += p * 2**64
    if draw(st.booleans()):
        return exact_of(a), a, p, k
    r, c = np.indices(a.shape).reshape(2, -1)
    return ExactMatrix(m, n, (r, c, a[r, c])), a, p, k


@settings(max_examples=120, deadline=None, derandomize=True)
@given(_sparse_planted())
def test_front_end_matches_the_echelon_rank(case):
    x, a, p, k = case
    want = len(_rref_gf((a % p).astype(np.int64), p)[1])
    assert _rank_gf(x, p) == want <= k
    pivots, core = _markowitz(x, p)
    if min(a.shape) < 64:
        assert core is x and not pivots
    assert pivots + _dense_rank(core, p) == want


def _sparse_coordinates(rng, m, n, per_col, p):
    """The entries of an m x n matrix with per_col random nonzeros (mod
    p) in each column, in column-major order."""
    c = np.repeat(np.arange(n), per_col)
    r = np.concatenate([np.sort(rng.choice(m, per_col, replace=False)) for _ in range(n)])
    return r, c, rng.integers(1, p, r.size)


def test_round_pivots_span_a_diagonal_block():
    # every accepted pivot is an entry; no pivot row has an entry in
    # another pivot column, so the pivot block is diagonal; each pivot's
    # Markowitz cost is within the bound
    rng = np.random.default_rng(5)
    found = 0
    for m, n, per_col in ((80, 70, 1), (100, 100, 3), (64, 200, 2), (300, 90, 5), (120, 120, 9)):
        r, c, _ = _sparse_coordinates(rng, m, n, per_col, 7)
        a = np.zeros((m, n), dtype=bool)
        a[r, c] = True
        pr, pc, live = _round_pivots(r, c, m, n)
        assert live == min(np.unique(r).size, np.unique(c).size)
        assert np.unique(pr).size == pr.size and np.unique(pc).size == pc.size
        assert np.array_equal(a[np.ix_(pr, pc)], np.eye(pr.size, dtype=bool))
        cost = (a[pr].sum(axis=1) - 1) * (a[:, pc].sum(axis=0) - 1)
        assert (cost <= _MARKOWITZ_MAX).all()
        found += pr.size
    assert found > 100


def test_front_end_stops_on_inputs_it_cannot_win_on():
    rng = np.random.default_rng(9)
    p = 101
    # below the gate: min dimension 63, or more than one entry in 16
    for m, n, per_col in ((63, 500, 2), (200, 200, 13)):
        r, c, v = _sparse_coordinates(rng, m, n, per_col, p)
        x = ExactMatrix(m, n, (r, c, v))
        assert _markowitz(x, p) == (0, x)
    # one entry per column: every column offers, and each row's least
    # key is taken, so the first round pivots on every live row
    r, c, v = _sparse_coordinates(rng, 200, 400, 1, p)
    x = ExactMatrix(200, 400, (r, c, v))
    pivots, core = _markowitz(x, p)
    assert pivots == np.unique(r).size and core.shape == (0, 0)


def test_every_delta2_weight_block_ranks_as_the_dense_engines(monkeypatch):
    # every weight block of delta2(g, i), g <= 12, with no flip saving; a
    # block that the front end takes no pivot on goes to the dense engine
    # as it is, so only the blocks it pivots on are ranked again
    real, front = exactla._rank_gf, exactla._markowitz
    took, checked = [], []

    def markowitz(m, p):
        pivots, core = front(m, p)
        took.append(pivots)
        return pivots, core

    def rank_gf(m, p):
        got = real(m, p)
        if took.pop():
            assert got == _dense_rank(m, p), (m.shape, p)
            checked.append(p)
        return got

    monkeypatch.setattr(exactla, "_markowitz", markowitz)
    monkeypatch.setattr(exactla, "_rank_gf", rank_gf)
    primes = (3, 5, 101, _P_RREF)
    for g in range(3, 13):
        for i in range(1, g - 1):
            mp = delta2_map(g, i)
            for p in primes:
                graded_rank(mp.matrix, GF(p), mp.target.weights, mp.source.weights)
    assert not took and all(checked.count(p) > 100 for p in primes)
