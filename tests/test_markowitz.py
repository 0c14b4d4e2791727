"""The sparse front end of the GF(p) rank (`exactla._markowitz`): its
pivots span a diagonal block, and pivots plus the dense rank of the
Schur complement it leaves equal the dense engines' rank, for one
matrix and for each block of a block-diagonal union, whose blocks share
the rounds."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from syzygy import exactla
from syzygy.exactla import (GF, _MARKOWITZ_MAX, ExactMatrix, _f64_admits, _gf_array,
                            _markowitz, _rank_gf, _rank_gf_f64, _ranks_gf, _round_pivots,
                            _rref_gf, closed_ranks)
from syzygy.tangent import delta2_map

from _oracles import exact_of, rref_mod_p, to_dense

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
    [(pivots, core)] = _markowitz([x], p)
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
        pr, pc, live_r, live_c = _round_pivots(r, c, m, n)
        assert np.array_equal(live_r, np.unique(r)) and np.array_equal(live_c, np.unique(c))
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
        assert _markowitz([x], p) == [(0, x)]
    # one entry per column: every column offers, and each row's least
    # key is taken, so the first round pivots on every live row
    r, c, v = _sparse_coordinates(rng, 200, 400, 1, p)
    x = ExactMatrix(200, 400, (r, c, v))
    [(pivots, core)] = _markowitz([x], p)
    assert pivots == np.unique(r).size and core.shape == (0, 0)


def test_every_delta2_weight_block_ranks_as_the_dense_engines(monkeypatch):
    # every weight block of delta2(g, i), g <= 12, with no flip saving; a
    # block that the front end takes no pivot on goes to the dense engine
    # as it is, so only the blocks it pivots on are ranked again
    real, front = exactla._ranks_gf, exactla._markowitz
    pivoted, checked = set(), []

    def markowitz(blocks, p):
        out = front(blocks, p)
        pivoted.update(id(m) for m, (k, _) in zip(blocks, out) if k)
        return out

    def ranks_gf(blocks, p):
        blocks = list(blocks)
        got = real(blocks, p)
        for m, r in zip(blocks, got):
            if id(m) in pivoted:
                pivoted.remove(id(m))
                assert r == _dense_rank(m, p), (m.shape, p)
                checked.append(p)
        return got

    monkeypatch.setattr(exactla, "_markowitz", markowitz)
    monkeypatch.setattr(exactla, "_ranks_gf", ranks_gf)
    primes = (3, 5, 101, _P_RREF)
    for g in range(3, 13):
        for i in range(1, g - 1):
            mp = delta2_map(g, i)
            for p in primes:
                closed_ranks([mp.matrix], GF(p), [mp.source.weights, mp.target.weights])
    assert not pivoted and all(checked.count(p) > 100 for p in primes)


# the primes of the union tests: both carriers of the float engine, both
# sides of the float32 bound (199, 211) and of 2^23 (8,388,593 and the
# int64 RREF's _P_RREF)
_UNION_PRIMES = (2, 3, 101, 199, 211, 8_388_593, _P_RREF)


def _chain(rng, n, extra, p):
    """An n x n matrix that the rounds take apart to the end: the
    diagonal plus `extra` entries in each column at random rows."""
    r = np.concatenate([np.arange(n)] + [rng.integers(0, n, n) for _ in range(extra)])
    c = np.tile(np.arange(n), extra + 1)
    a = np.zeros((n, n), dtype=np.int64)
    a[r, c] = rng.integers(1, p, r.size)
    a[np.arange(n), np.arange(n)] = rng.integers(1, p, n)
    return a


def _union_block(kind, rng, p):
    """A dense integer array of one kind: no entries (a side may be 0),
    at most one entry per column, denser than 1/16 with no entry of
    Markowitz cost <= _MARKOWITZ_MAX (it stops in round one), sparse with
    1-3 entries per column, a `_chain`, or a chain whose first 12 rows and
    columns are dense (it stops once the rest is taken)."""
    if kind == "empty":
        return np.zeros(rng.integers(0, 70, 2), dtype=np.int64)
    if kind == "dense":
        return rng.integers(1, p, rng.integers(10, 17, 2))
    if kind in ("chain", "corner"):
        a = _chain(rng, int(rng.integers(16, 49)), int(rng.integers(1, 3)), p)
        if kind == "corner":
            a[:12, :12] = rng.integers(1, p, (12, 12))
        return a
    m, n = rng.integers(1, 61, 2)
    per_col = 1 if kind == "one" else 3
    a = np.zeros((m, n), dtype=np.int64)
    for j in range(n):
        at = rng.choice(m, min(m, int(rng.integers(1 if kind == "sparse" else 0, per_col + 1))),
                        replace=False)
        a[at, j] = rng.integers(1, p, at.size)
    return a


@st.composite
def _union(draw, p):
    """0-12 blocks over GF(p), of every kind of `_union_block`, with some
    nonzero entries replaced by multiples of p and some moved past int64
    (by p 2^64); possibly a block that stops in round one right before a
    `_chain`, which runs to the end."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kinds = draw(st.lists(st.sampled_from(("empty", "one", "dense", "sparse", "chain",
                                           "corner")), max_size=10))
    if draw(st.booleans()):
        at = draw(st.integers(0, len(kinds)))
        kinds[at:at] = ["dense", "chain"]
    vanish, past = draw(st.sampled_from((0.0, 0.05))), draw(st.sampled_from((0.0, 0.02)))
    blocks = []
    for kind in kinds:
        a = _union_block(kind, rng, p)
        a = np.where((a != 0) & (rng.random(a.shape) < vanish), p * rng.integers(1, 4, a.shape), a)
        if past:
            a = a.astype(object)
            a[(a != 0) & (rng.random(a.shape) < past)] += p * 2**64
        blocks.append(exact_of(a))
    return blocks


@pytest.mark.parametrize("p", _UNION_PRIMES)
@settings(max_examples=25, deadline=None, derandomize=True)
@given(data=st.data())
def test_a_union_ranks_each_block_as_alone(p, data):
    # each block's pivots plus its core's dense rank is its rank alone and
    # the echelon rank; `_ranks_gf` gives the same for any group bound
    blocks = data.draw(_union(p))
    want = [len(rref_mod_p(to_dense(m), p)[1]) for m in blocks]
    got = _markowitz(blocks, p)
    assert len(got) == len(blocks)
    for m, (k, core), w in zip(blocks, got, want):
        [(alone, alone_core)] = _markowitz([m], p)
        assert k + _dense_rank(core, p) == alone + _dense_rank(alone_core, p) == w
        if not k:
            assert core is m
    for bound in (0, 1, exactla._GROUP_ENTRIES):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(exactla, "_GROUP_ENTRIES", bound)
            assert _ranks_gf(iter(blocks), p) == want


def test_a_union_rejects_a_fraction():
    frac = ExactMatrix.from_rows([[Fraction(1, 2), 1], [1, 1]])
    chain = exact_of(_chain(np.random.default_rng(3), 80, 1, 5))
    with pytest.raises(TypeError):
        _markowitz([chain, frac], 5)
    for blocks in ([frac], [chain, frac], [frac, chain], [chain, frac.transpose()]):
        with pytest.raises(TypeError):
            _ranks_gf(blocks, 5)


def _round_count(monkeypatch):
    """A list that each `_round_pivots` call appends to."""
    calls, real = [], exactla._round_pivots
    monkeypatch.setattr(exactla, "_round_pivots", lambda *a: calls.append(a) or real(*a))
    return calls


def test_a_stalled_block_leaves_the_rounds_to_its_neighbour(monkeypatch):
    # the dense block stops in round one and keeps itself as its core; the
    # chain next to it takes the rounds it takes alone, to the end
    rng, p = np.random.default_rng(7), 101
    dense, chain = exact_of(rng.integers(1, p, (12, 12))), exact_of(_chain(rng, 80, 2, p))
    calls = _round_count(monkeypatch)
    [(k, core)] = _markowitz([chain], p)
    alone = len(calls)
    assert alone > 2 and k == 80 and core.shape == (0, 0)
    calls.clear()
    got = _markowitz([dense, chain], p)
    assert len(calls) == alone
    assert got[0] == (0, dense) and got[1][0] == 80 and got[1][1].shape == (0, 0)


def test_a_graded_map_shares_its_rounds(monkeypatch):
    # delta2(11, 5) over GF(101), one group: its blocks take up to 20
    # rounds each and 230 in all one at a time; ranked together, they
    # share every round
    mp, p = delta2_map(11, 5), 101
    tw, sw = mp.target.weights, mp.source.weights
    assert mp.matrix.nnz <= exactla._GROUP_ENTRIES
    *_, rep, block = exactla._weight_classes(mp.matrix, tw, sw)
    calls = _round_count(monkeypatch)
    alone = []
    for k in range(len(rep)):
        calls.clear()
        _markowitz([block(k)], p)
        alone.append(len(calls))
    calls.clear()
    [got] = closed_ranks([mp.matrix], GF(p), [sw, tw])
    assert 0 < len(calls) <= max(alone) + 1 < sum(alone)
    assert got == sum(_rank_gf(block(k), p) for k in range(len(rep)))
