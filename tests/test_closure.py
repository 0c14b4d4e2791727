"""The closure certificate of `exactla.closed_ranks`: chains of maps
that compose to zero, ranked together over Q, and the Betti tables and
oracle ranks that read it."""

import gc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from syzygy import exactla, reps, tangent
from syzygy.exactla import GF, QQ, ExactMatrix, closed_ranks, graded_rank
from syzygy.oracle import oracle_kij
from syzygy.reps import RepMap, sympow_mul
from syzygy.tangent import betti_table

from _oracles import rank_by_minors

Q1 = next(exactla._char0_primes())


def _product(a, b, cols):
    """a b for list-of-rows matrices, b with `cols` columns (a's columns
    and b's rows may be none)."""
    return [[sum(x * row[j] for x, row in zip(r, b)) for j in range(cols)] for r in a]


def _unimodular(draw, c):
    """A c x c integer matrix P of determinant 1, a product of drawn
    elementary row operations, and its inverse."""
    p = [[int(i == j) for j in range(c)] for i in range(c)]
    inv = [row[:] for row in p]
    for _ in range(draw(st.integers(0, 6)) if c > 1 else 0):
        i, j = draw(st.permutations(range(c)))[:2]
        t = draw(st.integers(-3, 3))
        p[i] = [u + t * v for u, v in zip(p[i], p[j])]       # P <- E P
        for row in inv:                                     # P^-1 <- P^-1 E^-1
            row[j] -= t * row[i]
    return p, inv


@st.composite
def _planted_class(draw):
    """One weight class of a planted complex A_x -> C_x -> B_x:
    C_x = Z^c with the basis of a unimodular P, d_in = P[:, :r] X and
    d_out = Y P^-1[r:, :], so d_out d_in = Y 0 X = 0 over Z, and the
    ranks over Q are those of X and Y.  X may have a row scaled by the
    first char-0 prime (which then divides its minors), d_in may be
    scaled by 2^70 (entries past int64), and a column of d_in and a row
    of d_out may be divided by small integers (Fractions)."""
    c, a, b = draw(st.integers(1, 4)), draw(st.integers(1, 3)), draw(st.integers(1, 3))
    r = draw(st.integers(0, c))
    entry = st.integers(-3, 3)
    x = [[draw(entry) for _ in range(a)] for _ in range(r)]
    y = [[draw(entry) for _ in range(c - r)] for _ in range(b)]
    bad = bool(x) and draw(st.booleans())
    if bad:
        x[0] = [Q1 * v for v in x[0]]
    p, inv = _unimodular(draw, c)
    d_in = _product([row[:r] for row in p], x, a)
    d_out = _product(y, inv[r:], c)
    if draw(st.booleans()):
        d_in = [[v * 2**70 for v in row] for row in d_in]
    den_in, den_out = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    d_in = [[Fraction(v, den_in) if j == 0 else v for j, v in enumerate(row)] for row in d_in]
    d_out[0] = [Fraction(v, den_out) for v in d_out[0]]
    exact = rank_by_minors(x) == r and rank_by_minors(y) == c - r
    return d_in, d_out, (rank_by_minors(x), rank_by_minors(y)), bad, exact


def _assemble(draw, classes):
    """The maps of a weight-graded chain whose class x, for x = 0, 1, ...,
    holds the list-of-rows blocks classes[x] (one per map), with the
    bases of every space shuffled: (maps, weights, perms)."""
    k = len(classes[0])
    dims = [[len(cls[0][0]) for cls in classes]] + [[len(cls[t]) for cls in classes]
                                                     for t in range(k)]
    perms = [draw(st.permutations(range(sum(d)))) for d in dims]
    weights = [np.repeat(np.arange(len(classes)), d)[np.argsort(perm)]
               for d, perm in zip(dims, perms)]
    maps = []
    for t in range(k):
        entries, r0, c0 = {}, 0, 0
        for cls, nr, nc in zip(classes, dims[t + 1], dims[t]):
            for i, row in enumerate(cls[t]):
                for j, v in enumerate(row):
                    if v:
                        entries[perms[t + 1][r0 + i], perms[t][c0 + j]] = v
            r0, c0 = r0 + nr, c0 + nc
        maps.append(ExactMatrix(sum(dims[t + 1]), sum(dims[t]), entries))
    return maps, weights, perms


@st.composite
def _planted(draw):
    """A weight-graded complex of 1 to 3 planted classes, x = 0, 1, 2,
    with its bases of A, C and B shuffled."""
    classes = draw(st.lists(_planted_class(), min_size=1, max_size=3))
    mats, weights, perms = _assemble(draw, [cls[:2] for cls in classes])
    ranks = tuple(sum(cls[2][k] for cls in classes) for k in (0, 1))
    return mats, weights, ranks, classes, perms


@st.composite
def _chain_class(draw, kind):
    """One weight class of a planted chain A -> C -> E -> B: with P and Q
    unimodular on C = Z^c and E = Z^e, d1 = P[:, :r] X,
    d2 = Q[:, :s] Z P^-1[r:, :] and d3 = Y Q^-1[s:, :], so both
    composites vanish over Z and the ranks over Q are those of X, Z, Y.

    kind "source": X has full row rank r >= 1 and Z full column rank
    c - r < s, so d2 has rank c - rank d1 (its source side closes it) but
    stays below min(c, e) and e - rank d3 >= s.  kind "target" is the
    mirror: Z has full row rank s < c - r and Y full column rank, so d2
    has rank e - rank d3 and stays below c - rank d1.  kind None draws
    every size, rank and entry, and may scale a row of X by the first
    char-0 prime (which then divides its minors)."""
    entry = st.integers(-3, 3)

    def rand(m, n):
        return [[draw(entry) for _ in range(n)] for _ in range(m)]

    def full(m, n):
        # [I | drawn] or [I ; drawn]: rank min(m, n), over Q and mod Q1
        k = min(m, n)
        return [[int(i == j) if i < k and j < k else draw(entry) for j in range(n)]
                for i in range(m)]

    one, two = st.integers(1, 2), st.integers(0, 2)
    if kind == "source":
        r, t = draw(one), draw(one)
        c, s = r + t, t + draw(one)
        a, b, e = r + draw(two), draw(one), s + draw(two)
        x, z, y = full(r, a), full(s, c - r), rand(b, e - s)
    elif kind == "target":
        r, s = draw(one), draw(one)
        c, e = r + s + draw(one), s + draw(one)
        a, b = draw(one), e - s + draw(two)
        x, z, y = rand(r, a), full(s, c - r), full(b, e - s)
    else:
        c, e, a, b = (draw(st.integers(1, 3)) for _ in range(4))
        r, s = draw(st.integers(0, c)), draw(st.integers(0, e))
        x, z, y = rand(r, a), rand(s, c - r), rand(b, e - s)
        if x and draw(st.booleans()):
            x[0] = [Q1 * v for v in x[0]]
    p, p_inv = _unimodular(draw, c)
    q, q_inv = _unimodular(draw, e)
    d1 = _product([row[:r] for row in p], x, a)
    d2 = _product(_product([row[:s] for row in q], z, c - r), p_inv[r:], c)
    d3 = _product(y, q_inv[s:], e)
    return [d1, d2, d3]


@st.composite
def _planted_chain(draw):
    """A weight-graded chain of three maps whose first class closes its
    middle block from the source side only, the second from the target
    side only, and a third, if drawn, at random.  The middle map may be
    scaled by 2^70 (entries past int64) or divided by a small integer
    (Fractions): (maps, weights, perms, the integral class blocks)."""
    classes = [draw(_chain_class("source")), draw(_chain_class("target"))]
    classes += draw(st.lists(_chain_class(None), max_size=1))
    maps, weights, perms = _assemble(draw, classes)
    scale = draw(st.sampled_from([1, 2**70, Fraction(1, 3)]))
    maps[1] = maps[1].scaled(scale) if scale != 1 else maps[1]
    return maps, weights, perms, classes


def _engine_spy(monkeypatch):
    """Every (engine, prime) call of the char-0 loop, and every `_lift`."""
    calls = []
    for name in ("_rank_gf", "_rref_gf", "_lift"):
        def spy(*a, name=name, real=getattr(exactla, name)):
            calls.append((name, a[1] if name != "_lift" else None))
            return real(*a)

        monkeypatch.setattr(exactla, name, spy)
    return calls


@settings(max_examples=120, deadline=None, derandomize=True)
@given(_planted())
def test_planted_complexes_close_or_fall_back(case):
    (d_in, d_out), (wa, wc, wb), ranks, classes, _ = case
    with pytest.MonkeyPatch.context() as mp:
        calls = _engine_spy(mp)
        assert closed_ranks([d_in, d_out], QQ, (wa, wc, wb)) == ranks
    assert ranks == (graded_rank(d_in, QQ, wc, wa), graded_rank(d_out, QQ, wb, wc))
    if all(exact and not bad for *_, bad, exact in classes):
        # every class closes at the first prime: no kernel, no second prime
        assert set(calls) <= {("_rank_gf", Q1)}
    if not any(isinstance(v, Fraction) for m in (d_in, d_out) for v in m.val.tolist()):
        for p in (2, 5):
            assert closed_ranks([d_in, d_out], GF(p), (wa, wc, wb)) == (
                graded_rank(d_in, GF(p), wc, wa), graded_rank(d_out, GF(p), wb, wc))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_planted(), st.data())
def test_a_bumped_d_out_raises(case, data):
    (d_in, d_out), weights, _, classes, perms = case
    # a class with a nonzero row j of d_in and a row i of d_out: bumping
    # d_out at (i, j) keeps both maps graded, and puts row j of d_in
    # into the composite
    k = data.draw(st.sampled_from(range(len(classes))))
    rows = [j for j, row in enumerate(classes[k][0]) if any(row)]
    assume(rows)
    r0 = sum(len(cls[1]) for cls in classes[:k])
    c0 = sum(len(cls[0]) for cls in classes[:k])
    i, j = perms[2][r0 + data.draw(st.sampled_from(range(len(classes[k][1]))))], \
        perms[1][c0 + data.draw(st.sampled_from(rows))]
    bumped = d_out + ExactMatrix(d_out.rows, d_out.cols, {(i, j): 1})
    assert graded_rank(bumped, QQ, weights[2], weights[1]) >= 0     # still graded
    with pytest.raises(ValueError, match="not zero"):
        closed_ranks([d_in, bumped], QQ, weights)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_planted_chain())
def test_planted_chains_close_from_both_sides(case):
    maps, weights, _, classes = case
    ranks = tuple(sum(rank_by_minors(cls[t]) for cls in classes) for t in range(3))
    assert ranks == tuple(graded_rank(d, QQ, weights[t + 1], weights[t])
                          for t, d in enumerate(maps))
    with pytest.MonkeyPatch.context() as mp:
        blocks, char0 = [], exactla._char0
        mp.setattr(exactla, "_char0", lambda *a: blocks.append(a[0].shape) or char0(*a))
        assert closed_ranks(maps, QQ, weights) == ranks
    # each block's bound, from the ranks mod Q1 of its neighbours; a block
    # below it, and only such a block, goes on to `_char0`
    below = 0
    for x, cls in enumerate(classes):
        rq = [rank_by_minors(d, Q1) for d in cls]
        dims = [len(cls[0][0])] + [len(d) for d in cls]
        for t, d in enumerate(cls):
            bound = [dims[t], dims[t + 1]]
            if t:
                bound.append(dims[t] - rq[t - 1])
            if t < 2:
                bound.append(dims[t + 1] - rq[t + 1])
            below += any(map(any, d)) and rq[t] < min(bound)
            if x < 2 and t == 1:
                # the middle block of the first class closes from its
                # source side only, that of the second from its target side
                source, target = dims[1] - rq[0], dims[2] - rq[2]
                assert rq[1] < min(dims[1], dims[2])
                assert (rq[1] == source < target) if x == 0 else (rq[1] == target < source)
    assert len(blocks) == below
    if not any(isinstance(v, Fraction) for d in maps for v in d.val.tolist()):
        for p in (2, 5):
            assert closed_ranks(maps, GF(p), weights) == tuple(
                graded_rank(d, GF(p), weights[t + 1], weights[t]) for t, d in enumerate(maps))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_planted_chain(), st.data())
def test_a_bumped_chain_raises(case, data):
    # bump map t + 1 at (i, j), with row j of map t nonzero and i, j in
    # one class: both maps stay graded, and the composite of map t and
    # map t + 1 gains row j of map t in its row i
    maps, weights, perms, classes = case
    t = data.draw(st.sampled_from([0, 1]))
    x = data.draw(st.sampled_from(range(len(classes))))
    rows = [j for j, row in enumerate(classes[x][t]) if any(row)]
    assume(rows)
    r0 = sum(len(cls[t + 1]) for cls in classes[:x])
    c0 = sum(len(cls[t]) for cls in classes[:x])
    i = perms[t + 2][r0 + data.draw(st.sampled_from(range(len(classes[x][t + 1]))))]
    j = perms[t + 1][c0 + data.draw(st.sampled_from(rows))]
    d = maps[t + 1]
    maps[t + 1] = d + ExactMatrix(d.rows, d.cols, {(i, j): 1})
    assert graded_rank(maps[t + 1], QQ, weights[t + 2], weights[t + 1]) >= 0
    with pytest.raises(ValueError, match="not zero"):
        closed_ranks(maps, QQ, weights)


def test_a_prime_dividing_a_minor_falls_back(monkeypatch):
    # C = Q^2, d_in = (Q1, 0)^T, d_out = (0 1): exact over Q, but d_in
    # vanishes mod Q1, so 0 + 1 < 2 there; d_in falls back to `_char0`
    # with the bound 2 - 1 = 1 and reaches it at the second prime
    q2 = next(q for q in exactla._char0_primes() if q < Q1)
    d_in, d_out = ExactMatrix.from_rows([[Q1], [0]]), ExactMatrix.from_rows([[0, 1]])
    calls = _engine_spy(monkeypatch)
    zero = np.zeros(1), np.zeros(2), np.zeros(1)
    assert closed_ranks([d_in, d_out], QQ, zero) == (1, 1)
    assert calls == [("_rank_gf", Q1), ("_rank_gf", Q1), ("_rref_gf", Q1), ("_lift", None),
                     ("_rref_gf", q2)]


def test_entries_past_int64_close():
    # rank 2 into C = Q^3 and rank 1 out of it, with entries near 2^80
    big = 2**80 + 1
    d_in = ExactMatrix.from_rows([[big, 0], [0, big], [big, big]])
    d_out = ExactMatrix.from_rows([[big, big, -big]])
    assert d_in.val.dtype == object
    w = np.zeros(2), np.zeros(3), np.zeros(1)
    assert closed_ranks([d_in, d_out], QQ, w) == (2, 1)


# Rows 1 and 2 of the char-0 Betti tables at g = 3..12, from the
# single-map certificates before `closed_ranks` (kernel lift or Hadamard).
ROW1 = {3: [0, 0], 4: [0, 1, 0], 5: [0, 3, 0, 0], 6: [0, 6, 5, 0, 0],
        7: [0, 10, 16, 0, 0, 0], 8: [0, 15, 35, 21, 0, 0, 0],
        9: [0, 21, 64, 70, 0, 0, 0, 0], 10: [0, 28, 105, 162, 84, 0, 0, 0, 0],
        11: [0, 36, 160, 315, 288, 0, 0, 0, 0, 0],
        12: [0, 45, 231, 550, 693, 330, 0, 0, 0, 0, 0]}


def test_oracle_is_unchanged():
    for g in range(4, 8):
        for i in range(1, g - 1):
            assert [oracle_kij(g, i, j, QQ) for j in (1, 2)] == \
                [ROW1[g][i], ROW1[g][g - 2 - i]], (g, i)


@pytest.mark.parametrize("g", [13, 14])
def test_char0_tables_equal_the_gf101_tables(g):
    # 101 >= (g + 2) / 2: the vanishing theorem makes the two equal
    q, p = betti_table(g, QQ), betti_table(g, GF(101))
    assert q.entries == p.entries and q.duality_ok and p.duality_ok


def test_char0_tables_are_unchanged_and_close_at_the_first_prime(monkeypatch):
    # each pair of maps ranked together is one group; within it no block
    # is ranked twice, and every block at the first prime alone
    groups = []
    real_rank, real_closed = exactla._rank_gf, tangent.closed_ranks

    def closed(*a):
        groups.append([])
        return real_closed(*a)

    def spy(m, p):
        groups[-1].append((p, m.shape, m.row.tobytes(), m.col.tobytes(), m.val.tobytes()))
        return real_rank(m, p)

    def never(*a):
        raise AssertionError("a kernel was asked for")

    monkeypatch.setattr(tangent, "closed_ranks", closed)
    monkeypatch.setattr(exactla, "_rank_gf", spy)
    monkeypatch.setattr(exactla, "_rref_gf", never)
    monkeypatch.setattr(exactla, "_lift", never)
    tangent._delta2_dims.cache_clear()
    for g, row1 in ROW1.items():
        bt = betti_table(g, QQ)
        assert [r[1] for r in bt.entries] == row1
        # b_{i,2} = b_{g-2-i,1} (Gorenstein duality): row 2 is row 1 reversed
        assert [r[2] for r in bt.entries] == row1[::-1]
        assert bt.duality_ok
    tangent._delta2_dims.cache_clear()
    assert len(groups) == sum(g - 2 for g in ROW1)
    for calls in groups:
        assert calls and {c[0] for c in calls} == {Q1}
        assert max(Counter(calls).values()) == 1


@pytest.mark.parametrize("f", [GF(3), GF(101)])
def test_gf_tables_build_no_partner(monkeypatch, f):
    names = []
    build = reps._build
    monkeypatch.setattr(reps, "_build", lambda s, t, parts, name: names.append(name)
                        or build(s, t, parts, name))
    tangent._delta2_dims.cache_clear()
    betti_table(10, f)
    tangent._delta2_dims.cache_clear()
    assert not [n for n in names if n.startswith("sympow_mul")]


def test_char0_partner_is_freed_and_not_cached():
    tangent._delta2_dims.cache_clear()
    cached = sympow_mul.cache_info().currsize
    betti_table(10, QQ)
    tangent._delta2_dims.cache_clear()
    gc.collect()
    live = [o for o in gc.get_objects() if isinstance(o, RepMap)
            and o.name.startswith(("sympow_mul", "delta2(10,"))]
    assert sympow_mul.cache_info().currsize == cached
    assert len(live) == cached
