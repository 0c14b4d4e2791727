"""The blocked Hermite squares against their full composites."""

import tracemalloc

import numpy as np
import pytest

from syzygy import hermite, reps
from syzygy.exactla import GF, QQ, ExactMatrix, rank
from syzygy.hermite import psi_compat_check, psi_map, square_holds
from syzygy.reps import RepSpace, lowering, nu, raising, sympow_mul
from syzygy.tangent import delta2_map, hermite_square_check, map_q_map

from _oracles import (entry, hermite_square_composite, hermite_square_sides,
                      psi_compat_composite, psi_compat_sides)

FIELDS = (QQ, GF(2), GF(3), GF(5))


def _compat(d, i):
    """psi_{d+1}, and the blocked and the composite compatibility square
    with psi_{d+1} replaced by a given matrix."""
    return (psi_map(d + 1, i).matrix,
            lambda bad: square_holds(nu(d, i).matrix, psi_map(d, i).matrix, bad,
                                     sympow_mul(d, RepSpace.div(i)).matrix),
            lambda bad: psi_compat_composite(d, i, bad))


def _top(g, i):
    """q_i, and the blocked and the composite Hermite squares of
    `hermite_square_check` with q_i replaced by a given matrix."""
    return (map_q_map(g, i).matrix,
            lambda bad: square_holds(bad, psi_map(g - 2 - i, i + 1).matrix,
                                     psi_map(g - 1 - i, i + 1).matrix,
                                     delta2_map(g, i).matrix),
            lambda bad: hermite_square_composite(g, i, q=bad))


def _bumped(m: ExactMatrix, r: int, c: int, by: int) -> ExactMatrix:
    """m with `by` added to entry (r, c)."""
    return ExactMatrix(m.rows, m.cols, (np.append(m.row, r), np.append(m.col, c),
                                        np.append(m.val, by)))


def _vanishes_over(f, sides):
    """Does every difference of the (right, left) composites in `sides`
    have rank 0 over f?"""
    return all(rank(right - left, f) == 0 for right, left in sides)


@pytest.mark.parametrize("f", FIELDS)
def test_blocked_square_matches_the_composites(f):
    # the blocked checks decide over Z; the composites agree, over Z and over f
    for total in range(10):
        for d in range(total + 1):
            i = total - d
            assert (psi_compat_check(d, i), psi_compat_composite(d, i),
                    _vanishes_over(f, [psi_compat_sides(d, i)])) == (True, True, True), (d, i, f)
    for g in range(3, 8):
        for i in range(g - 1):
            assert (hermite_square_check(g, i), hermite_square_composite(g, i),
                    _vanishes_over(f, hermite_square_sides(g, i))) == (True, True, True), (g, i, f)


CORRUPTED = [
    *(pytest.param(_compat, d, i, id=f"{d}-{i}")
      for d, i in ((0, 1), (0, 5), (2, 3), (3, 0), (3, 2), (4, 4))),
    *(pytest.param(_top, g, i, id=f"top-{g}-{i}")
      for g, i in ((3, 0), (4, 1), (5, 0), (5, 2), (6, 1), (6, 3)))]


def _spots(m: ExactMatrix):
    """The first nonzero entry of m, and its first zero one if there is one."""
    return [(int(m.row[0]), int(m.col[0]))] + [
        (r, c) for r in range(m.rows) for c in range(m.cols) if not entry(m, r, c)][:1]


def _corrupted_squares_agree(square, n, i):
    # over Z every nonzero bump breaks the square, a bump by p included
    m, blocked, composite = square(n, i)
    for r, c in _spots(m):
        for by in (1, 2, 3, 5):
            bad = _bumped(m, r, c, by)
            assert (blocked(bad), composite(bad)) == (False, False), (r, c, by)


@pytest.mark.parametrize("square, n, i", CORRUPTED)
def test_corrupted_square_agrees_with_the_composites(square, n, i):
    _corrupted_squares_agree(square, n, i)


def _one_column_runs(monkeypatch):
    """Set the slab bound to 0, so that each part is compared one column
    at a time; returns the widths of the runs."""
    widths, fold = [], hermite._fold
    monkeypatch.setattr(hermite, "_SQUARE_SLAB", 0)
    monkeypatch.setattr(hermite, "_fold", lambda m, parts: widths.append(m.cols) or fold(m, parts))
    return widths


@pytest.mark.parametrize("square, n, i", CORRUPTED)
def test_one_column_runs_agree_with_the_composites(monkeypatch, square, n, i):
    widths = _one_column_runs(monkeypatch)
    _corrupted_squares_agree(square, n, i)
    # every run whose columns expand products holds one column
    assert widths and set(widths) == {1}


def _equivariance(d, i, bad):
    """L psi = psi L and R psi = psi R with psi(d, i) replaced by `bad`,
    by `square_holds` and by the two whole products of each side."""
    pm = psi_map(d, i)
    ops = [(op(pm.target).matrix, op(pm.source).matrix) for op in (lowering, raising)]
    return ([square_holds(top, bad, bad, bottom) for top, bottom in ops],
            [top @ bad == bad @ bottom for top, bottom in ops])


@pytest.mark.parametrize("d, i", [(3, 3), (4, 2)])
@pytest.mark.parametrize("runs", ["whole", "one-column"])
def test_corrupted_equivariance_is_caught(monkeypatch, d, i, runs):
    if runs == "one-column":
        _one_column_runs(monkeypatch)
    m = psi_map(d, i).matrix
    for r, c in _spots(m):
        for by in (1, 3):               # over Z both operators catch the bump
            blocked, whole = _equivariance(d, i, _bumped(m, r, c, by))
            assert blocked == whole == [False, False], (r, c, by)


def test_hermite_square_forms_no_kronecker_product(monkeypatch):
    calls, kron = [], ExactMatrix.kron
    monkeypatch.setattr(ExactMatrix, "kron",
                        lambda a, b: calls.append((a.shape, b.shape)) or kron(a, b))
    for g in range(3, 8):
        for i in range(g - 1):
            assert hermite_square_check(g, i), (g, i)
    assert not calls, calls


def test_blocked_square_stays_small():
    # the maps are cached, so only the check's own arrays are traced; the
    # full composites with their Kronecker product peaked at 35.5 MB here
    d, i = 5, 7
    psi_map(d, i), psi_map(d + 1, i), nu(d, i), sympow_mul(d, RepSpace.div(i))
    tracemalloc.start()
    try:
        assert psi_compat_check(d, i)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12 * 2**20, peak / 2**20


def test_psi_and_its_squares_stay_small():
    # building psi(7, 7) and checking its compatibility square and the
    # two equivariance squares of psi(6, 7), with their inputs cached:
    # the whole-part products and the re-sorting build peaked at 15.7 MB
    d, i = 6, 7
    pm = psi_map(d, i)
    psi_map(d + 1, i), nu(d, i), sympow_mul(d, RepSpace.div(i))
    ops = [(op(pm.target).matrix, op(pm.source).matrix) for op in (lowering, raising)]
    tracemalloc.start()
    try:
        psi_map.__wrapped__(d + 1, i)         # built afresh, then dropped
        assert psi_compat_check(d, i)
        assert all(square_holds(top, pm.matrix, pm.matrix, bottom) for top, bottom in ops)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 11 * 2**20, peak / 2**20


def test_small_squares_keep_whole_parts(monkeypatch):
    # a square within the slab bound forms no more products than whole
    # parts did (two per part): the top square of `selfcheck --g-max 7`
    # two per part, the compatibility square one run of one product per
    # part j and one for its psi_{d+1} columns
    calls, matmul = [], ExactMatrix.__matmul__
    monkeypatch.setattr(ExactMatrix, "__matmul__",
                        lambda a, b: calls.append(1) or matmul(a, b))
    for g in range(3, 8):
        for i in range(g - 1):
            assert hermite_square_check(g, i)             # builds the cached maps
            del calls[:]
            assert hermite_square_check(g, i)
            top = delta2_map(g, i).matrix.cols // psi_map(g - 2 - i, i + 1).matrix.cols
            assert len(calls) == 2 * top + (i + 2) + 1 <= 2 * (top + i + 2), (g, i)


def _one_weight_runs(monkeypatch):
    """Set the slab bound to 0, so that the compatibility square is
    compared one weight at a time; returns the number of runs, counted
    by their psi_{d+1} builds."""
    runs, real = [], hermite._psi_columns
    monkeypatch.setattr(hermite, "_SQUARE_SLAB", 0)
    monkeypatch.setattr(hermite, "_psi_columns",
                        lambda pieri, prev, lab: runs.append(1) or real(pieri, prev, lab))
    return runs


@pytest.mark.parametrize("f", (QQ, GF(2), GF(3)))
def test_one_weight_runs_match_the_composites(monkeypatch, f):
    runs = _one_weight_runs(monkeypatch)
    for total in range(10):
        for d in range(total + 1):
            i = total - d
            psi_map(d, i)                   # built before the runs are counted
            del runs[:]
            assert psi_compat_check(d, i), (d, i)
            assert len(runs) == i * (d + 1) + 1, (d, i)        # one per weight
            assert (psi_compat_composite(d, i),
                    _vanishes_over(f, [psi_compat_sides(d, i)])) == (True, True), (d, i, f)


@pytest.fixture
def fresh_maps():
    """Build psi and nu afresh in the test, and again after it, so that
    maps built from corrupted builders never outlive it."""
    psi_map.cache_clear(), nu.cache_clear()
    yield
    psi_map.cache_clear(), nu.cache_clear()


def _corrupt_psi(monkeypatch, width, label, r, by):
    """Add `by` at row r of the psi column of `label`, wherever
    `_psi_columns` builds columns of `width` parts: in psi_map, and in
    the weight runs of the compatibility square."""
    real = hermite._psi_columns

    def build(pieri, prev, lab):
        m = real(pieri, prev, lab)
        hit = np.flatnonzero((lab == label).all(axis=1)) if lab.shape[1] == width else []
        return _bumped(m, r, int(hit[0]), by) if len(hit) else m

    monkeypatch.setattr(hermite, "_psi_columns", build)


def _corrupt_nu(monkeypatch, d, i, src, j, move):
    """Drop the Pieri strip of size j from wedge row src in nu(d, i), or
    move it to another target row of the same weight, wherever `_pieri`
    builds nu(d, i): in `reps.nu`, and in the weight runs."""
    real, wedge = reps._pieri, RepSpace.wedge(i, RepSpace.sym(d + i - 1))

    def pieri(space, bigger, rows=None):
        js, pos, k = real(space, bigger, rows)
        hit = np.flatnonzero((k == src) & (js == j)) if space is wedge else []
        if not len(hit):
            return js, pos, k
        if not move:
            keep = np.arange(k.size) != hit[0]
            return js[keep], pos[keep], k[keep]
        w = bigger.weights
        other = np.flatnonzero((w == w[pos[hit[0]]]) & ~np.isin(np.arange(w.size), pos[k == src]))
        pos = pos.copy()
        pos[hit[0]] = other[0] if other.size else pos[hit[0]]
        return js, pos, k

    for module in (reps, hermite):
        monkeypatch.setattr(module, "_pieri", pieri)


COMPAT = [(0, 1), (0, 5), (2, 3), (3, 0), (3, 2), (4, 4)]


@pytest.mark.parametrize("runs", ["whole", "one-weight"])
@pytest.mark.parametrize("d, i", COMPAT)
def test_corrupted_builders_agree_with_the_composites(monkeypatch, fresh_maps, runs, d, i):
    if runs == "one-weight":
        _one_weight_runs(monkeypatch)
    results = []
    maps = [("psi+", d + 1, psi_map(d + 1, i))] + ([("psi", d, psi_map(d, i))] if d else [])
    spots = [(what, width, m, r, c) for what, width, m in maps for r, c in _spots(m.matrix)]
    for what, width, m, r, c in spots:
        label = m.source.labels[c]
        for by in (1, 2, 3):
            with monkeypatch.context() as mp:
                _corrupt_psi(mp, width, label, r, by)
                psi_map.cache_clear()
                pair = (psi_compat_check(d, i), psi_compat_composite(d, i))
                assert pair[0] == pair[1], (what, r, c, by)
                results.append(pair[0])
                if what == "psi+":              # over Z every bump is seen
                    assert pair[0] is False, (r, c, by)
            psi_map.cache_clear()
    wedge = RepSpace.wedge(i, RepSpace.sym(d + i - 1))
    for src in sorted({0, wedge.dim - 1}):
        for j in sorted({0, i}):
            for move in (False, True):
                with monkeypatch.context() as mp:
                    _corrupt_nu(mp, d, i, src, j, move)
                    psi_map.cache_clear(), nu.cache_clear()
                    pair = (psi_compat_check(d, i), psi_compat_composite(d, i))
                    assert pair[0] == pair[1], ("nu", src, j, move)
                    results.append(pair[0])
                psi_map.cache_clear(), nu.cache_clear()
    assert False in results


def test_compat_square_builds_neither_nu_nor_psi_next(monkeypatch):
    calls = []
    for name in ("nu", "psi_map"):
        real = getattr(hermite, name)
        monkeypatch.setattr(hermite, name, lambda d, i, name=name, real=real:
                            calls.append((name, d, i)) or real(d, i))
    for d, i in ((0, 3), (2, 2), (3, 4), (5, 1)):
        del calls[:]
        assert psi_compat_check(d, i)
        assert ("nu", d, i) not in calls and ("psi_map", d + 1, i) not in calls, calls


def test_compat_square_stays_small_without_nu():
    # nu(6, 7) and psi(7, 7) not cached: whole, with the square's products
    # over both of them, the check peaked at 10.4 MB; by weight runs 3.8 MB
    psi_map.cache_clear(), nu.cache_clear()
    psi_map(6, 7), sympow_mul(6, RepSpace.div(7))
    tracemalloc.start()
    try:
        assert psi_compat_check(6, 7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4.5 * 2**20, peak / 2**20
