"""The blocked Hermite squares against their full composites."""

import tracemalloc

import numpy as np
import pytest

from syzygy import hermite
from syzygy.exactla import GF, QQ, ExactMatrix
from syzygy.hermite import psi_compat_check, psi_map, square_holds
from syzygy.reps import RepSpace, lowering, nu, raising, sympow_mul
from syzygy.tangent import delta2_map, hermite_square_check, map_q_map

from _oracles import hermite_square_composite, psi_compat_composite

FIELDS = (QQ, GF(2), GF(3), GF(5))


def _compat(d, i):
    """psi_{d+1}, and the blocked and the composite compatibility square
    with psi_{d+1} replaced by a given matrix."""
    return (psi_map(d + 1, i).matrix,
            lambda f, bad: square_holds(nu(d, i).matrix, psi_map(d, i).matrix, bad,
                                        sympow_mul(d, RepSpace.div(i)).matrix, f),
            lambda f, bad: psi_compat_composite(d, i, f, bad))


def _top(g, i):
    """q_i, and the blocked and the composite Hermite squares of
    `hermite_square_check` with q_i replaced by a given matrix."""
    return (map_q_map(g, i).matrix,
            lambda f, bad: square_holds(bad, psi_map(g - 2 - i, i + 1).matrix,
                                        psi_map(g - 1 - i, i + 1).matrix,
                                        delta2_map(g, i).matrix, f),
            lambda f, bad: hermite_square_composite(g, i, f, q=bad))


def _bumped(m: ExactMatrix, r: int, c: int, by: int) -> ExactMatrix:
    """m with `by` added to entry (r, c)."""
    return ExactMatrix(m.rows, m.cols, (np.append(m.row, r), np.append(m.col, c),
                                        np.append(m.val, by)))


@pytest.mark.parametrize("f", FIELDS)
def test_blocked_square_matches_the_composites(f):
    for total in range(10):
        for d in range(total + 1):
            i = total - d
            assert (psi_compat_check(d, i, f), psi_compat_composite(d, i, f)) \
                == (True, True), (d, i, f)
    for g in range(3, 8):
        for i in range(g - 1):
            assert (hermite_square_check(g, i, f), hermite_square_composite(g, i, f)) \
                == (True, True), (g, i, f)


CORRUPTED = [
    *(pytest.param(_compat, d, i, id=f"{d}-{i}")
      for d, i in ((0, 1), (0, 5), (2, 3), (3, 0), (3, 2), (4, 4))),
    *(pytest.param(_top, g, i, id=f"top-{g}-{i}")
      for g, i in ((3, 0), (4, 1), (5, 0), (5, 2), (6, 1), (6, 3)))]


def _spots(m: ExactMatrix):
    """The first nonzero entry of m, and its first zero one if there is one."""
    return [(int(m.row[0]), int(m.col[0]))] + [
        (r, c) for r in range(m.rows) for c in range(m.cols) if not m.entry(r, c)][:1]


def _corrupted_squares_agree(square, n, i):
    m, blocked, composite = square(n, i)
    for r, c in _spots(m):
        for p in (2, 3, 5):
            bad = _bumped(m, r, c, p)
            for f, holds in ((GF(p), True), (QQ, False)):
                assert (blocked(f, bad), composite(f, bad)) == (holds, holds), (r, c, p, f)
        bad = _bumped(m, r, c, 1)
        for f in FIELDS:
            assert (blocked(f, bad), composite(f, bad)) == (False, False), (r, c, f)


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


def _equivariance(d, i, f, bad):
    """L psi = psi L and R psi = psi R with psi(d, i) replaced by `bad`,
    by `square_holds` and by the two whole products of each side."""
    pm = psi_map(d, i)
    ops = [(op(pm.target).matrix, op(pm.source).matrix) for op in (lowering, raising)]
    return ([square_holds(top, bad, bad, bottom, f) for top, bottom in ops],
            [(top @ bad).equals_mod(bad @ bottom, f) for top, bottom in ops])


@pytest.mark.parametrize("d, i", [(3, 3), (4, 2)])
@pytest.mark.parametrize("runs", ["whole", "one-column"])
def test_corrupted_equivariance_is_caught(monkeypatch, d, i, runs):
    if runs == "one-column":
        _one_column_runs(monkeypatch)
    m = psi_map(d, i).matrix
    for r, c in _spots(m):
        for by in (1, 3):
            for f in FIELDS + (GF(101),):
                blocked, whole = _equivariance(d, i, f, _bumped(m, r, c, by))
                assert blocked == whole, (r, c, by, f)
                p = f.characteristic
                if not p:               # over Q both operators catch the bump
                    assert blocked == [False, False], (r, c, by)
                elif by % p == 0:       # a bump that vanishes mod p changes nothing
                    assert blocked == [True, True], (r, c, by, f)


def test_hermite_square_forms_no_kronecker_product(monkeypatch):
    calls, kron = [], ExactMatrix.kron
    monkeypatch.setattr(ExactMatrix, "kron",
                        lambda a, b: calls.append((a.shape, b.shape)) or kron(a, b))
    for g in range(3, 8):
        for i in range(g - 1):
            for f in FIELDS:
                assert hermite_square_check(g, i, f), (g, i, f)
    assert not calls, calls


def test_blocked_square_stays_small():
    # the maps are cached, so only the check's own arrays are traced; the
    # full composites with their Kronecker product peaked at 35.5 MB here
    d, i, f = 5, 7, GF(2)
    psi_map(d, i), psi_map(d + 1, i), nu(d, i), sympow_mul(d, RepSpace.div(i))
    tracemalloc.start()
    try:
        assert psi_compat_check(d, i, f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12 * 2**20, peak / 2**20


def test_psi_and_its_squares_stay_small():
    # building psi(7, 7) and checking its compatibility square and the
    # two equivariance squares of psi(6, 7), with their inputs cached:
    # the whole-part products and the re-sorting build peaked at 15.7 MB
    d, i, f = 6, 7, QQ
    pm = psi_map(d, i)
    psi_map(d + 1, i), nu(d, i), sympow_mul(d, RepSpace.div(i))
    ops = [(op(pm.target).matrix, op(pm.source).matrix) for op in (lowering, raising)]
    tracemalloc.start()
    try:
        psi_map.__wrapped__(d + 1, i)         # built afresh, then dropped
        assert psi_compat_check(d, i, f)
        assert all(square_holds(top, pm.matrix, pm.matrix, bottom, f) for top, bottom in ops)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 11 * 2**20, peak / 2**20


def test_small_squares_keep_whole_parts(monkeypatch):
    # a part within the slab bound is one product per side, as before the
    # slabs: the squares of `selfcheck --g-max 7` form two per part
    calls, matmul = [], ExactMatrix.__matmul__
    monkeypatch.setattr(ExactMatrix, "__matmul__",
                        lambda a, b: calls.append(1) or matmul(a, b))
    for g in range(3, 8):
        for i in range(g - 1):
            assert hermite_square_check(g, i, QQ)         # builds the cached maps
            del calls[:]
            assert hermite_square_check(g, i, QQ)
            top = delta2_map(g, i).matrix.cols // psi_map(g - 2 - i, i + 1).matrix.cols
            assert len(calls) == 2 * (top + i + 2), (g, i)
