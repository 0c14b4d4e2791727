"""The blocked Hermite squares against their full composites."""

import tracemalloc

import numpy as np
import pytest

from syzygy.exactla import GF, QQ, ExactMatrix
from syzygy.hermite import psi_compat_check, psi_map, square_holds
from syzygy.reps import RepSpace, nu, sympow_mul
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


@pytest.mark.parametrize("square, n, i", [
    *(pytest.param(_compat, d, i, id=f"{d}-{i}")
      for d, i in ((0, 1), (0, 5), (2, 3), (3, 0), (3, 2), (4, 4))),
    *(pytest.param(_top, g, i, id=f"top-{g}-{i}")
      for g, i in ((3, 0), (4, 1), (5, 0), (5, 2), (6, 1), (6, 3)))])
def test_corrupted_square_agrees_with_the_composites(square, n, i):
    m, blocked, composite = square(n, i)
    # the first nonzero entry, and the first zero one if there is one
    spots = [(int(m.row[0]), int(m.col[0]))] + [
        (r, c) for r in range(m.rows) for c in range(m.cols) if not m.entry(r, c)][:1]
    for r, c in spots:
        for p in (2, 3, 5):
            bad = _bumped(m, r, c, p)
            for f, holds in ((GF(p), True), (QQ, False)):
                assert (blocked(f, bad), composite(f, bad)) == (holds, holds), (r, c, p, f)
        bad = _bumped(m, r, c, 1)
        for f in FIELDS:
            assert (blocked(f, bad), composite(f, bad)) == (False, False), (r, c, f)


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
