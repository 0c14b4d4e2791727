"""The blocked Hermite compatibility square against its full composites."""

import tracemalloc

import numpy as np
import pytest

from syzygy import hermite
from syzygy.exactla import GF, QQ, ExactMatrix
from syzygy.hermite import psi_compat_check, psi_map
from syzygy.reps import RepSpace, nu, sympow_mul

from _oracles import psi_compat_composite

FIELDS = (QQ, GF(2), GF(3), GF(5))


def _blocked(d, i, f, psi_next=None):
    """`psi_compat_check` with psi_{d+1} replaced by `psi_next`."""
    if psi_next is None:
        psi_next = psi_map(d + 1, i).matrix
    return hermite._square_holds(nu(d, i).matrix, psi_map(d, i).matrix, psi_next,
                                 sympow_mul(d, RepSpace.div(i)).matrix, f)


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


@pytest.mark.parametrize("d, i", [(0, 1), (0, 5), (2, 3), (3, 0), (3, 2), (4, 4)])
def test_corrupted_square_agrees_with_the_composites(d, i):
    m = psi_map(d + 1, i).matrix
    # the first nonzero entry, and the first zero one if there is one
    spots = [(int(m.row[0]), int(m.col[0]))] + [
        (r, c) for r in range(m.rows) for c in range(m.cols) if not m.entry(r, c)][:1]
    for r, c in spots:
        for p in (2, 3, 5):
            bad = _bumped(m, r, c, p)
            for f, holds in ((GF(p), True), (QQ, False)):
                assert (_blocked(d, i, f, bad), psi_compat_composite(d, i, f, bad)) \
                    == (holds, holds), (r, c, p, f)
        bad = _bumped(m, r, c, 1)
        for f in FIELDS:
            assert (_blocked(d, i, f, bad), psi_compat_composite(d, i, f, bad)) \
                == (False, False), (r, c, f)


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
