"""The Weyl flip: `RepSpace.flip`, the `RepMap.mirrored` certificate and
the half-block ranks it licenses in `graded_rank`."""

import numpy as np
import pytest

from syzygy import exactla
from syzygy.exactla import GF, QQ, ExactMatrix, graded_rank
from syzygy.hermite import psi_map
from syzygy.reps import RepMap, RepSpace, generic_koszul_delta, lowering
from syzygy.tangent import delta2_map

from _oracles import weyl_image

_SPACES = (RepSpace.sym(4), RepSpace.div(0), RepSpace.free(5), RepSpace.sym(-1),
           RepSpace.wedge(2, RepSpace.sym(4)), RepSpace.wedge(3, RepSpace.div(5)),
           RepSpace.wedge(4, RepSpace.sym(6)), RepSpace.wedge(3, RepSpace.free(6)),
           RepSpace.wedge(2, RepSpace.free(5)), RepSpace.wedge(0, RepSpace.div(2)),
           RepSpace.sym_power(3, RepSpace.div(2)), RepSpace.sym_power(4, RepSpace.free(3)),
           RepSpace.sym_power(0, RepSpace.div(3)),
           RepSpace.tensor([RepSpace.div(2), RepSpace.sym_power(2, RepSpace.div(3))]),
           RepSpace.tensor([RepSpace.wedge(2, RepSpace.free(4)), RepSpace.sym(2),
                            RepSpace.wedge(3, RepSpace.sym(4))]))


def _image(space, label):
    """(label, sign) of the Weyl element on one label, from the oracle."""
    if space.kind == "tensor":
        parts = [_image(sp, lab) for sp, lab in zip(space.factors, label)]
        return tuple(lab for lab, _ in parts), int(np.prod([s for _, s in parts]))
    if space.kind in ("sym", "div", "free"):
        return weyl_image("part", space.dim - 1, label)
    return weyl_image(space.kind, space.inner.dim - 1, label,
                      descending=space.inner.kind != "free", length=space.d)


def test_flip_is_the_weyl_element():
    for space in _SPACES:
        perm, sign = space.flip
        assert perm.dtype == sign.dtype == np.int64
        assert sorted(perm.tolist()) == list(range(space.dim))
        for k, lab in enumerate(space.basis):
            assert (space.basis[perm[k]], sign[k]) == _image(space, lab), (space, lab)
        w = np.array(space.weights, dtype=np.int64)
        if w.size:
            assert np.array_equal(w[perm], w.min() + w.max() - w)
        assert space.flip is space.flip                     # cached


def _column_block_ranks(mat, col_weights, f):
    """{column weight: rank of the columns of that weight}, every block
    ranked on its own."""
    cw = np.array(col_weights)
    out = {}
    for w in np.unique(cw).tolist():
        sel = cw[mat.col] == w
        cols = np.flatnonzero(cw == w)
        out[w] = exactla.rank(ExactMatrix(mat.rows, cols.size, (
            mat.row[sel], np.searchsorted(cols, mat.col[sel]), mat.val[sel])), f)
    return out


def _assert_halves_equal(ranks, top):
    for w, r in ranks.items():
        assert ranks.get(top - w) == r, (w, ranks)


def test_delta2_is_certified_and_both_halves_agree():
    for g in range(4, 12):
        for i in range(g - 1):
            assert delta2_map(g, i).mirrored, (g, i)
    for g in range(4, 11):
        for i in range(g - 1):
            m = delta2_map(g, i)
            w = m.source.weights
            for f in (GF(3), GF(101)) + ((QQ,) if g <= 8 else ()):
                ranks = _column_block_ranks(m.matrix, w, f)
                _assert_halves_equal(ranks, min(w) + max(w))
                # the mirrored count equals the full count, mid class once
                assert m.rank(f) == sum(ranks.values())


def test_generic_koszul_delta_is_certified():
    for n in range(3, 9):
        for q in range(4):
            assert generic_koszul_delta(n, 3, q).mirrored, (n, q)


def test_other_maps():
    for d, i in ((3, 2), (4, 3), (2, 4)):
        assert psi_map(d, i).mirrored
    # the flip conjugates lowering into raising: no certificate
    assert not lowering(RepSpace.sym(3)).mirrored
    assert lowering(RepSpace.sym(3)).rank(QQ) == 3


def _broken_delta2(g, i):
    """delta2_map(g, i) with one entry in a column above the middle
    weight changed: still weight-graded, no longer flip-symmetric."""
    m = delta2_map(g, i)
    mat = m.matrix
    cw = np.array(m.source.weights)
    k = int(np.flatnonzero(2 * cw[mat.col] > cw.min() + cw.max())[0])
    val = mat.val.copy()
    val[k] += 7
    return RepMap(m.source, m.target, ExactMatrix(mat.rows, mat.cols,
                                                  (mat.row, mat.col, val)), "broken")


def test_a_broken_map_ranks_every_block(monkeypatch):
    for g, i, f in ((8, 3, GF(3)), (9, 4, QQ), (7, 2, GF(101))):
        broken = _broken_delta2(g, i)
        assert not broken.mirrored
        calls = []
        flat = exactla.rank

        def spy(m, field):
            calls.append(m.shape)
            return flat(m, field)

        monkeypatch.setattr(exactla, "rank", spy)
        r = broken.rank(f)
        monkeypatch.undo()
        classes = np.unique(np.array(broken.source.weights)[broken.matrix.col]).size
        assert len(calls) == classes
        assert r == exactla.rank(broken.matrix, f)
        # the certified map ranks only the lower half (and the middle)
        calls.clear()
        monkeypatch.setattr(exactla, "rank", spy)
        delta2_map(g, i).rank(f)
        monkeypatch.undo()
        assert len(calls) == (classes + 1) // 2


def test_weights_must_reflect(monkeypatch):
    """A flip that commutes with the matrix but keeps every weight
    certifies nothing: the map below has rank 1, and counting its one
    nonzero block twice would give 2."""
    space = RepSpace.sym(3)
    m = RepMap(space, space, ExactMatrix(4, 4, {(0, 0): 1}), "e00")
    ident = np.arange(4, dtype=np.int64), np.ones(4, dtype=np.int64)
    monkeypatch.setattr(RepSpace, "flip", property(lambda self: ident))
    assert not m.mirrored
    assert m.rank(QQ) == 1
    assert graded_rank(m.matrix, QQ, space.weights, space.weights, mirrored=True) == 2


def test_mirrored_graded_rank_counts():
    # column classes 0, 1, 2 (top 2) of ranks 1, 1, 1: mirrored ranks
    # class 0 twice and class 1 once
    m = ExactMatrix(3, 3, {(0, 0): 1, (1, 1): 2, (2, 2): 3})
    assert graded_rank(m, QQ, [0, 1, 2], [0, 1, 2], mirrored=True) == 3
    m = ExactMatrix(3, 3, {(0, 0): 1, (2, 2): 3})
    assert graded_rank(m, QQ, [0, 1, 2], [0, 1, 2], mirrored=True) == 2


@pytest.mark.parametrize("p", [2, 3, 5])
def test_permuted_matches_signed_permutation_product(p):
    rng = np.random.default_rng(p)
    m = ExactMatrix.from_rows(rng.integers(-3, 4, size=(5, 4)).tolist())
    rows = rng.permutation(5).astype(np.int64), rng.choice([-1, 1], 5).astype(np.int64)
    cols = rng.permutation(4).astype(np.int64), rng.choice([-1, 1], 4).astype(np.int64)

    def signed(perm, sign):
        n = perm.size
        return ExactMatrix(n, n, (perm, np.arange(n), sign))

    R, C = signed(*rows), signed(*cols)
    # C^-1 = C^T for a signed permutation matrix
    assert m.permuted(rows, cols) == R @ m @ C.transpose()
    assert m.permuted(rows) == R @ m
    big = ExactMatrix(1, 1, {(0, 0): -2**63})
    one = np.zeros(1, dtype=np.int64), -np.ones(1, dtype=np.int64)
    assert big.permuted(one).entry(0, 0) == 2**63
