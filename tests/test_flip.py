"""The Weyl flip: `RepSpace.flip`, and the per-pair check in
`closed_ranks` that lets one weight block of each flipped pair be
ranked for both.  The spy on `exactla._ranks_gf` counts the blocks
ranked, over GF(p) and at the first prime over Q."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from syzygy import exactla
from syzygy.exactla import GF, QQ, ExactMatrix, closed_ranks
from syzygy.hermite import psi_map
from syzygy.reps import RepMap, RepSpace, generic_koszul_delta, lowering
from syzygy.tangent import delta2_map

from _oracles import basis, entry, weyl_image

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
        for k, lab in enumerate(basis(space)):
            assert (basis(space)[perm[k]], sign[k]) == _image(space, lab), (space, lab)
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


def _ranks_seen(monkeypatch, call):
    """call(), and the shapes of the blocks that `exactla._ranks_gf`
    saw: a graded map's blocks over GF(p), or at the first prime over Q."""
    calls = []
    ranks_gf = exactla._ranks_gf

    def spy_gf(blocks, p):
        blocks = list(blocks)
        calls.extend(m.shape for m in blocks)
        return ranks_gf(blocks, p)

    with monkeypatch.context() as mp:
        mp.setattr(exactla, "_ranks_gf", spy_gf)
        out = call()
    return out, calls


def _classes(m):
    """The number of column-weight classes of a RepMap that hold entries."""
    return np.unique(np.array(m.source.weights)[m.matrix.col]).size


def test_delta2_is_certified_and_both_halves_agree(monkeypatch):
    for g in range(4, 12):
        for i in range(g - 1):
            m = delta2_map(g, i)
            w = m.source.weights
            fields = (GF(3),) if g == 11 else (GF(3), GF(101)) + ((QQ,) if g <= 8 else ())
            for f in fields:
                # every pair passes: the lower half and the middle are ranked
                r, calls = _ranks_seen(monkeypatch, lambda: m.rank(f))
                assert len(calls) == (_classes(m) + 1) // 2, (g, i, f)
                if g <= 10:
                    ranks = _column_block_ranks(m.matrix, w, f)
                    _assert_halves_equal(ranks, min(w) + max(w))
                    # the half count equals the full count, mid class once
                    assert r == sum(ranks.values())


def test_generic_koszul_delta_is_certified(monkeypatch):
    for n in range(3, 9):
        for q in range(4):
            m = generic_koszul_delta(n, 3, q)
            _, calls = _ranks_seen(monkeypatch, lambda: m.rank(GF(3)))
            assert len(calls) == (_classes(m) + 1) // 2, (n, q)


def test_other_maps(monkeypatch):
    for d, i in ((3, 2), (4, 3), (2, 4)):
        m = psi_map(d, i)
        r, calls = _ranks_seen(monkeypatch, lambda: m.rank(QQ))
        assert (r, len(calls)) == (m.source.dim, (_classes(m) + 1) // 2), (d, i)
    # the flip conjugates lowering into raising: no pair passes
    low = lowering(RepSpace.sym(3))
    r, calls = _ranks_seen(monkeypatch, lambda: low.rank(QQ))
    assert (r, len(calls)) == (3, _classes(low))


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
    """Only the pair holding the changed entry fails, and only it is
    ranked in full: one block more than the intact map."""
    for g, i, f, blocks in ((8, 3, GF(3), 11), (9, 4, QQ, 13), (7, 2, GF(101), 8)):
        broken = _broken_delta2(g, i)
        classes = _classes(broken)
        r, calls = _ranks_seen(monkeypatch, lambda: broken.rank(f))
        assert len(calls) == (classes + 1) // 2 + 1 == blocks
        assert r == exactla.rank(broken.matrix, f)
        # the intact map ranks only the lower half (and the middle)
        _, calls = _ranks_seen(monkeypatch, lambda: delta2_map(g, i).rank(f))
        assert len(calls) == (classes + 1) // 2


def test_a_lone_map_over_q_shares_the_first_prime(monkeypatch):
    """Over Q a lone graded map hands every block it ranks to `_ranks_gf`
    at the first char-0 prime, in one call, and `_char0` sees exactly the
    blocks whose rank there is below their shape."""
    ranks_gf, char0 = exactla._ranks_gf, exactla._char0
    for m, extra in ((delta2_map(8, 3), 0), (_broken_delta2(9, 4), 1)):
        seen, lifted = [], []

        def spy_gf(blocks, p):
            blocks = list(blocks)
            seen.append((p, blocks, ranks_gf(blocks, p)))
            return seen[-1][2]

        with monkeypatch.context() as mp:
            mp.setattr(exactla, "_ranks_gf", spy_gf)
            mp.setattr(exactla, "_char0", lambda b, *a: lifted.append(b) or char0(b, *a))
            r = m.rank(QQ)
        [(p, blocks, ranks)] = seen
        assert p == next(exactla._char0_primes())
        assert len(blocks) == (_classes(m) + 1) // 2 + extra
        assert lifted == [b for b, k in zip(blocks, ranks) if k < min(b.shape)]
        assert r == exactla.rank(m.matrix, QQ)


def test_weights_must_reflect(monkeypatch):
    """A flip that keeps every weight pairs no class with its partner:
    the map below has rank 1, and counting its one nonzero block twice
    would give 2."""
    space = RepSpace.sym(3)
    m = RepMap(space, space, ExactMatrix(4, 4, {(0, 0): 1}), "e00")
    ident = np.arange(4, dtype=np.int64), np.ones(4, dtype=np.int64)
    w = [space.weights] * 2
    assert closed_ranks([m.matrix], QQ, w, [ident, ident]) == (1,)
    # both classes of a pair hold entries: each is ranked
    both = ExactMatrix(4, 4, {(0, 0): 1, (3, 3): 1})
    r, calls = _ranks_seen(monkeypatch, lambda: closed_ranks([both], QQ, w, [ident, ident]))
    assert (r, len(calls)) == ((2,), 2)
    monkeypatch.setattr(RepSpace, "flip", property(lambda self: ident))
    assert m.rank(QQ) == 1


def test_mirrored_graded_rank_counts(monkeypatch):
    """Column classes 0, 1, 2 (top 2) under the reversal flip: class 0
    stands for class 2 when their entries agree up to one sign."""
    rev = np.array([2, 1, 0], dtype=np.int64), np.ones(3, dtype=np.int64)
    for entries, r, blocks in (({(0, 0): 1, (1, 1): 2, (2, 2): 1}, 3, 2),
                               ({(0, 0): 1, (1, 1): 2, (2, 2): -1}, 3, 2),
                               ({(0, 0): 1, (1, 1): 2, (2, 2): 3}, 3, 3),
                               ({(0, 0): 1, (2, 2): 1}, 2, 1),
                               ({(0, 0): 1, (2, 2): 3}, 2, 2)):
        m = ExactMatrix(3, 3, entries)
        got, calls = _ranks_seen(monkeypatch, lambda: closed_ranks(
            [m], QQ, [[0, 1, 2]] * 2, [rev, rev]))
        assert (got, len(calls)) == ((r,), blocks), entries
    # two labels per weight (top 1): the signs of the flip count entry by
    # entry, and the images must land in the partner's columns and rows
    w, rev = [0, 0, 1, 1], np.arange(3, -1, -1, dtype=np.int64)
    for entries, signs, r, blocks in (
            ({(0, 0): 1, (1, 0): 1, (0, 1): 1, (1, 1): 2,
              (2, 2): 2, (3, 2): 1, (2, 3): -1, (3, 3): -1}, [-1, 1, 1, 1], 4, 1),
            ({(0, 1): 1, (1, 1): 1, (2, 2): 1, (3, 3): 1}, [1, 1, 1, 1], 3, 2),
            ({(0, 0): 1, (0, 1): 1, (2, 2): 1, (3, 3): 1}, [1, 1, 1, 1], 3, 2)):
        m = ExactMatrix(4, 4, entries)
        flips = (rev, np.array(signs)), (rev, np.ones(4, dtype=np.int64))
        got, calls = _ranks_seen(monkeypatch, lambda: closed_ranks([m], QQ, [w, w], flips))
        assert (got, len(calls)) == ((r,), blocks), entries


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
    assert entry(big.permuted(one), 0, 0) == 2**63


@st.composite
def _flip_cases(draw):
    """A weight-graded matrix whose row and column weights the reversal
    sends to top - w, a field, and the flips to pass: the identity, the
    reversal with random signs (under which the matrix is sometimes
    built symmetric, up to one sign), or random signed permutations."""
    top = draw(st.integers(0, 4))

    def weights():
        # ascending, with as many labels of weight w as of top - w
        half = draw(st.lists(st.integers(1, 3), min_size=top // 2 + 1, max_size=top // 2 + 1))
        return np.repeat(np.arange(top + 1), [half[min(w, top - w)] for w in range(top + 1)])

    def signed(k, perm):
        sign = draw(st.lists(st.sampled_from((-1, 1)), min_size=k, max_size=k))
        return np.array(perm, dtype=np.int64), np.array(sign, dtype=np.int64)

    rw, cw = weights(), weights()
    m, n = rw.size, cw.size
    entry = st.one_of(st.integers(-3, 3), st.integers(-2**62, 2**62), st.just(-2**63))
    a = {(r, c): draw(entry) for r in range(m) for c in range(n)
         if rw[r] == cw[c] and draw(st.integers(0, 3))}
    rev = [signed(k, range(k - 1, -1, -1)) for k in (m, n)]
    kinds = ("identity", "reversal", "random")
    if draw(st.booleans()):
        # columns above the middle: the flipped images of those below,
        # so that reversal comes first among the flips drawn
        kinds = kinds[1:] + kinds[:1]
        (tp, ts), (sp, ss) = rev
        eps = draw(st.sampled_from((-1, 1)))
        a = {k: v for k, v in a.items() if 2 * cw[k[1]] <= top}
        a.update({(int(tp[r]), int(sp[c])): eps * int(ts[r] * ss[c]) * v
                  for (r, c), v in list(a.items()) if 2 * cw[c] < top})
    kind = draw(st.sampled_from(kinds))
    if kind == "identity":
        flips = [signed(k, range(k)) for k in (m, n)]
    elif kind == "reversal":
        flips = rev
    else:
        flips = [signed(k, draw(st.permutations(range(k)))) for k in (m, n)]
    f = draw(st.sampled_from((QQ, GF(2), GF(3), GF(101))))
    if f == QQ:
        # each row and column divided by its own denominator, the same
        # for labels that the reversal swaps: rows differ in theirs, and
        # within a row the columns' differ (an integral quotient stays an int)
        den = [draw(st.lists(st.integers(1, 6), min_size=k, max_size=k)) for k in (m, n)]
        a = {(r, c): Fraction(v, den[0][min(r, m - 1 - r)] * den[1][min(c, n - 1 - c)])
             for (r, c), v in a.items()}
        a = {k: int(v) if v.denominator == 1 else v for k, v in a.items()}
    return ExactMatrix(m, n, a), rw, cw, flips, f


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_flip_cases())
def test_graded_rank_with_any_signed_flip_is_the_flat_rank(case):
    m, rw, cw, flips, f = case
    assert closed_ranks([m], f, [cw, rw], flips[::-1]) == (exactla.rank(m, f),)
    assert closed_ranks([m], f, [cw, rw]) == (exactla.rank(m, f),)


def test_flip_signs_do_not_wrap_int64(monkeypatch):
    """Block 0 = [[-2^63, -2^63], [1, 1]] has rank 1.  Under the reversal
    with sign -1 on column 0 its image holds +2^63, which wraps to -2^63
    in int64; the partner block is that wrapped image, of rank 2."""
    big = -2**63
    m = ExactMatrix(4, 4, {(0, 0): big, (0, 1): big, (1, 0): 1, (1, 1): 1,
                           (2, 2): 1, (3, 2): big, (2, 3): -1, (3, 3): big})
    assert m.val.dtype == np.int64
    rev = np.arange(3, -1, -1, dtype=np.int64)
    flips = (rev, np.array([-1, 1, 1, 1])), (rev, np.ones(4, dtype=np.int64))
    for f in (QQ, GF(3), GF(101)):
        r, calls = _ranks_seen(monkeypatch, lambda: closed_ranks(
            [m], f, [[0, 0, 1, 1]] * 2, flips))
        assert (r, len(calls)) == ((exactla.rank(m, f),), 2), f
    assert exactla.rank(m, QQ) == 3


def test_flips_must_be_signed_permutations():
    m = ExactMatrix(2, 2, {(0, 0): 1, (1, 1): 1})
    good = np.array([1, 0]), np.ones(2, dtype=np.int64)
    for bad in ((np.array([0, 0]), np.ones(2)), (np.array([1, 0]), np.array([1, 2])),
                (np.array([1, 0]), np.array([1, 0])), (np.array([2, 0, 1]), np.ones(3)),
                (np.array([1, 0]), np.ones(3))):
        for flips in ((bad, good), (good, bad)):
            with pytest.raises(ValueError, match="signed permutations"):
                closed_ranks([m], QQ, [[0, 1]] * 2, flips)
    assert closed_ranks([m], QQ, [[0, 1]] * 2, (good, good)) == (2,)
