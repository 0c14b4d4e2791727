import hashlib
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from syzygy import hermite, tangent
from syzygy.exactla import GF, QQ, ExactMatrix, rank
from syzygy.reps import (RepSpace, delta1, generic_koszul_delta, lowering, nu, raising,
                         sympow_mul, wahl_mu1)

import _oracles
from _oracles import (basis, column, column_shift, column_shift_reference, compose, comul,
                      comul2, d_to_sym, entry, index, insert_part, koszul_k, mul, tensor_map,
                      weyman_input)

FIELDS = (QQ, GF(2), GF(3), GF(5), GF(101))


def test_space_dims():
    assert RepSpace.sym(5).dim == 6
    assert RepSpace.div(5).dim == 6
    assert RepSpace.wedge(3, RepSpace.sym(5)).dim == comb(6, 3)
    assert RepSpace.sym_power(3, RepSpace.div(4)).dim == comb(7, 4)
    assert RepSpace.tensor([RepSpace.sym(2), RepSpace.div(1)]).dim == 6
    assert RepSpace.wedge(0, RepSpace.sym(2)).dim == 1
    assert RepSpace.wedge(4, RepSpace.sym(2)).dim == 0


def test_basis_is_canonical_and_stable():
    w = RepSpace.wedge(2, RepSpace.sym(3))
    assert basis(w) == ((1, 0), (2, 0), (2, 1), (3, 0), (3, 1), (3, 2))
    sp = RepSpace.sym_power(2, RepSpace.div(2))
    assert basis(sp) == ((), (1,), (1, 1), (2,), (2, 1), (2, 2))


def test_operator_examples():
    L = lowering(RepSpace.sym(3))
    assert column(L.matrix, 3) == [0, 0, 3, 0]       # x^3 -> 3 x^2
    assert column(L.matrix, 0) == [0, 0, 0, 0]       # lowest weight dies
    R = raising(RepSpace.div(2))
    assert column(R.matrix, 1) == [0, 0, 2]          # x^(1) -> 2 x^(2)


def test_weight_commutator():
    for d in range(0, 6):
        for space in (RepSpace.sym(d), RepSpace.div(d)):
            L, R = lowering(space), raising(space)
            H = (L.matrix @ R.matrix) - (R.matrix @ L.matrix)
            for e in range(d + 1):
                col = column(H, e)
                expected = [0] * (d + 1)
                expected[e] = d - 2 * e
                assert col == expected


def test_d_to_sym():
    m = d_to_sym(2)
    assert [entry(m.matrix, i, i) for i in range(3)] == [1, 2, 1]
    assert m.rank(GF(2)) == 2
    assert d_to_sym(0).matrix == ExactMatrix.identity(1)
    assert d_to_sym(4).rank(QQ) == 5


def test_mul_and_comul():
    m = mul(1, 1)
    assert column(m.matrix, index(m.source, (1, 1))) == [0, 0, 1]   # x(x)x -> x^2
    assert mul(0, 3).matrix == ExactMatrix.identity(4)
    assert mul(2, 1).rank(QQ) == 4
    c = comul(1, 2)
    col = column(c.matrix, 3)
    nz = [(basis(c.target)[k], v) for k, v in enumerate(col) if v]
    assert nz == [((1, 2), 1)]
    assert column(comul(1, 1).matrix, 1) == [0, 1, 1, 0]
    assert column(comul(2, 2).matrix, 0)[0] == 1
    # injectivity over every field
    for f in FIELDS:
        assert comul(3, 2).rank(f) == 6


def test_wahl_mu1():
    w = wahl_mu1(3)
    src = w.source
    assert column(w.matrix, index(src, (1, 0)))[0] == 1       # x ^ 1 -> 1
    # x^{r+1} ^ x^r -> x^{2r}
    for r in range(3):
        col = column(w.matrix, index(src, (r + 1, r)))
        assert col[2 * r] == 1 and sum(map(abs, col)) == 1
    col = column(w.matrix, index(src, (3, 1)))
    assert col == [0, 0, 0, 2, 0]                           # x^3 ^ x^1 -> 2 x^3
    for f in FIELDS:
        expected = 2 * 3 - 1 if f.characteristic != 2 else None
        r = wahl_mu1(3).rank(f)
        if f.characteristic != 2:
            assert r == 5      # surjective onto Sym^4
        else:
            assert r < 5


def test_delta1_transpose_duality():
    for a in range(1, 9):
        assert delta1(a).matrix == wahl_mu1(a).matrix.transpose()
    assert delta1(3).rank(QQ) == 5
    for a in range(2, 7):
        assert delta1(a).rank(GF(2)) < 2 * a - 1
        for p in (3, 5, 101):
            assert delta1(a).rank(GF(p)) == 2 * a - 1


def test_comul2_examples():
    c = comul2(0)
    col = column(c.matrix, 2)
    nz = [(basis(c.target)[k], v) for k, v in enumerate(col) if v]
    assert nz == [((0, 2), 1)]
    col0 = column(c.matrix, 0)
    assert [(basis(c.target)[k], v) for k, v in enumerate(col0) if v] == [((0, 0), 1)]
    c3 = comul2(3)
    mid = [v for (lab, v) in
           [(basis(c3.target)[k], v) for k, v in enumerate(column(c3.matrix, 2)) if v]
           if lab == (1, 1)]
    assert mid == [2]          # the C(2,1) coefficient, zero mod 2


def test_comul2_diagram_commutes():
    # comul2 equals (id (x) d_to_sym) o comul on the nose, for a <= 8
    for a in range(0, 9):
        lhs = comul2(a)
        rhs = compose(tensor_map([RepSpace.div(a), d_to_sym(2)], "id(x)d2s"),
                      comul(a, 2))
        assert lhs.matrix == rhs.matrix


def test_koszul_k_examples():
    k = koszul_k(2, 1)
    col = column(k.matrix, 0)
    tgt = k.target
    nz = {basis(tgt)[i]: v for i, v in enumerate(col) if v}
    assert nz == {((0,), 1): 1, ((1,), 0): -1}      # x^1 ^ x^0 -> 1(x)x - x(x)1
    k1 = koszul_k(1, 4)
    assert k1.matrix.nnz == 5
    for f in FIELDS:
        assert koszul_k(2, 3).rank(f) == koszul_k(2, 3).source.dim   # injective


def test_koszul_square_zero_after_symmetrization():
    # (k_{i-1} (x) id) o k_i dies after multiplying the two Sym^d legs
    for (i, d) in ((2, 2), (3, 3), (3, 4), (4, 4)):
        ki = koszul_k(i, d)
        kim1 = koszul_k(i - 1, d)
        comp = tensor_map([kim1, RepSpace.sym(d)], "k(x)id").matrix @ ki.matrix
        # comp maps into Wedge^{i-2} (x) Sym^d (x) Sym^d; symmetrize the two legs
        wdim = RepSpace.wedge(i - 2, RepSpace.sym(d)).dim
        acc = {}
        for (r, c), v in comp.items():
            w, rest = divmod(r, (d + 1) * (d + 1))
            z1, z2 = divmod(rest, d + 1)
            key = (w, tuple(sorted((z1, z2))), c)
            acc[key] = acc.get(key, 0) + v
        assert all(v == 0 for v in acc.values())


def test_nu_examples():
    n = nu(1, 2)       # D^2 (x) Wedge^2 Sym^2 -> Wedge^2 Sym^3
    src = n.source
    tgt = n.target
    col = column(n.matrix, index(src, (1, (1, 0))))    # x^(1) (x) s_(0,0)
    nz = {basis(tgt)[i]: v for i, v in enumerate(col) if v}
    assert nz == {(2, 0): 1}                         # only s_(1,0) survives
    col = column(n.matrix, index(src, (0, (1, 0))))
    assert {basis(tgt)[i]: v for i, v in enumerate(col) if v} == {(1, 0): 1}
    col = column(n.matrix, index(src, (2, (1, 0))))
    assert {basis(tgt)[i]: v for i, v in enumerate(col) if v} == {(2, 1): 1}


def test_generic_koszul_delta():
    # v_0 ^ v_1 (x) 1 -> (v_1)(x)v_0 - (v_0)(x)v_1; monomial labels are
    # stripped partitions, so the degree-1 monomial v_0 is written ()
    d = generic_koszul_delta(2, 2, 0)
    col = column(d.matrix, 0)
    tgt = d.target
    nz = {basis(tgt)[i]: v for i, v in enumerate(col) if v}
    assert nz == {((1,), ()): 1, ((0,), (1,)): -1}
    # delta o delta = 0
    for (n, i, q) in ((4, 3, 2), (4, 2, 1), (5, 3, 1), (6, 3, 3)):
        d1 = generic_koszul_delta(n, i, q)
        d2 = generic_koszul_delta(n, i - 1, q + 1)
        assert (d2.matrix @ d1.matrix).is_zero()
    # exactness-driven rank: rank(delta_{1,q}) = dim Sym^{q+1}
    for n in (2, 3, 4):
        for q in (0, 1, 2):
            d1 = generic_koszul_delta(n, 1, q)
            target_dim = RepSpace.sym_power(q + 1, RepSpace.free(n)).dim
            assert rank(d1.matrix, QQ) == target_dim


def test_equivariance_all_maps():
    cases = []
    for a in range(0, 5):
        cases.append(d_to_sym(a))
        cases.append(comul2(a))
    for a in range(0, 4):
        for b in range(0, 4):
            cases.append(mul(a, b))
            cases.append(comul(a, b))
    for a in range(1, 6):
        cases.append(wahl_mu1(a))
        cases.append(delta1(a))
    for d in range(1, 5):
        for i in range(1, d + 2):
            cases.append(koszul_k(i, d))
    for d in range(0, 4):
        for i in range(0, 4):
            cases.append(nu(d, i))
    for m in cases:
        if m.source.dim > 500 or m.target.dim > 500:
            continue
        Ls, Lt = lowering(m.source), lowering(m.target)
        Rs, Rt = raising(m.source), raising(m.target)
        lhs_L = m.matrix @ Ls.matrix
        rhs_L = Lt.matrix @ m.matrix
        lhs_R = m.matrix @ Rs.matrix
        rhs_R = Rt.matrix @ m.matrix
        for f in FIELDS:
            assert rank(lhs_L - rhs_L, f) == 0, f"{m.name} not L-equivariant over {f}"
            assert rank(lhs_R - rhs_R, f) == 0, f"{m.name} not R-equivariant over {f}"


def test_sympow_mul():
    sm = sympow_mul(2, RepSpace.div(2))
    src = sm.source
    col = column(sm.matrix, index(src, (1, (2, 1))))
    nz = {basis(sm.target)[i]: v for i, v in enumerate(col) if v}
    assert nz == {(2, 1, 1): 1}


def test_free_space_has_no_sl2_action():
    with pytest.raises(ValueError):
        lowering(RepSpace.free(3))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(st.integers(1, 9), max_size=8), st.integers(0, 9))
def test_insert_part_is_sorted_insertion(parts, v):
    mu = tuple(sorted(parts, reverse=True))
    assert insert_part(mu, v) == tuple(x for x in sorted(mu + (v,), reverse=True) if x)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.sets(st.integers(0, 12), max_size=8), st.integers(0, 9))
def test_column_shift_matches_subset_loop(parts, j):
    exps = tuple(sorted(parts, reverse=True))
    assert column_shift(exps, j) == column_shift_reference(exps, j)


# sha256 of (shape, sorted (row, col, value) triples) of every matrix of
# each factory over the ranges below, recorded from the per-factory
# matrix assembly that the image-based `_build` replaced.  The nu and
# sympow_mul digests were derived from those matrices with each source
# column (a, b) moved to (b, a), when their tensor factors were swapped;
# "delta1_tangent" is the multiplication delta1 of the Hermite square.
_SPACES = (RepSpace.sym(3), RepSpace.div(4), RepSpace.wedge(2, RepSpace.sym(4)),
           RepSpace.wedge(3, RepSpace.div(5)),
           RepSpace.tensor([RepSpace.div(2), RepSpace.sym(3)]),
           RepSpace.sym_power(3, RepSpace.div(2)),
           RepSpace.sym_power(2, RepSpace.sym(3)))
_G = range(3, 8)
_FACTORIES = {
    "lowering": lambda: [lowering(s).matrix for s in _SPACES],
    "raising": lambda: [raising(s).matrix for s in _SPACES],
    "d_to_sym": lambda: [d_to_sym(d).matrix for d in range(6)],
    "mul": lambda: [mul(a, b).matrix for a in range(4) for b in range(4)],
    "comul": lambda: [comul(a, b).matrix for a in range(4) for b in range(4)],
    "wahl_mu1": lambda: [wahl_mu1(a).matrix for a in range(1, 6)],
    "delta1": lambda: [delta1(a).matrix for a in range(1, 7)],
    "comul2": lambda: [comul2(a).matrix for a in range(5)],
    "koszul_k": lambda: [koszul_k(i, d).matrix
                         for d in range(6) for i in range(1, d + 2)],
    "nu": lambda: [nu(d, i).matrix for d in range(5) for i in range(5)],
    "generic_koszul_delta": lambda: [generic_koszul_delta(n, i, q).matrix
                                     for n in range(3, 6) for i in range(n + 1)
                                     for q in range(4)],
    "sympow_mul": lambda: [sympow_mul(d, s).matrix for d in range(4)
                           for s in (RepSpace.div(1), RepSpace.div(3),
                                     RepSpace.sym(2), RepSpace.free(3))],
    "psi_map": lambda: [hermite.psi_map(d, i).matrix
                        for d in range(5) for i in range(5)],
    "delta2_map": lambda: [tangent.delta2_map(g, i).matrix
                           for g in _G for i in range(g - 1)],
    "map_p_map": lambda: [tangent.map_p_map(g, i).matrix
                          for g in _G for i in range(g + 2)],
    "map_q_map": lambda: [tangent.map_q_map(g, i).matrix
                          for g in _G for i in range(g - 1)],
    "delta1_tangent": lambda: [sympow_mul(g - 1 - i, RepSpace.div(i + 1)).matrix
                               for g in _G for i in range(g - 1)],
    "complex_F": lambda: [m for g in _G
                          for d in _oracles.complex_F(g).differentials[1:]
                          for m in d.values()],
    "complex_J": lambda: [m for g in _G
                          for d in tangent.complex_J(g).differentials[1:]
                          for m in d.values()],
    "weyman_kgens": lambda: [weyman_input(a, QQ).kgens for a in range(2, 7)],
}
_DIGESTS = {
    "lowering": "f8f9367c13067e1ebe8708723ea122cdd230d8236fb4f90e67b3473a22ba338f",
    "raising": "c3764a9f35f9809ce6dc170bfced94206f94fef2f277df2aca7854dda5c22ce3",
    "d_to_sym": "499bbabd301afff1a014206896f04929e04cdbe4f5b8cb2b2c81a9eb5166a3ef",
    "mul": "2f187b61563f353392e9ea3c44f17df91c49524e189ea888a1d8835852c10e30",
    "comul": "5d4e5c1aa093df473bd3ccbc2f306665d62d72415fbe664f365a2f2e431b154b",
    "wahl_mu1": "98d41ff155276e4d76d2fbcdb4bad682bedcd2f852acb4735aa208a8bfee1c84",
    "delta1": "54d167d9c78b7d2955d00f70d159ac2db289d41634503a4a702bef577337d9db",
    "comul2": "29d441277ea587db051be76d10258a1c6269480b5aef6ba276469a34a83fd0bc",
    "koszul_k": "6883b6c586a4e9453ad3daa64fc3c5e54a5a02d24d25eb6df69d3f5c88730fdd",
    "nu": "004b597f6a3cf5a6a7077c0b9a5ba5abd74c0b617245a4a7569859ccae2068e4",
    "generic_koszul_delta": "18552b67f47c42d9180b43b39fcc2e56e3f3c98dfba552434472a6da7d5f07f9",
    "sympow_mul": "b62d820f05a871bf5850971f181c2ca86a438da06c5c6ad9c70499556be72178",
    "psi_map": "6c26433ccaaac18e5e03dc2e765b3ff8d1ce022ba45377702d8541828e467c53",
    "delta2_map": "f51accc6a81bd2c888fb4c8ebce675ce9afec347a77920ec21578eaf46f00171",
    "map_p_map": "32a2dd9ee33c8b335190d853bd3aa1442399f0bee3f9d965a9b351ea80b57439",
    "map_q_map": "eff8a7e6e7baefc35bce47554b86c64b21b5c4537c069310a6ee2005aa8ca5e4",
    "delta1_tangent": "7e9ff1c359fb0056ef1450c6e45c153177147e09bdd5428913d621cce5b6c456",
    "complex_F": "9108f76e53c3d95e26d418181a5ca5b5a6e5d1d4a29521881153b84766785795",
    "complex_J": "26c8fca67a6476724a6f3925215f6c97fc35ae2ff8592a70e468ee0c8af7eb3c",
    "weyman_kgens": "c63344165d463ccbf4e803f6b048db46432229991209b8139c608119b02b7001",
}


def test_builders_match_recorded_matrices():
    for name, build in _FACTORIES.items():
        h = hashlib.sha256()
        for m in build():
            h.update(repr((m.shape, sorted(m.items()))).encode())
        assert h.hexdigest() == _DIGESTS[name], name
