from math import comb
from types import SimpleNamespace

import pytest

from syzygy.exactla import GF, QQ, ExactMatrix, rank
from syzygy.hermite import psi_compat_check, psi_map
from syzygy.reps import lowering, raising

import _oracles
from _oracles import basis, column, entry, index, psi_inverse

FIELDS = (QQ, GF(2), GF(3), GF(5), GF(101))


def test_psi_base_cases():
    # d = 0: 1 -> x^{i-1} ^ ... ^ x ^ 1
    for i in range(1, 6):
        pm = psi_map(0, i)
        assert pm.source.dim == pm.target.dim == 1
        assert basis(pm.target)[0] == tuple(range(i - 1, -1, -1))
        assert entry(pm.matrix, 0, 0) == 1
    # i = 1: x^((1))^k x^((0))^{d-k} -> x^k
    for d in range(0, 5):
        pm = psi_map(d, 1)
        for c, mu in enumerate(basis(pm.source)):
            k = len(mu)             # number of parts equal to 1
            col = column(pm.matrix, c)
            assert [e for e, v in enumerate(col) if v] == [index(pm.target, (k,))]


def test_psi_d2_i2_example():
    pm = psi_map(2, 2)
    col = column(pm.matrix, index(pm.source, (1, 1)))
    nz = {basis(pm.target)[k] for k, v in enumerate(col) if v}
    assert nz == {(3, 0), (2, 1)}          # x^3 ^ 1 + x^2 ^ x
    assert all(v in (0, 1) for v in col)


def test_dimension_symmetry():
    for d in range(0, 7):
        for i in range(0, 7):
            pm = psi_map(d, i)
            assert pm.source.dim == pm.target.dim == comb(d + i, i)


def test_psi_is_canonical():
    # psi is merged from its Pieri parts without a sort: it must equal,
    # coordinate for coordinate and in dtype, what the constructor's
    # sort, sum and zero filter make of its arrays; psi(80, 2) has
    # entries past int64, so its values stay Python ints
    cases = [(d, total - d) for total in range(13) for d in range(total + 1)]
    for d, i in cases + [(80, 2)]:
        m = psi_map(d, i).matrix
        ref = ExactMatrix(m.rows, m.cols, (m.row, m.col, m.val))
        assert m == ref and m.val.dtype == ref.val.dtype, (d, i)
    assert psi_map(80, 2).matrix.val.dtype == object


@pytest.mark.parametrize("f", FIELDS)
def test_bijective_and_equivariant(f):
    for total in range(0, 9):
        for d in range(total + 1):
            i = total - d
            pm = psi_map(d, i)
            assert pm.rank(f) == comb(d + i, i), (d, i, f)
            if d == 0 or i == 0:
                continue
            L1, L2 = lowering(pm.source), lowering(pm.target)
            R1, R2 = raising(pm.source), raising(pm.target)
            assert rank(pm.matrix @ L1.matrix - L2.matrix @ pm.matrix, f) == 0, (d, i, f)
            assert rank(pm.matrix @ R1.matrix - R2.matrix @ pm.matrix, f) == 0, (d, i, f)


def test_compat_square():
    assert psi_compat_check(0, 2)
    assert psi_compat_check(3, 3)
    assert psi_compat_check(2, 4)
    for total in range(0, 8):
        for d in range(total + 1):
            i = total - d
            assert psi_compat_check(d, i), (d, i)


def test_psi_inverse_rejects_a_singular_matrix(monkeypatch):
    # invertible over Q, singular over GF(2)
    m = ExactMatrix.from_rows([[1, 1], [1, -1]])
    monkeypatch.setattr(_oracles, "psi_map", lambda d, i: SimpleNamespace(matrix=m))
    assert rank(m @ psi_inverse(1, 1, QQ) - ExactMatrix.identity(2), QQ) == 0
    with pytest.raises(ValueError):
        psi_inverse(1, 1, GF(2))


def test_psi_wrapper_and_inverse():
    h = psi_map(3, 2)
    assert h.matrix.shape == (10, 10)
    inv = psi_inverse(3, 2, GF(3))
    prod = h.matrix @ inv
    assert rank(prod - ExactMatrix.identity(10), GF(3)) == 0
    invq = psi_inverse(2, 2, QQ)
    assert rank(psi_map(2, 2).matrix @ invq - ExactMatrix.identity(6), QQ) == 0
    m = psi_map(4, 3).matrix
    for f in (QQ, GF(2)):
        inv = psi_inverse(4, 3, f)
        assert inv.shape == m.shape == (35, 35)
        assert rank(m @ inv - ExactMatrix.identity(35), f) == 0
        assert rank(inv @ m - ExactMatrix.identity(35), f) == 0
    with pytest.raises(ValueError):
        psi_map(-1, 2)
