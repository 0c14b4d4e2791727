from math import comb

import pytest

from syzygy.exactla import GF, QQ, ExactMatrix, rank
from syzygy.koszul import w_dim
from syzygy.reps import koszul_k
from syzygy.tangent import (_j_gens, betti_table,
                            complex_J, compose_symmetrized, delta2_map,
                            hermite_square_check, k_i1, k_i2, map_p_map,
                            map_q_map, weyman_dim)

from _oracles import _smono, basis, complex_F, complex_K, realize_block, term_dim, weyman_input

CHARS = (QQ, GF(2), GF(3), GF(5))


# -- Weyman modules ----------------------------------------------------------

def test_weyman_a2_is_zero():
    for f in (QQ, GF(3), GF(7)):
        assert all(weyman_dim(2, q, f) == 0 for q in range(4))


def test_weyman_values_char0():
    assert weyman_dim(4, 0, QQ) == 3            # = hilbert_bound(5, 0)
    assert weyman_dim(5, 0, QQ) == 6
    assert weyman_dim(5, 1, QQ) == 16
    assert weyman_dim(5, 2, QQ) == 21
    assert weyman_dim(5, 3, QQ) == 0
    assert weyman_dim(6, 1, QQ) == 35


def test_weyman_small_char_never_vanishes():
    # resonance is nonzero for 3 <= p <= n-1, so every graded piece is positive
    for q in range(6):
        assert weyman_dim(4, q, GF(3)) > 0
    for q in range(4):
        assert weyman_dim(6, q, GF(5)) > 0


def test_weyman_char2_rejected():
    with pytest.raises(ValueError):
        weyman_dim(3, 0, GF(2))
    with pytest.raises(ValueError):
        weyman_input(3, GF(2))


def test_weyman_input_shape():
    k = weyman_input(4, QQ)
    assert k.n == 5
    assert k.m == 2 * 4 - 1
    assert w_dim(k, 1) == 5                     # = hilbert_bound(5, 1)


@pytest.mark.parametrize("f,top", [(GF(3), 9), (GF(5), 9), (GF(101), 9), (QQ, 7)])
def test_weyman_dim_matches_presentation(f, top):
    """The delta2 route against the cokernel presentation of W_q(V, K)
    for the Weyman input, at every (a, q) with a + q <= top."""
    for a in range(2, top + 1):
        k = weyman_input(a, f)
        for q in range(top - a + 1):
            assert weyman_dim(a, q, f) == w_dim(k, q), (a, q, f)


# -- delta2 and the Betti rows ------------------------------------------------

def test_delta2_injective_at_i0():
    for g in (4, 5, 7):
        m = delta2_map(g, 0)
        assert m.source.dim == g - 1
        assert m.rank(QQ) == m.rank(GF(2)) == m.source.dim


def test_delta2_g4_unique_quadric():
    assert k_i1(4, 1, QQ) == 1


def test_delta2_vanishing_instance():
    assert k_i1(7, 3, QQ) == 0                  # the g=7 generic vanishing


def test_k_i1_values():
    assert k_i1(5, 1, QQ) == 3
    assert k_i1(7, 2, QQ) == 16
    assert k_i1(7, 1, GF(3)) > 0                # scroll syzygies in char 3


def test_k_i2_values():
    assert k_i2(7, 4, QQ) == 10
    assert k_i2(7, 2, QQ) == 0
    assert k_i2(9, 1, GF(3)) > 0
    with pytest.raises(ValueError):
        k_i2(7, 5, QQ)
    with pytest.raises(ValueError):
        k_i2(7, 1, GF(2))


def test_library_computes_past_the_cli_guard():
    # the resource guard on g is a policy of the CLI alone
    assert k_i1(13, 1, GF(5)) == 55


# -- Betti tables -------------------------------------------------------------

def test_betti_g3():
    bt = betti_table(3, QQ)
    assert bt.entries == [[1, 0, 0, 0], [0, 0, 0, 1]]


def test_betti_g4_char0():
    # complete intersection of the quadric and the cubic through the surface
    bt = betti_table(4, QQ)
    assert bt.entries == [[1, 0, 0, 0], [0, 1, 1, 0], [0, 0, 0, 1]]
    assert bt.duality_ok


def test_betti_g5_char0():
    bt = betti_table(5, QQ)
    assert bt.entries == [[1, 0, 0, 0], [0, 3, 0, 0], [0, 0, 3, 0], [0, 0, 0, 1]]
    assert bt.duality_ok
    assert bt.methods[1][1] == "delta2"
    assert bt.methods[2][2] == "weyman"


def test_betti_char2_strands():
    bt = betti_table(5, GF(2))
    assert [bt.entries[i][1] for i in range(1, 4)] == [6, 8, 3]
    assert bt.duality_ok is None
    bt7 = betti_table(7, GF(2))
    assert [bt7.entries[i][1] for i in range(1, 6)] == [15, 40, 45, 24, 5]
    assert all(bt7.entries[i][2] == 0 for i in range(6))
    assert bt7.entries[5][3] == 0
    # genus 7 in characteristic 2: the generic-vanishing spot is occupied
    assert bt7.entries[7 // 2][1] != 0


def test_betti_duality_more_characteristics():
    for g, p in ((6, 11), (8, 11), (7, 5), (8, 7)):
        assert betti_table(g, GF(p)).duality_ok, (g, p)


def test_betti_duality_small_char():
    for g, p in ((7, 3), (6, 3), (8, 5)):
        bt = betti_table(g, GF(p))
        assert bt.duality_ok, (g, p)


def test_betti_invalid():
    with pytest.raises(ValueError):
        betti_table(2, QQ)


# -- the complexes ------------------------------------------------------------

@pytest.mark.parametrize("g", (3, 4, 5, 6))
def test_complex_J_square_zero(g):
    J = complex_J(g)
    for i in range(2, g + 1):
        z = compose_symmetrized(J.differentials[i - 1][(0, 0)],
                                J.differentials[i][(0, 0)],
                                _j_gens(g, i - 2), g)
        assert z.is_zero(), (g, i)


@pytest.mark.parametrize("g", (4, 5, 6))
def test_complex_J_homology(g):
    J = complex_J(g)
    d1 = J.differentials[1][(0, 0)]
    d2 = J.differentials[2][(0, 0)]
    for f in (QQ, GF(2), GF(5)):
        # H0 = k in degree 0, zero in degrees 1..4
        assert _j_gens(g, 0).dim == 1
        for n in range(1, 5):
            d1r = realize_block(d1, _j_gens(g, 1), _j_gens(g, 0), g, n - 1)
            h0 = _smono(g, n).dim - rank(d1r, f)
            assert h0 == 0, (g, n, f)
        # H1 in degree n is the canonical module piece of dimension ng - 1
        for n in (1, 2, 3):
            d1r = realize_block(d1, _j_gens(g, 1), _j_gens(g, 0), g, n - 1)
            ker = d1r.cols - rank(d1r, f)
            im = rank(realize_block(d2, _j_gens(g, 2), _j_gens(g, 1), g, n - 2),
                      f) if n >= 2 else 0
            assert ker - im == n * g - 1, (g, n, f)


@pytest.mark.parametrize("g", (4, 5, 6, 7))
def test_complex_F_linear_square_zero(g):
    F = complex_F(g)
    for i in range(3, g - 1):
        z = compose_symmetrized(F.differentials[i - 1][(0, 0)],
                                F.differentials[i][(0, 0)],
                                F.terms[i - 2][0].space, g)
        assert z.is_zero(), (g, i)
    if g >= 5:
        z = compose_symmetrized(F.differentials[1][(1, 0)],
                                F.differentials[2][(0, 0)],
                                F.terms[0][1].space, g)
        assert z.is_zero()


def test_complex_F_terms():
    g = 6
    F = complex_F(g)
    assert term_dim(F, 0) == 1 + (g - 1)
    for i in range(1, g - 1):
        assert term_dim(F, i) == (2 * i + 1) * comb(g - 1, i + 1)


@pytest.mark.parametrize("g", (4, 5, 6))
def test_complex_F_odd_even_split_char2(g):
    F = complex_F(g)
    for i in range(2, g - 1):
        src = F.terms[i][0].space
        tgt = F.terms[i - 1][0].space
        for (rr, c), v in F.differentials[i][(0, 0)].items():
            if v % 2:
                t_src = basis(src)[c][0]
                s_tgt = basis(tgt)[rr // (g + 1)][0]
                assert t_src % 2 == s_tgt % 2


# -- chain maps ---------------------------------------------------------------

@pytest.mark.parametrize("g", (4, 5, 6))
def test_p_is_chain_map_and_surjective(g):
    J = complex_J(g)
    for i in range(1, g + 1):
        lhs = koszul_k(i, g).matrix @ map_p_map(g, i).matrix
        rhs = map_p_map(g, i - 1).matrix.kron(ExactMatrix.identity(g + 1)) \
            @ J.differentials[i][(0, 0)]
        assert lhs == rhs, (g, i)
    for f in CHARS:
        for i in range(0, g + 1):
            pm = map_p_map(g, i)
            assert pm.rank(f) == pm.target.dim, (g, i, f)


def test_p_edge_cases():
    assert map_p_map(5, 0).matrix == ExactMatrix.identity(1)
    pm = map_p_map(4, 5)            # Wedge^{g+1} Sym^{g-1} U = 0
    assert pm.source.dim == 0 and pm.target.dim == 1


@pytest.mark.parametrize("g", (4, 5, 6))
def test_q_chain_square_and_pq_zero(g):
    F = complex_F(g)
    J = complex_J(g)
    for i in range(1, g - 1):
        key = (1, 0) if i == 1 else (0, 0)
        lhs = J.differentials[i + 1][(0, 0)] @ map_q_map(g, i).matrix
        rhs = map_q_map(g, i - 1).matrix.kron(ExactMatrix.identity(g + 1)) \
            @ F.differentials[i][key]
        assert lhs == rhs, (g, i)
    for i in range(0, g - 1):
        assert (map_p_map(g, i + 1).matrix @ map_q_map(g, i).matrix).is_zero()


@pytest.mark.parametrize("g", (4, 5, 6, 7))
def test_ker_q_equals_ker_delta2(g):
    for f in CHARS:
        for i in range(0, g - 1):
            qm = map_q_map(g, i)
            assert qm.source.dim - qm.rank(f) == k_i1(g, i, f), (g, i, f)


@pytest.mark.parametrize("g", (4, 5, 6))
def test_coker_q_is_weyman_piece(g):
    for f in (QQ, GF(3), GF(5)):
        for i in range(1, g - 1):
            qm = map_q_map(g, i)
            pm = map_p_map(g, i + 1)
            ker_p = pm.source.dim - pm.rank(f)
            assert ker_p - qm.rank(f) == weyman_dim(i + 1, g - 2 - i, f)


def test_coker_q0_vanishes():
    # at i = 0 the cokernel is the a=2 Weyman piece, which is zero
    for g in (4, 5, 6):
        qm = map_q_map(g, 0)
        pm = map_p_map(g, 1)
        for f in (QQ, GF(5)):
            assert (pm.source.dim - pm.rank(f)) - qm.rank(f) == 0


@pytest.mark.parametrize("g", (4, 5, 6))
def test_hermite_squares(g):
    for i in range(0, g - 1):
        assert hermite_square_check(g, i), (g, i)


def test_hermite_square_examples():
    assert hermite_square_check(5, 1)
    assert hermite_square_check(6, 2)
    assert hermite_square_check(4, 0)


def test_complex_K_is_exact_in_positive_degrees():
    g = 4
    K = complex_K(g)
    for i in range(2, g + 1):
        z = compose_symmetrized(K.differentials[i - 1][(0, 0)],
                                K.differentials[i][(0, 0)],
                                K.terms[i - 2][0].space, g)
        assert z.is_zero()
