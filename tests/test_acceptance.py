"""Acceptance gate: every criterion is exact (tolerance zero) and prints
one PASS line when it holds.  Run with `pytest -s tests/test_acceptance.py`
to see the per-criterion lines.
"""

import itertools
from math import comb

from syzygy.exactla import GF, QQ, ExactMatrix, FieldSpec, kernel_basis
from syzygy.hermite import psi_compat_check, psi_map
from syzygy.koszul import (TRIVIAL, KoszulInput, chow_member,
                           hilbert_bound, random_koszul_input,
                           resonance_trivial, w_dim)
from syzygy.oracle import oracle_kij, ring_dim
from syzygy.reps import lowering, raising
from syzygy.tangent import (betti_table, hermite_square_check, k_i1, k_i2,
                            map_p_map, map_q_map, complex_J,
                            compose_symmetrized, _j_gens)

from _oracles import is_decomposable

PRIMES_TO_13 = (2, 3, 5, 7, 11, 13)


def _primes_between(lo, hi):
    return [p for p in PRIMES_TO_13 if lo <= p <= hi]


def test_criterion_1_generic_vanishing(capsys):
    """Generic vanishing: b_{floor(g/2),1} = 0 for char 0 and every
    prime (g+2)/2 <= p <= 13, for g = 3..10, through the betti command."""
    import json

    from syzygy.cli import main

    for g in range(3, 11):
        chars = [0] + [p for p in PRIMES_TO_13 if 2 * p >= g + 2]
        for ch in chars:
            code = main(["betti", "--g", str(g), "--char", str(ch),
                         "--format", "json"])
            payload = json.loads(capsys.readouterr().out)
            assert code == 0, (g, ch)
            assert payload["betti"][g // 2][1] == 0, (g, ch)
            assert payload["duality_ok"] is True, (g, ch)
    print("\nACCEPTANCE 1 (generic vanishing g=3..10): PASS")


def test_criterion_2_hilbert_function_equality():
    """For random K with dim 2n-3 and trivial resonance, the graded
    pieces match the closed-form bound exactly and vanish at n-3."""
    spot = {(4, 0): 1, (5, 0): 3, (5, 1): 5, (7, 0): 10}
    for (n, q), val in spot.items():
        assert hilbert_bound(n, q) == val
    for n in range(4, 8):
        p = next(p for p in (5, 7, 11, 13) if p >= n - 2)
        f = GF(p)
        trivial_seen = 0
        for s in range(20):
            k = random_koszul_input(n, 2 * n - 3, f, seed=77_000 + 100 * n + s)
            if resonance_trivial(k) != TRIVIAL:
                continue
            trivial_seen += 1
            for q in range(0, n - 3):
                assert w_dim(k, q) == hilbert_bound(n, q), (n, q, s)
            assert w_dim(k, n - 3) == 0, (n, s)
        assert trivial_seen > 0, f"no resonance-trivial samples at n={n}"
    print("\nACCEPTANCE 2 (Hilbert function equality n=4..7): PASS")


def test_criterion_3_three_way_betti_agreement():
    """delta2 kernels, Weyman pieces and the parametrization oracle give
    the same table entry-by-entry for g = 4..6; the g = 7 values come
    from the structured routes only."""
    for g in (4, 5, 6):
        for p in (0, 3, 5, 7):
            f = FieldSpec(p)
            for i in range(1, g - 1):
                a = k_i1(g, i, f)
                b = oracle_kij(g, i, 1, f)
                assert a == b, ("row1", g, i, p, a, b)
            for i in range(1, g - 2):
                a = k_i2(g, i, f)
                b = oracle_kij(g, i, 2, f)
                assert a == b, ("row2", g, i, p, a, b)
            # the two structured rows are Gorenstein-dual to each other
            for i in range(1, g - 2):
                assert k_i2(g, i, f) == k_i1(g, g - 2 - i, f), ("dual", g, i, p)
    bt5 = betti_table(5, QQ)
    assert bt5.entries == [[1, 0, 0, 0], [0, 3, 0, 0], [0, 0, 3, 0],
                           [0, 0, 0, 1]]
    bt7 = betti_table(7, QQ)
    assert [bt7.entries[i][1] for i in (1, 2, 3, 4)] == [10, 16, 0, 0]
    assert bt7.duality_ok
    print("\nACCEPTANCE 3 (three-way Betti agreement g=4..6, g=7 values): PASS")


def test_criterion_4_small_characteristic_law():
    """For 3 <= p <= (g+1)/2: b_{i,2} != 0 iff p-2 <= i <= g-3 and
    b_{i,1} != 0 iff 1 <= i <= g-p; includes the genus-9 char-3
    counterexample b_{4,1} != 0."""
    for (g, p) in ((7, 3), (8, 3), (9, 3)):
        bt = betti_table(g, GF(p))
        for i in range(1, g - 2):
            assert (bt.entries[i][2] != 0) == (p - 2 <= i <= g - 3), \
                ("row2", g, p, i)
        for i in range(1, g - 1):
            assert (bt.entries[i][1] != 0) == (1 <= i <= g - p), \
                ("row1", g, p, i)
    assert betti_table(9, GF(3)).entries[4][1] != 0
    print("\nACCEPTANCE 4 (small characteristic law, Schreyer g=9 p=3): PASS")


def test_criterion_5_char2_scroll_law():
    """In characteristic 2 the resolution is the Eagon-Northcott strand
    b_{i,1} = i*C(g-1, i+1), and the parametrization confirms the
    quadric count dim I_2 = C(g-1, 2)."""
    for g in range(4, 9):
        bt = betti_table(g, GF(2))
        for i in range(1, g - 1):
            assert bt.entries[i][1] == i * comb(g - 1, i + 1), (g, i)
        i2 = comb(g + 2, 2) - ring_dim(g, 2, GF(2))
        assert i2 == comb(g - 1, 2), g
    print("\nACCEPTANCE 5 (char-2 scroll law g=4..8): PASS")


def test_criterion_6_hermite_suite():
    """The reciprocity map is invertible and equivariant for d+i <= 12
    over Q, GF(2), GF(3), GF(5), GF(101); the multiplication
    compatibility square commutes over Z, so over every field, for
    d+i <= 10."""
    fields = (QQ, GF(2), GF(3), GF(5), GF(101))
    for total in range(0, 13):
        for d in range(total + 1):
            i = total - d
            pm = psi_map(d, i)
            for f in fields:
                assert pm.rank(f) == comb(d + i, i), (d, i, f)
            if d >= 1 and i >= 1:
                lhs_L = pm.matrix @ lowering(pm.source).matrix
                rhs_L = lowering(pm.target).matrix @ pm.matrix
                lhs_R = pm.matrix @ raising(pm.source).matrix
                rhs_R = raising(pm.target).matrix @ pm.matrix
                assert lhs_L == rhs_L and lhs_R == rhs_R, (d, i)
    for total in range(0, 10):
        for d in range(total + 1):
            i = total - d
            assert psi_compat_check(d, i), (d, i)
    print("\nACCEPTANCE 6 (Hermite suite d+i<=12): PASS")


def test_criterion_7_chain_map_suite():
    """dJ o dJ = 0, the p/q commuting squares, p_{i+1} o q_i = 0, and
    ker(q_i) = ker(delta2) through the reciprocity conjugation, for
    g <= 8 over char 0, 2, 3, 5."""
    from _oracles import complex_F
    fields = (QQ, GF(2), GF(3), GF(5))
    for g in range(3, 9):
        J = complex_J(g)
        F = complex_F(g)
        for i in range(2, g + 1):
            z = compose_symmetrized(J.differentials[i - 1][(0, 0)],
                                    J.differentials[i][(0, 0)],
                                    _j_gens(g, i - 2), g)
            assert z.is_zero(), ("dJ^2", g, i)
        for i in range(1, g + 1):
            from syzygy.reps import koszul_k
            lhs = koszul_k(i, g).matrix @ map_p_map(g, i).matrix
            rhs = map_p_map(g, i - 1).matrix.kron(ExactMatrix.identity(g + 1)) \
                @ J.differentials[i][(0, 0)]
            assert lhs == rhs, ("p square", g, i)
        for i in range(1, g - 1):
            key = (1, 0) if i == 1 else (0, 0)
            lhs = J.differentials[i + 1][(0, 0)] @ map_q_map(g, i).matrix
            rhs = map_q_map(g, i - 1).matrix.kron(ExactMatrix.identity(g + 1)) \
                @ F.differentials[i][key]
            assert lhs == rhs, ("q square", g, i)
        for i in range(0, g - 1):
            assert (map_p_map(g, i + 1).matrix
                    @ map_q_map(g, i).matrix).is_zero(), ("pq", g, i)
        for i in range(0, g - 1):
            assert hermite_square_check(g, i), ("conj square", g, i)
            qm = map_q_map(g, i)
            for f in fields:
                assert qm.source.dim - qm.rank(f) == k_i1(g, i, f), \
                    ("ker q", g, i, f)
    print("\nACCEPTANCE 7 (chain-map suite g<=8): PASS")


def test_criterion_8_chow_exhaustive():
    """For n = 4 over GF(2) and GF(3): the kernel-intersection criterion
    agrees with brute-force decomposable search on every hyperplane K,
    with zero disagreements."""
    for p in (2, 3):
        f = GF(p)
        disagreements = 0
        total = 0
        for lead in range(6):
            for rest in itertools.product(range(p), repeat=5 - lead):
                omega = [0] * lead + [1] + list(rest)
                k = KoszulInput(4, kernel_basis(ExactMatrix.from_rows([omega]), f), f)
                member = chow_member(k)
                brute = is_decomposable(omega, 4, f)
                total += 1
                disagreements += member != brute
        assert total == (p**6 - 1) // (p - 1)
        assert disagreements == 0, f"{disagreements} disagreements over GF({p})"
    print("\nACCEPTANCE 8 (Chow criterion exhaustive n=4): PASS")
