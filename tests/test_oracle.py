from math import comb

import pytest

from syzygy import oracle
from syzygy.exactla import GF, QQ, closed_ranks, graded_rank
from syzygy.oracle import oracle_kij, ring_dim
from syzygy.tangent import betti_table, k_i1, k_i2

CHARS_NO2 = (QQ, GF(3), GF(5), GF(7))


def test_ring_dim_examples():
    assert ring_dim(3, 2, QQ) == 10           # no quadrics through the surface
    assert ring_dim(4, 2, QQ) == 14           # exactly one quadric
    for g in (3, 4, 5, 6):
        for f in (QQ, GF(2), GF(3), GF(5)):
            assert ring_dim(g, 1, f) == g + 1
            assert ring_dim(g, 0, f) == 1


def test_charts_agree_away_from_p_dividing_g():
    for g in (3, 4, 5):
        for f in (QQ, GF(3), GF(5), GF(7)):
            p = f.characteristic
            if p and g % p == 0:
                continue
            for n in (1, 2, 3):
                assert ring_dim(g, n, f, chart="jet") == \
                    ring_dim(g, n, f, chart="deriv"), (g, n, f)


def test_deriv_chart_collapses_when_p_divides_g():
    # the two-derivative span degenerates: z_0 = a*g*s^{g-1} dies mod 2
    assert ring_dim(4, 1, GF(2), chart="deriv") < 5
    assert ring_dim(4, 1, GF(2), chart="jet") == 5


def test_quadric_counts_char2():
    for g in (4, 5, 6):
        i2 = comb(g + 2, 2) - ring_dim(g, 2, GF(2))
        assert i2 == comb(g - 1, 2)


def test_oracle_kij_g4():
    assert oracle_kij(4, 1, 1, QQ) == 1
    assert oracle_kij(4, 1, 2, QQ) == 1


def test_oracle_kij_g5():
    assert oracle_kij(5, 1, 1, QQ) == 3
    assert oracle_kij(5, 2, 2, QQ) == 3
    assert oracle_kij(5, 2, 1, QQ) == 0
    assert oracle_kij(5, 1, 2, QQ) == 0
    assert oracle_kij(5, 1, 1, GF(2)) == 6    # Eagon-Northcott: 1 * C(4,2)


def test_oracle_ranks_each_map_once(monkeypatch):
    # Wedge^{i+1} W (x) R_{j-1} -> Wedge^i W (x) R_j is the map into K_{i,j}
    # and the map out of K_{i+1,j-1}: `betti-oracle --g 7` reads 20 ranks
    # of 16 distinct maps, and each is ranked once, alone or with its
    # neighbour
    calls = []
    monkeypatch.setattr(oracle, "graded_rank",
                        lambda m, *a: calls.append(m.shape) or graded_rank(m, *a))
    monkeypatch.setattr(oracle, "closed_ranks", lambda a, b, *r: calls.extend(
        (a.shape, b.shape)) or closed_ranks(a, b, *r))
    oracle._ring.cache_clear()
    kij = {(i, j): oracle_kij(7, i, j, QQ) for i in range(1, 6) for j in (1, 2)}
    assert kij == {(1, 1): 10, (1, 2): 0, (2, 1): 16, (2, 2): 0, (3, 1): 0,
                   (3, 2): 16, (4, 1): 0, (4, 2): 10, (5, 1): 0, (5, 2): 0}
    assert len(calls) == 16


def test_oracle_matches_delta2_row():
    for g in (4, 5):
        for f in (QQ, GF(2), GF(3), GF(5), GF(7)):
            for i in range(1, g - 1):
                assert oracle_kij(g, i, 1, f) == k_i1(g, i, f), (g, i, f)


def test_oracle_matches_weyman_row():
    for g in (4, 5):
        for f in CHARS_NO2:
            for i in range(1, g - 2):
                assert oracle_kij(g, i, 2, f) == k_i2(g, i, f), (g, i, f)


def test_hilbert_function_consistency():
    # dim R_n equals the alternating sum over the Betti table
    for g in (4, 5):
        for f in (QQ, GF(2), GF(3)):
            bt = betti_table(g, f)
            for n in range(0, 6):
                predicted = 0
                for i in range(g - 1):
                    for j in range(4):
                        b = bt.entries[i][j]
                        if b and n - i - j >= 0:
                            predicted += (-1) ** i * b * comb(n - i - j + g, g)
                assert ring_dim(g, n, f) == predicted, (g, n, f)


def test_guard():
    assert ring_dim(8, 1, QQ) == 9


def test_invalid_input():
    with pytest.raises(ValueError):
        oracle_kij(4, 0, 1, QQ)
    with pytest.raises(ValueError):
        ring_dim(4, -1, QQ)
