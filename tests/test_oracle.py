from math import comb

import numpy as np
import pytest

from syzygy import cli, exactla, oracle
from syzygy.exactla import GF, QQ, closed_ranks
from syzygy.oracle import oracle_kij, ring_dim
from syzygy.tangent import betti_table, k_i1, k_i2

from _oracles import wedge_mult_reference

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
    # of 16 distinct maps, and each is ranked once, alone or in a chain
    # with its neighbours.  The chain of K_{5,2} adds a 17th map,
    # map(7, 0) = Wedge^7 W (x) R_0 -> Wedge^6 W (x) R_1, which bounds
    # map(6, 1) from its source side
    calls = []
    monkeypatch.setattr(oracle, "closed_ranks", lambda maps, *r: calls.extend(
        m.shape for m in maps) or closed_ranks(maps, *r))
    oracle._ring.cache_clear()
    kij = {(i, j): oracle_kij(7, i, j, QQ) for i in range(1, 6) for j in (1, 2)}
    assert kij == {(1, 1): 10, (1, 2): 0, (2, 1): 16, (2, 2): 0, (3, 1): 0,
                   (3, 2): 16, (4, 1): 0, (4, 2): 10, (5, 1): 0, (5, 2): 0}
    assert len(calls) == 17 and len(set(calls)) == 17


def test_every_oracle_map_over_q_is_int64():
    # the Kronecker sums equal the entry-by-entry reference, and over Q
    # the lattice bases make every map an int64 matrix
    for g in range(3, 8):
        for f in (QQ, GF(2), GF(3)) if g <= 5 else (QQ,):
            ring = oracle.ParamRing(g, f)
            for n in range(3):
                for i in range(1, g + 2):
                    m = oracle._wedge_mult_matrix(ring, i, n)
                    assert m == wedge_mult_reference(ring, i, n), (g, f, i, n)
                    assert m.val.dtype == np.int64, (g, f, i, n)


def test_a_bumped_lattice_row_lets_a_product_escape():
    # R_2 at g = 4, weight 2, on (beta, delta) = (0, 2), (1, 1), (2, 0):
    # the images (1, 2, 0) of z_0 z_2 and (1, 2, 1) of z_1^2 span the
    # lattice with Hermite normal form (1, 2, 0), (0, 0, 1).  Bumping the
    # second row's pivot to 2 leaves z_1^2, which is z_1 times the basis
    # element z_1 of R_1, outside the lattice
    ring = oracle.ParamRing(4, QQ)
    blk = ring.block(2, 2)
    assert blk.rows == [[1, 2, 0], [0, 0, 1]]
    assert ring.multiply(1, 1, 0, 1) == [1, 1]
    blk.rows[1][2] += 1
    with pytest.raises(AssertionError, match="product escaped"):
        ring.multiply(1, 1, 0, 1)


def test_blocks_are_reduced_echelon_forms():
    # over Q the Hermite normal form (positive pivots, entries above a
    # pivot in [0, pivot)), over GF(p) the RREF in residues
    for f in (QQ, GF(2), GF(3), GF(5)):
        p = f.characteristic
        ring = oracle.ParamRing(5, f)
        for n in range(4):
            ring.dim(n)
            for blk in ring._blocks[n].values():
                assert blk.pivots == sorted(set(blk.pivots))
                for k, (row, piv) in enumerate(zip(blk.rows, blk.pivots)):
                    assert not any(row[:piv]) and row[piv] > 0 and (not p or row[piv] == 1)
                    assert all(0 <= r[piv] < row[piv] for r in blk.rows[:k])
                    if p:
                        assert all(0 <= x < p for x in row)


def test_char0_oracle_lifts_kernels_only_for_map_i_2(monkeypatch, capsys):
    # `betti-oracle --g 7 --char 0`: map(i, 2)'s other neighbour,
    # map(i - 1, 3), is never built, so its blocks where K_{i,2} != 0 are
    # the only ones that may lift a kernel; every block of every other
    # map closes at the first prime
    tags, blocks, current, lifted = {}, {}, [None], []
    wedge, classes, char0, rref = (oracle._wedge_mult_matrix, exactla._weight_classes,
                                   exactla._char0, exactla._rref_gf)

    def tag_map(ring, i, n):
        m = wedge(ring, i, n)
        tags[id(m.row)] = (i, n), m                 # the scaled map shares m.row
        return m

    def tag_blocks(m, *a):
        weights, shapes, rep, block = classes(m, *a)

        def tagged(k):
            b = block(k)
            blocks[id(b)] = tags[id(m.row)][0], b
            return b

        return weights, shapes, rep, tagged

    def in_block(block, *a):
        current.append(blocks[id(block)][0])
        try:
            return char0(block, *a)
        finally:
            current.pop()

    monkeypatch.setattr(oracle, "_wedge_mult_matrix", tag_map)
    monkeypatch.setattr(exactla, "_weight_classes", tag_blocks)
    monkeypatch.setattr(exactla, "_char0", in_block)
    monkeypatch.setattr(exactla, "_rref_gf", lambda *a: lifted.append(current[-1]) or rref(*a))
    oracle._ring.cache_clear()
    assert cli.main(["betti-oracle", "--g", "7", "--char", "0"]) == 0
    oracle._ring.cache_clear()
    assert 0 < len(lifted) < 38
    assert {n for _, n in lifted} == {2}


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
