"""Partition combinatorics, carried by the labels of `reps`.

A wedge label exps of Wedge^i Sym^{d+i-1} U is the partition l with
l_k = exps_k - (i-1-k); a monomial label of Sym^d(D^i U) is a partition
with parts at most i.  The Pieri rule is `column_shift`, the
expansion of e_mu in Schur polynomials is the column of mu in
`hermite.psi_map`, and the hat of a partition (drop the j-th part, add
one to the parts before it) is `contract`; both label helpers live in
`_oracles` as the reference of the array builders of `reps`.
"""

import random
from itertools import combinations
from math import comb

from syzygy.hermite import psi_map
from syzygy.reps import RepSpace

from _oracles import (basis, column, column_shift, contract, e_mu, index,
                      schur_dual_jacobi_trudi)


def _partition(exps):
    """The partition l of the wedge label exps, trailing zeros stripped."""
    i = len(exps)
    return tuple(v for v in (e - (i - 1 - k) for k, e in enumerate(exps)) if v)


def _exps(lam, i):
    padded = lam + (0,) * (i - len(lam))
    return tuple(padded[k] + i - 1 - k for k in range(i))


def _is_partition(seq):
    return all(a >= b for a, b in zip(seq, seq[1:])) and all(a >= 0 for a in seq)


def _conjugate(lam):
    return tuple(sum(1 for part in lam if part >= j)
                 for j in range(1, (lam[0] + 1) if lam else 1))


def _wedge_family(i, d):
    """The partitions with at most i parts, each at most d, as RepSpace
    wedge labels."""
    return basis(RepSpace.wedge(i, RepSpace.sym(d + i - 1)))


def _pieri(lam, j, i):
    return [_partition(new) for new in column_shift(_exps(lam, i), j)]


def _schur_column(mu, i):
    """{partition: coeff} of the column of mu in psi."""
    pm = psi_map(len(mu), i)
    col = column(pm.matrix, index(pm.source, mu))
    return {_partition(basis(pm.target)[r]): v for r, v in enumerate(col) if v}


def test_enumerate_counts_and_examples():
    assert _wedge_family(1, 3) == ((0,), (1,), (2,), (3,))
    assert [_partition(e) for e in _wedge_family(1, 3)] == [(), (1,), (2,), (3,)]
    assert len(_wedge_family(2, 2)) == 6
    assert [_partition(e) for e in _wedge_family(2, 0)] == [()]
    for i in range(0, 9):
        for d in range(0, 9):
            fam = _wedge_family(i, d)
            assert len(fam) == comb(d + i, i)
            assert len(set(fam)) == len(fam)
            assert basis(RepSpace.wedge(i, RepSpace.div(d + i - 1))) == fam
            assert all(len(lam) <= i and all(0 < v <= d for v in lam)
                       for lam in map(_partition, fam))
            # Sym^d(D^i U) is labelled by the conjugate family
            famp = basis(RepSpace.sym_power(d, RepSpace.div(i)))
            assert len(set(famp)) == len(famp)
            assert sorted(famp) == sorted(_conjugate(_partition(e)) for e in fam)


def test_enumeration_is_lexicographic():
    for i in range(0, 5):
        for d in range(0, 5):
            fam = _wedge_family(i, d)
            assert list(fam) == sorted(fam)
            lams = [_partition(e) for e in fam]
            assert lams == sorted(lams)
            famp = basis(RepSpace.sym_power(d, RepSpace.div(i)))
            assert list(famp) == sorted(famp)
    sp = RepSpace.sym_power(2, RepSpace.free(3))
    assert basis(sp) == ((), (1,), (1, 1), (2,), (2, 1), (2, 2))


def test_pieri_examples():
    assert list(column_shift((2, 0), 1)) == [(3, 0), (2, 1)]
    assert sorted(_pieri((1,), 1, 2)) == [(1, 1), (2,)]
    assert _pieri((), 2, 2) == [(1, 1)]
    assert _pieri((2, 2), 2, 2) == [(3, 3)]
    assert _pieri((1,), 3, 2) == []                 # no 3-subset of 2 slots


def test_pieri_counts_brute_force():
    rng = random.Random(2)
    for _ in range(200):
        i = rng.randint(1, 5)
        j = rng.randint(0, i)
        lam = tuple(v for v in sorted((rng.randint(0, 4) for _ in range(i)),
                                      reverse=True) if v)
        got = _pieri(lam, j, i)
        padded = lam + (0,) * (i - len(lam))
        expected = []
        for I in combinations(range(i), j):
            cand = list(padded)
            for k in I:
                cand[k] += 1
            if _is_partition(cand):
                expected.append(tuple(v for v in cand if v))
        assert got == expected
        assert len(set(got)) == len(got)


def test_e_to_schur_examples():
    assert _schur_column((1, 1), 2) == {(2,): 1, (1, 1): 1}
    assert _schur_column((2, 2), 2) == {(2, 2): 1}
    for i in range(1, 5):
        for j in range(1, i + 1):
            assert _schur_column((j,), i) == {(1,) * j: 1}
    for i in range(0, 5):
        assert _schur_column((), i) == {(): 1}


def test_e_to_schur_against_symbolic_oracle():
    # expand both sides in monomials of z_1..z_i; the oracle Schur
    # expansion uses the dual Jacobi-Trudi determinant, not Pieri
    for i in range(1, 4):
        for d in range(0, 5):
            for mu in basis(psi_map(d, i).source):
                lhs = e_mu(mu, i)
                rhs = {}
                for lam, c in _schur_column(mu, i).items():
                    for mono, v in schur_dual_jacobi_trudi(lam, i).items():
                        rhs[mono] = rhs.get(mono, 0) + c * v
                rhs = {k: v for k, v in rhs.items() if v}
                assert lhs == rhs, (mu, i)


def _hat(lam, j, i):
    """hat(lam, j) read off `contract`: the partition of the label with
    slot j dropped."""
    rest, _, _ = list(contract(_exps(lam, i)))[j - 1]
    return _partition(rest)


def test_hat_examples():
    assert list(contract((4, 2, 0))) == [((2, 0), 4, 1), ((4, 0), 2, -1),
                                         ((4, 2), 0, 1)]
    assert _hat((2, 1), 2, 3) == (3,)
    assert _hat((), 1, 2) == ()
    assert _hat((4,), 1, 1) == ()


def test_hat_stays_in_family():
    target = set(_wedge_family(2, 5))
    for exps in _wedge_family(3, 4):
        lam = _partition(exps)
        padded = lam + (0,) * (3 - len(lam))
        for j, (rest, part, _) in enumerate(contract(exps), 1):
            assert rest in target
            assert part == exps[j - 1]
            hat = tuple(v + 1 for v in padded[:j - 1]) + padded[j:]
            assert _partition(rest) == tuple(v for v in hat if v)
