"""The array builders of `reps`, `hermite` and `tangent` against the
label-level references of `tests/_oracles.py`, which assemble the same
maps one basis tuple at a time, past the ranges that
`test_reps.test_builders_match_recorded_matrices` pins by digest; the
label arithmetic helpers (`_insertions`, `_pieri`, `_contract`) against
their tuple forms on random labels; a psi with entries past int64; and
the positions that `RepSpace.find` computes from label rows."""

import functools
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from syzygy import hermite
from syzygy.exactla import GF
from syzygy.hermite import psi_map
from syzygy.reps import (RepSpace, _contract, _insertions, _pieri, generic_koszul_delta,
                         lowering, nu)
from syzygy.tangent import delta2_map, map_q_map

from _oracles import (basis, basis_reference, column, column_shift_reference, contract,
                      delta2_reference, generic_koszul_delta_reference, index, insert_part,
                      lowering_reference, map_q_reference, nu_reference, psi_reference)


def _same(m, ref):
    assert m.matrix == ref.matrix, m.name
    assert (m.source.dim, m.target.dim) == (ref.source.dim, ref.target.dim), m.name


@pytest.mark.parametrize("total, slab", [
    pytest.param(t, slab, id=str(t) if slab is None else f"{t}-slab{slab}")
    for slab in (None, 0) for t in range(13)])
def test_psi_and_nu_match_the_label_reference(monkeypatch, total, slab):
    if slab is not None:        # slab 0: psi built with every column a run of its own
        monkeypatch.setattr(hermite, "_SQUARE_SLAB", slab)
        psi_map.cache_clear()
    for d in range(total + 1):
        _same(psi_map(d, total - d), psi_reference(d, total - d))
        _same(nu(d, total - d), nu_reference(d, total - d))


@pytest.mark.parametrize("g", range(3, 13))
def test_delta2_and_q_match_the_label_reference(g):
    for i in range(g - 1):
        _same(delta2_map(g, i), delta2_reference(g, i))
        _same(map_q_map(g, i), map_q_reference(g, i))


@pytest.mark.parametrize("n", range(1, 8))
def test_generic_koszul_delta_matches_the_label_reference(n):
    for i in range(n + 1):
        for q in range(4):
            _same(generic_koszul_delta(n, i, q), generic_koszul_delta_reference(n, i, q))


def test_psi_keeps_entries_past_int64():
    """Column mu = (1^80) of psi(80, 2) is e_1^80 = sum_k f^(80-k,k) s_(80-k,k),
    the two-row tableau counts; f^(40,40) = C_40 is about 2.6e21."""
    m = psi_map(80, 2)
    col = dict(zip(basis(m.target), column(m.matrix, int(m.source.find(np.ones((1, 80),
                                                                              dtype=np.int64))[0]))))
    expect = {(81 - k, k): comb(80, k) - (comb(80, k - 1) if k else 0) for k in range(41)}
    assert {lab: v for lab, v in col.items() if v} == expect
    assert expect[(41, 40)] == comb(80, 40) // 41 > 2**63
    assert m.rank(GF(2)) == m.source.dim == 3321


@functools.lru_cache(maxsize=None)
def _insertion_table(d: int):
    space, bigger = RepSpace.sym_power(d, RepSpace.div(7)), RepSpace.sym_power(d + 1, RepSpace.div(7))
    return space, bigger, _insertions(space, bigger)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(st.integers(1, 7), max_size=5), st.integers(0, 7))
def test_insertions_match_insert_part(parts, v):
    mu = tuple(sorted(parts, reverse=True))
    space, bigger, table = _insertion_table(len(mu))
    col = space.find(np.array(mu, dtype=np.int64).reshape(1, len(mu)))[0]
    assert basis(bigger)[table[v, col]] == insert_part(mu, v)


@functools.lru_cache(maxsize=None)
def _pieri_table(i: int, m: int):
    space = RepSpace.wedge(i, RepSpace.sym(m))
    j, pos, src = _pieri(space, RepSpace.wedge(i, RepSpace.sym(m + 1)))
    return space, j, pos, src


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.sets(st.integers(0, 9), max_size=6), st.integers(0, 2), st.integers(0, 6))
def test_pieri_matches_the_subset_loop(parts, extra, j):
    exps = tuple(sorted(parts, reverse=True))
    m = (exps[0] if exps else 0) + extra
    space, js, pos, src = _pieri_table(len(exps), m)
    col = space.find(np.array(exps, dtype=np.int64).reshape(1, len(exps)))[0]
    bigger = RepSpace.wedge(len(exps), RepSpace.sym(m + 1))
    got = sorted(basis(bigger)[p] for p in pos[(src == col) & (js == j)])
    assert got == sorted(column_shift_reference(exps, j))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.sets(st.integers(0, 9), max_size=6))
def test_contract_matches_the_tuple_contraction(parts):
    exps = tuple(sorted(parts, reverse=True))
    space = RepSpace.wedge(len(exps), RepSpace.sym(9))
    col = space.find(np.array(exps, dtype=np.int64).reshape(1, len(exps)))[0]
    smaller = RepSpace.wedge(len(exps) - 1, RepSpace.sym(9)) if exps else None
    got = [(basis(smaller)[where[col]], int(part[col]), sign)
           for where, part, sign in _contract(space)]
    assert got == list(contract(exps))


_LOWERED = (RepSpace.sym(0), RepSpace.sym(5), RepSpace.div(0), RepSpace.div(6),
            RepSpace.sym(-1), RepSpace.free(4),
            RepSpace.wedge(3, RepSpace.sym(6)), RepSpace.wedge(4, RepSpace.div(7)),
            RepSpace.wedge(0, RepSpace.sym(3)), RepSpace.wedge(5, RepSpace.sym(4)),
            RepSpace.sym_power(4, RepSpace.div(3)), RepSpace.sym_power(3, RepSpace.sym(5)),
            RepSpace.sym_power(0, RepSpace.div(2)), RepSpace.sym_power(3, RepSpace.free(3)),
            RepSpace.tensor([RepSpace.div(3), RepSpace.sym_power(2, RepSpace.div(2))]),
            RepSpace.tensor([RepSpace.wedge(2, RepSpace.sym(4)), RepSpace.sym(2),
                             RepSpace.div(1)]))


@pytest.mark.parametrize("space", _LOWERED, ids=repr)
def test_lowering_matches_the_label_reference(space):
    if space.kind == "free" or getattr(space.inner, "kind", None) == "free":
        for build in (lowering, lowering_reference):
            with pytest.raises(ValueError, match="no sl2 action"):
                build(space)
        return
    _same(lowering(space), lowering_reference(space))


_FOUND = (RepSpace.sym(4), RepSpace.div(0), RepSpace.free(5), RepSpace.sym(-1),
          RepSpace.wedge(3, RepSpace.sym(6)), RepSpace.wedge(2, RepSpace.div(4)),
          RepSpace.wedge(3, RepSpace.free(6)), RepSpace.wedge(0, RepSpace.free(2)),
          RepSpace.wedge(4, RepSpace.sym(2)), RepSpace.sym_power(3, RepSpace.div(3)),
          RepSpace.sym_power(4, RepSpace.free(3)), RepSpace.sym_power(0, RepSpace.sym(2)),
          # base^length past 2^63, where a positional key in base top + 1 would wrap
          RepSpace.sym_power(70, RepSpace.div(1)), RepSpace.sym_power(40, RepSpace.div(2)),
          RepSpace.wedge(64, RepSpace.sym(65)))


@pytest.mark.parametrize("space", _FOUND, ids=repr)
def test_find_gives_the_basis_order(space):
    lab = space.labels
    assert lab.dtype == np.int64 and lab.shape[0] == space.dim
    # rows in strictly increasing lexicographic order, and found in place
    assert all(a < b for a, b in zip(lab.tolist(), lab.tolist()[1:]))
    assert np.array_equal(space.find(lab), np.arange(space.dim))
    assert basis(space) == basis_reference(space)


def test_tensor_positions_are_mixed_radix():
    factors = (RepSpace.wedge(2, RepSpace.free(4)), RepSpace.sym(2),
               RepSpace.sym_power(2, RepSpace.div(2)))
    t = RepSpace.tensor(factors)
    expect = [(a * 3 + b) * 6 + c for a in range(6) for b in range(3) for c in range(6)]
    assert basis(t) == basis_reference(t)
    assert [index(t, lab) for lab in basis(t)] == expect == list(range(t.dim))


@pytest.mark.parametrize("make", [
    lambda: RepSpace.sym_power(2**63 - 1, RepSpace.div(1)),     # dim 2^63
    lambda: RepSpace.wedge(40, RepSpace.free(100)),
    lambda: RepSpace.tensor([RepSpace.free(2**32), RepSpace.free(2**31)]),
])
def test_a_space_past_int64_positions_is_refused(make):
    with pytest.raises(OverflowError, match="past int64 positions"):
        make()
