"""Characteristic-free Hermite reciprocity.

The isomorphism Sym^d(D^i U) -> Wedge^i(Sym^{d+i-1} U) is the change of
basis from elementary symmetric polynomials to Schur polynomials inside
the filtered ring of symmetric polynomials in i variables: the source
monomial x^(mu_1)...x^(mu_d) plays the role of e_mu, the target wedge
x^{l_1+i-1} ^ ... ^ x^{l_i} the role of s_l, and the matrix is the
(integer, determinant +-1) transition matrix between the two bases.
Being an integer change of basis it is invertible over every field,
which is the whole point.

The matrix is built by iterated Pieri: e_mu = e_{mu_1} ... e_{mu_d},
largest part first, starting from s_() = x^{i-1} ^ ... ^ 1, and each
factor e_j acts on a wedge label by `reps.column_shift`.  Labels are
only ever produced by `reps`.
"""

from __future__ import annotations

import functools

from .exactla import FieldSpec
from .reps import (RepMap, RepSpace, _build, column_shift, compose, nu,
                   sympow_mul, tensor_map)


@functools.lru_cache(maxsize=None)
def _psi_column(mu, i: int):
    """The column of the source monomial mu, the Schur expansion of e_mu
    as {wedge label: coeff}: the column of mu[:-1] with its last part
    applied by the Pieri rule `column_shift`.  Every prefix of a label
    is a label, so each column costs one Pieri step past its cached
    prefix."""
    if not mu:
        return {RepSpace.wedge(i, RepSpace.sym(i - 1)).basis[0]: 1}
    out = {}
    for exps, c in _psi_column(mu[:-1], i).items():
        for new in column_shift(exps, mu[-1]):
            out[new] = out.get(new, 0) + c
    return out


@functools.lru_cache(maxsize=None)
def psi_map(d: int, i: int) -> RepMap:
    """The integer matrix of the reciprocity map, one column per source
    monomial, built from iterated Pieri expansion (never by solving
    equations)."""
    if d < 0 or i < 0:
        raise ValueError(f"psi needs d, i >= 0, got d={d}, i={i}")
    src = RepSpace.sym_power(d, RepSpace.div(i))
    tgt = RepSpace.wedge(i, RepSpace.sym(d + i - 1))
    if src.dim != tgt.dim:
        raise AssertionError(f"dimension mismatch for psi({d},{i})")
    return _build(src, tgt, lambda mu: _psi_column(mu, i).items(), f"psi({d},{i})")


def psi_compat_check(d: int, i: int, f: FieldSpec) -> bool:
    """Does nu o (psi (x) id) equal psi o multiplication, over f?

    This is the square that propagates equivariance from degree d to
    degree d+1.
    """
    div_i = RepSpace.div(i)
    lhs = compose(nu(d, i), tensor_map([psi_map(d, i), div_i], "psi(x)id"))
    rhs = compose(psi_map(d + 1, i), sympow_mul(d, div_i))
    return lhs.matrix.equals_mod(rhs.matrix, f)
