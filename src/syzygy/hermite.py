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

`square_holds` checks nu o (id (x) psi_d) = psi_{d+1} o multiplication
and the top Hermite square of `tangent`, one divided-power part at a time.
"""

from __future__ import annotations

import functools

import numpy as np

from .exactla import ExactMatrix, FieldSpec
from .reps import RepMap, RepSpace, _build, column_shift, nu, sympow_mul


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
    """Does nu o (id (x) psi_d) equal psi_{d+1} o multiplication, over f?
    The square carries equivariance from degree d to d+1."""
    return square_holds(nu(d, i).matrix, psi_map(d, i).matrix,
                        psi_map(d + 1, i).matrix,
                        sympow_mul(d, RepSpace.div(i)).matrix, f)


def square_holds(a: ExactMatrix, psi: ExactMatrix, psi_next: ExactMatrix,
                 b: ExactMatrix, f: FieldSpec) -> bool:
    """Does a (I (x) psi) = (I' (x) psi_next) b hold over f, identity factors
    first?  Column part t reads a_t psi = (I' (x) psi_next) b_t, a_t and b_t
    runs of columns; with the row parts of each side set side by side
    (`_fold`) that is one product per side, and no Kronecker product."""
    w, v = psi.rows, psi.cols
    parts = b.rows // psi_next.cols
    return all(_fold(_columns(a, t * w, w) @ psi, parts)
               .equals_mod(psi_next @ _fold(_columns(b, t * v, v), parts), f)
               for t in range(b.cols // v))


def _columns(m: ExactMatrix, start: int, width: int) -> ExactMatrix:
    """Columns start..start+width-1 of m, a run of its coordinates."""
    lo, hi = np.searchsorted(m.col, (start, start + width))
    return ExactMatrix._of(m.rows, width, m.row[lo:hi], m.col[lo:hi] - start, m.val[lo:hi])


def _fold(m: ExactMatrix, parts: int) -> ExactMatrix:
    """m with its `parts` runs of h rows side by side: entry (s * h + y, c)
    moves to (y, s * m.cols + c); a stable sort by s keeps it canonical."""
    if parts == 1:
        return m
    s, y = np.divmod(m.row, m.rows // parts)
    order = np.argsort(s, kind="stable")
    return ExactMatrix._of(m.rows // parts, parts * m.cols, y[order],
                           (s * m.cols + m.col)[order], m.val[order])
