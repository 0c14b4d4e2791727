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
    """Does nu o (psi_d (x) id) equal psi_{d+1} o multiplication, over f?

    This is the square that propagates equivariance from degree d to
    degree d+1.  Both `nu(d, i)` and `sympow_mul(d, D^i)` have a tensor
    source whose D^i factor varies fastest (the `reps` tensor order), so
    the source column (label, j) is label * (i+1) + j.  Split by j, psi_d
    (x) id sends the columns of part j to the rows of part j, and the
    square is i+1 exact identities, one per divided-power part j:

        N_j psi_d = psi_{d+1} M_j,

    N_j the columns of nu and M_j the columns of multiplication of part
    j (M_j is the 0/1 selection mu -> insert_part(mu, j)).  The two
    composites are equal exactly when every column block is, so no
    Kronecker product and no full composite is formed.
    """
    return _square_holds(nu(d, i).matrix, psi_map(d, i).matrix,
                         psi_map(d + 1, i).matrix,
                         sympow_mul(d, RepSpace.div(i)).matrix, f)


def _square_holds(nu_m: ExactMatrix, psi: ExactMatrix, psi_next: ExactMatrix,
                  mul: ExactMatrix, f: FieldSpec) -> bool:
    """The blocked comparison of `psi_compat_check` on given matrices:
    N_j psi = psi_next M_j over f for every part j, with the i+1 parts
    read off the column counts (nu_m has i+1 columns per row of psi)."""
    parts = nu_m.cols // psi.rows
    return all((n_j @ psi).equals_mod(psi_next @ m_j, f)
               for n_j, m_j in zip(_column_blocks(nu_m, parts),
                                   _column_blocks(mul, parts)))


def _column_blocks(m: ExactMatrix, parts: int):
    """The column blocks c = k * parts + j of m, for j = 0..parts-1, each
    with its columns k in order (so still column-major canonical)."""
    part = m.col % parts
    for j in range(parts):
        keep = part == j
        yield ExactMatrix._of(m.rows, m.cols // parts, m.row[keep],
                              m.col[keep] // parts, m.val[keep])
