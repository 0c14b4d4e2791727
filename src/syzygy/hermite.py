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
starting from s_() = x^{i-1} ^ ... ^ 1.  A monomial of Sym^d(D^i U) is a
monomial mu of Sym^{d-1}(D^i U) times its smallest part x_j (j = 0
included, e_0 = 1), so psi_d[:, mu x_j] = nu(d-1, i)_j psi_{d-1}[:, mu],
nu_j the columns of `reps.nu` at x^(j), the Pieri rule s_l -> s_l e_j:
psi_d is one ExactMatrix product per part j, for all its columns at once.

`square_holds` checks nu o (id (x) psi_d) = psi_{d+1} o multiplication
and the top Hermite square of `tangent`, one divided-power part at a time.
"""

from __future__ import annotations

import functools

import numpy as np

from .exactla import ExactMatrix, FieldSpec
from .reps import RepMap, RepSpace, _build, nu, sympow_mul


@functools.lru_cache(maxsize=None)
def psi_map(d: int, i: int) -> RepMap:
    """The integer matrix of the reciprocity map, one column per source
    monomial, built from iterated Pieri products (never by solving
    equations): column block j of psi_d is nu(d-1, i)_j times the
    columns of psi_{d-1} at the monomials without their last part."""
    if d < 0 or i < 0:
        raise ValueError(f"psi needs d, i >= 0, got d={d}, i={i}")
    src = RepSpace.sym_power(d, RepSpace.div(i))
    tgt = RepSpace.wedge(i, RepSpace.sym(d + i - 1))
    if src.dim != tgt.dim:
        raise AssertionError(f"dimension mismatch for psi({d},{i})")
    if d == 0:
        return _build(src, tgt, [(0, 0, 1)], f"psi(0,{i})")
    prev, pieri = psi_map(d - 1, i), nu(d - 1, i).matrix
    lab, w = src.labels, prev.target.dim
    heads = prev.source.find(lab[:, :-1])
    parts = []
    for j in range(i + 1):
        cols = np.flatnonzero(lab[:, -1] == j)
        m = _columns(pieri, np.arange(j * w, (j + 1) * w)) @ _columns(prev.matrix, heads[cols])
        parts.append((m.row, cols[m.col], m.val))
    return _build(src, tgt, parts, f"psi({d},{i})")


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
    return all(_fold(_columns(a, np.arange(t * w, (t + 1) * w)) @ psi, parts)
               .equals_mod(psi_next @ _fold(_columns(b, np.arange(t * v, (t + 1) * v)),
                                            parts), f)
               for t in range(b.cols // v))


def _columns(m: ExactMatrix, cols) -> ExactMatrix:
    """The columns `cols` (increasing) of m, each a run of its coordinates."""
    lo, hi = np.searchsorted(m.col, cols), np.searchsorted(m.col, cols, side="right")
    n = hi - lo
    take = np.arange(int(n.sum())) + np.repeat(lo - (np.cumsum(n) - n), n)
    return ExactMatrix._of(m.rows, len(cols), m.row[take],
                           np.repeat(np.arange(len(cols)), n), m.val[take])


def _fold(m: ExactMatrix, parts: int) -> ExactMatrix:
    """m with its `parts` runs of h rows side by side: entry (s * h + y, c)
    moves to (y, s * m.cols + c); a stable sort by s keeps it canonical."""
    if parts == 1:
        return m
    s, y = np.divmod(m.row, m.rows // parts)
    order = np.argsort(s, kind="stable")
    return ExactMatrix._of(m.rows // parts, parts * m.cols, y[order],
                           (s * m.cols + m.col)[order], m.val[order])
