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
Each product is canonical and the parts hold disjoint columns, so
`_merge` moves every column whole into place, with no sort.

`square_holds` checks every square of reciprocity: nu o (id (x) psi_d) =
psi_{d+1} o multiplication, the top Hermite square of `tangent`, and the
sl2 equivariance L psi = psi L and R psi = psi R, the case of one part.
It compares one divided-power part at a time, cut into column runs of
bounded size.
"""

from __future__ import annotations

import functools

import numpy as np

from .exactla import _MATMUL_SLAB, ExactMatrix, FieldSpec
from .reps import RepMap, RepSpace, nu, sympow_mul

# A square compares its two products one run of psi's columns at a time,
# each run expanding at most this many partial products over both sides;
# a part that expands fewer stays whole.  One product slab: the process
# peak of `hermite --d 6 --i 7` is 48 MB with it and 54 MB with whole
# parts, and its compatibility square took 0.12-0.13 s against 0.14-0.17 s
# in process (smaller sorts), that of (7, 8) 1.9-2.0 s against 1.9-2.1 s.
# A bound of 2^16 on each side alone was slower on (6, 7).
_SQUARE_SLAB = _MATMUL_SLAB


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
        return RepMap(src, tgt, ExactMatrix.identity(1), f"psi(0,{i})")
    prev, pieri = psi_map(d - 1, i), nu(d - 1, i).matrix
    lab, w = src.labels, prev.target.dim
    heads = prev.source.find(lab[:, :-1])
    parts = []
    for j in range(i + 1):
        cols = np.flatnonzero(lab[:, -1] == j)
        parts.append((cols, _column_run(pieri, j * w, (j + 1) * w)
                      @ _columns(prev.matrix, heads[cols])))
    return RepMap(src, tgt, _merge(tgt.dim, src.dim, parts), f"psi({d},{i})")


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
    (`_fold`) that is one product per side, and no Kronecker product.  A
    part whose two products expand more than `_SQUARE_SLAB` partial
    products is compared one run of psi's columns at a time, each run
    (of at least one column) expanding at most that many.  With one part
    and psi_next = psi it reads a psi = psi b."""
    w, v = psi.rows, psi.cols
    parts = b.rows // psi_next.cols
    # partial products per column of psi: those of a_t psi, and those of
    # (I' (x) psi_next) b_t, where row y of b_t meets column y % h of
    # psi_next (h = psi_next.cols)
    head = np.diff(psi_next.starts)
    for t in range(b.cols // v):
        a_t, b_t = _column_run(a, t * w, (t + 1) * w), _column_run(b, t * v, (t + 1) * v)
        cost = np.cumsum(np.bincount(psi.col, np.diff(a_t.starts)[psi.row], minlength=v)
                         + np.bincount(b_t.col, head[b_t.row % psi_next.cols], minlength=v))
        s = 0
        while s < v:
            e = max(int(np.searchsorted(cost, (cost[s - 1] if s else 0) + _SQUARE_SLAB,
                                        side="right")), s + 1)
            left = _fold(a_t @ _column_run(psi, s, e), parts)
            if not left.equals_mod(psi_next @ _fold(_column_run(b_t, s, e), parts), f):
                return False
            s = e
    return True


def _column_run(m: ExactMatrix, lo: int, hi: int) -> ExactMatrix:
    """Columns lo..hi-1 of m, a slice of its coordinate arrays."""
    if (lo, hi) == (0, m.cols):
        return m
    s, e = np.searchsorted(m.col, (lo, hi))
    return ExactMatrix._of(m.rows, hi - lo, m.row[s:e], m.col[s:e] - lo, m.val[s:e])


def _columns(m: ExactMatrix, cols) -> ExactMatrix:
    """The columns `cols` (increasing) of m, each a run of its coordinates."""
    lo, n = m.starts[cols], np.diff(m.starts)[cols]
    take = np.arange(int(n.sum())) + np.repeat(lo - (np.cumsum(n) - n), n)
    return ExactMatrix._of(m.rows, len(cols), m.row[take],
                           np.repeat(np.arange(len(cols)), n), m.val[take])


def _merge(rows: int, cols: int, parts) -> ExactMatrix:
    """The rows x cols matrix whose column c[k] is column k of m, for each
    (c, m) in `parts`: every m canonical, every c increasing, and the c
    disjoint.  Each part's entries keep their order and move to the
    offset of their column, so nothing is sorted, summed or filtered."""
    count = np.zeros(cols, dtype=np.int64)
    for c, m in parts:
        count[c] = np.diff(m.starts)
    start = np.cumsum(count) - count
    out = [np.empty(int(count.sum()), dtype=np.int64) for _ in range(2)]
    out.append(np.empty(out[0].size, dtype=object if any(
        m.val.dtype == object for _, m in parts) else np.int64))
    for c, m in parts:
        at = np.arange(m.nnz) + (start[c] - m.starts[:-1])[m.col]
        for x, y in zip(out, (m.row, c[m.col], m.val)):
            x[at] = y
    return ExactMatrix._of(rows, cols, *out)


def _fold(m: ExactMatrix, parts: int) -> ExactMatrix:
    """m with its `parts` runs of h rows side by side: entry (s * h + y, c)
    moves to (y, s * m.cols + c); a stable sort by s keeps it canonical."""
    if parts == 1:
        return m
    s, y = np.divmod(m.row, m.rows // parts)
    order = np.argsort(s, kind="stable")
    return ExactMatrix._of(m.rows // parts, parts * m.cols, y[order],
                           (s * m.cols + m.col)[order], m.val[order])
