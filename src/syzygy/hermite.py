"""Characteristic-free Hermite reciprocity.

The isomorphism Sym^d(D^i U) -> Wedge^i(Sym^{d+i-1} U) is the change of
basis from elementary symmetric polynomials to Schur polynomials inside
the filtered ring of symmetric polynomials in i variables: the source
monomial x^(mu_1)...x^(mu_d) plays the role of e_mu, the target wedge
x^{l_1+i-1} ^ ... ^ x^{l_i} the role of s_l, and the matrix is the
integer transition matrix between the two bases.  As e_mu = s_{mu'} +
(lexicographically earlier s_l), it is unitriangular up to the column
order, so det psi = +-1 and psi is invertible over every field, which
is the whole point; `unitriangular` certifies this in O(nnz), with no rank.

The matrix is built by iterated Pieri: e_mu = e_{mu_1} ... e_{mu_d},
starting from s_() = x^{i-1} ^ ... ^ 1.  A monomial of Sym^d(D^i U) is a
monomial mu of Sym^{d-1}(D^i U) times its smallest part x_j (j = 0
included, e_0 = 1), so psi_d[:, mu x_j] = nu(d-1, i)_j psi_{d-1}[:, mu],
nu_j the columns of `reps.nu` at x^(j), the Pieri rule s_l -> s_l e_j
(`_psi_columns`).  psi_d is built from psi_{d-1} alone, one product per
run of consecutive columns (`_runs`, at most `_SQUARE_SLAB` partial
products each), and `ExactMatrix.hstack` joins the canonical products
in order, with no sort.

`psi_compat_check` checks nu o (id (x) psi_d) = psi_{d+1} o mult one
run of weights at a time.  `square_holds` checks the top Hermite square
of `tangent` and the sl2 equivariance L psi = psi L, R psi = psi R, one
divided-power part at a time, in column runs of bounded size.  Each run's
two canonical products are compared by `==`: over Z, so over every field.
"""

from __future__ import annotations

import functools

import numpy as np

from .exactla import _MATMUL_SLAB, ExactMatrix
from .reps import RepMap, RepSpace, _pieri, nu, sympow_mul

# psi_d is built and a square compared one run of columns at a time, each
# expanding at most about this many partial products (at least one column,
# or one weight in `psi_compat_check`).  Weight runs took the process peak of
# the hermite job (d, i) = (6, 7) from 47 to 39 MB, and (7, 8) from 165 to 74 MB.
_SQUARE_SLAB = _MATMUL_SLAB


@functools.lru_cache(maxsize=None)
def psi_map(d: int, i: int) -> RepMap:
    """The integer matrix of the reciprocity map, one column per source
    monomial, built from iterated Pieri products (never by solving
    equations) one degree at a time, holding only the degree before."""
    if d < 0 or i < 0:
        raise ValueError(f"psi needs d, i >= 0, got d={d}, i={i}")
    div = RepSpace.div(i)
    if RepSpace.sym_power(d, div).dim != RepSpace.wedge(i, RepSpace.sym(d + i - 1)).dim:
        raise AssertionError(f"dimension mismatch for psi({d},{i})")
    pm = RepMap(RepSpace.sym_power(0, div), RepSpace.wedge(i, RepSpace.sym(i - 1)),
                ExactMatrix.identity(1), f"psi(0,{i})")
    for k in range(1, d + 1):
        p, src, m = nu(k - 1, i), RepSpace.sym_power(k, div), pm.matrix
        lab, per = src.labels, np.diff(p.matrix.starts).reshape(i + 1, -1)
        # column mu x_j expands, per entry r of psi_{k-1}[:, mu], column (j, r) of nu
        cost = np.array([np.bincount(m.col, per[j][m.row], minlength=m.cols)
                         for j in range(i + 1)])[lab[:, -1], pm.source.find(lab[:, :-1])]
        pm = RepMap(src, p.target, ExactMatrix.hstack(
            _psi_columns(p.matrix, pm, lab[s:e]) for s, e in _runs(cost)), f"psi({k},{i})")
    return pm


def _psi_columns(pieri: ExactMatrix, prev: RepMap, lab) -> ExactMatrix:
    """The columns of psi_d at the monomials `lab` (label rows), from
    prev = psi_{d-1} and the columns of nu(d-1, i) read, `pieri`: column
    mu x_j, j its last (smallest) part, is nu_j psi_{d-1}[:, mu]."""
    return pieri @ _stacked(prev.matrix, prev.source.find(lab[:, :-1]), lab[:, -1], pieri.cols)


def _runs(cost):
    """Cut columns of the given costs (partial products) into runs
    [s, e) of consecutive columns, each of cost at most `_SQUARE_SLAB`
    or of one column."""
    total, s = np.cumsum(cost), 0
    while s < total.size:
        e = max(int(np.searchsorted(total, (total[s - 1] if s else 0) + _SQUARE_SLAB,
                                    side="right")), s + 1)
        yield s, e
        s = e


def unitriangular(pm: RepMap) -> bool:
    """Is pm (psi(d, i)) invertible over Z by its leading terms?  Each
    column mu must end in a 1 at the wedge row (mu'_1 + i - 1, ...,
    mu'_i) of the conjugate partition (mu'_k = #parts >= k), distinct
    rows as conjugation is injective; a column's other entries come
    before its last, so pm with column mu moved there is unitriangular."""
    i, m = pm.source.inner.d, pm.matrix
    conj = (pm.source.labels[:, :, None] > np.arange(i)).sum(axis=1)
    lead, last = pm.target.find(conj + np.arange(i - 1, -1, -1)), m.starts[1:] - 1
    return bool(np.diff(m.starts).all() and np.array_equal(m.row[last], lead)
                and (m.val[last] == 1).all())


def psi_compat_check(d: int, i: int) -> bool:
    """Does nu o (id (x) psi_d) equal psi_{d+1} o multiplication, over Z,
    and so over every field?
    The square carries equivariance from degree d to d+1.  psi_d adds
    c = i(i-1)/2 to the weight and nu adds j on x^(j), so its columns
    (j, mu) of weight w = j + |mu| read only the j-strips (`_pieri`) of
    the wedge rows of weight w + c - j, and the columns of psi_{d+1} at
    weight w (`_psi_columns`).  Strips are kept by weight until used; a
    run of weights is compared one part j at a time."""
    prev, tgt = psi_map(d, i), RepSpace.wedge(i, RepSpace.sym(d + i))
    wedge, src, m, c, top = prev.target, prev.source, prev.matrix, i * (i - 1) // 2, i * (d + 1)
    # the monomial mu x_j of the square's column (j, mu), and its weight
    nxt, grown = RepSpace.sym_power(d + 1, src.inner), sympow_mul(d, src.inner).matrix.row
    weight = (np.arange(i + 1)[:, None] + src.weights).ravel()
    # an entry of nu in column (j, k) expands one product per entry of psi_d
    # in row k; a psi_d that is not graded is compared as one run
    per_row = np.bincount(m.row, minlength=wedge.dim)
    graded = np.array_equal(wedge.weights[m.row], src.weights[m.col] + c)

    def holds(run, w0, w1):
        key = np.sort(np.concatenate(run))          # column * tgt.dim + row
        pieri = ExactMatrix._of(tgt.dim, (i + 1) * wedge.dim, key % tgt.dim, key // tgt.dim,
                                np.ones(key.size, dtype=np.int64))
        sq = np.flatnonzero((weight >= w0) & (weight < w1))
        j, mu = np.divmod(sq, src.dim)
        mono, at = np.unique(grown[sq], return_inverse=True)
        right = _psi_columns(pieri, prev, nxt.labels[mono])
        return all(pieri @ _stacked(m, mu[j == t], j[j == t], pieri.cols)
                   == _columns(right, at[j == t]) for t in range(i + 1))

    strips, run, spent, w0 = [[] for _ in range(top + i + 1)], [], 0, 0
    for w in range(top + 1):
        j, pos, k = _pieri(wedge, tgt, np.flatnonzero(wedge.weights == w + c))
        for t in range(i + 1):
            strips[w + t].append(((t * wedge.dim + k) * tgt.dim + pos)[j == t])
        new, strips[w] = np.concatenate(strips[w]), None
        cost = int(per_row[new // tgt.dim % wedge.dim].sum())
        if run and spent + cost > _SQUARE_SLAB and graded:
            if not holds(run, w0, w):
                return False
            run, spent, w0 = [], 0, w
        run.append(new)
        spent += cost
    return holds(run, w0, top + 1)


def square_holds(a: ExactMatrix, psi: ExactMatrix, psi_next: ExactMatrix,
                 b: ExactMatrix) -> bool:
    """Does a (I (x) psi) = (I' (x) psi_next) b hold over Z, and so over
    every field, identity factors first?  Column part t reads a_t psi =
    (I' (x) psi_next) b_t, a_t and b_t runs of columns; with the row parts
    of each side set side by side (`_fold`) that is one product per side,
    and no Kronecker product.  A part whose two products expand more than
    `_SQUARE_SLAB` partial products is compared one run of psi's columns
    at a time, each run (of at least one column) expanding at most that
    many.  With one part and psi_next = psi it reads a psi = psi b."""
    w, v = psi.rows, psi.cols
    parts = b.rows // psi_next.cols
    # partial products per column of psi: those of a_t psi, and those of
    # (I' (x) psi_next) b_t, where row y of b_t meets column y % h of
    # psi_next (h = psi_next.cols)
    head = np.diff(psi_next.starts)
    for t in range(b.cols // v):
        a_t, b_t = _column_run(a, t * w, (t + 1) * w), _column_run(b, t * v, (t + 1) * v)
        cost = np.bincount(psi.col, np.diff(a_t.starts)[psi.row], minlength=v) \
            + np.bincount(b_t.col, head[b_t.row % psi_next.cols], minlength=v)
        for s, e in _runs(cost):
            left = _fold(a_t @ _column_run(psi, s, e), parts)
            if left != psi_next @ _fold(_column_run(b_t, s, e), parts):
                return False
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


def _stacked(m: ExactMatrix, cols, parts, rows: int) -> ExactMatrix:
    """(I (x) m) at the columns (parts[k], cols[k]), with `rows` rows."""
    g = _columns(m, cols)
    return ExactMatrix._of(rows, len(cols), g.row + parts[g.col] * m.rows, g.col, g.val)


def _fold(m: ExactMatrix, parts: int) -> ExactMatrix:
    """m with its `parts` runs of h rows side by side: entry (s * h + y, c)
    moves to (y, s * m.cols + c); a stable sort by s keeps it canonical."""
    if parts == 1:
        return m
    s, y = np.divmod(m.row, m.rows // parts)
    order = np.argsort(s, kind="stable")
    return ExactMatrix._of(m.rows // parts, parts * m.cols, y[order],
                           (s * m.cols + m.col)[order], m.val[order])
