"""Independent brute-force oracles used to freeze expected values.

Up to the last two sections nothing here shares code paths with the
package: polynomials are plain exponent-dicts, Schur polynomials come
from the dual Jacobi-Trudi determinant (a different rule than the Pieri
iteration under test), and ranks come from minor expansion.  The next
section holds per-point and presentation references built from package
primitives, which no code in the package calls, and the maps, complexes
and matrix helpers that only the tests use.  The last one assembles maps
one basis tuple at a time through the label helpers that the package's
array builders replaced, as their reference.
"""

import functools
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, permutations, product
from math import comb

import numpy as np

from syzygy.exactla import ExactMatrix, FieldSpec, kernel_basis, rank
from syzygy.hermite import psi_map
from syzygy.koszul import KoszulInput, wedge2_pairs
from syzygy.reps import RepMap, RepSpace, _build, contraction, delta1, koszul_k, nu, sympow_mul
from syzygy.tangent import (GradedComplex, Summand, _wahl_splits, delta2_map, map_p_map,
                            map_q_map)


# -- symbolic polynomials in z_1..z_k as {exponent tuple: coeff} --------------

def poly_mul(a, b):
    out = {}
    for ea, va in a.items():
        for eb, vb in b.items():
            key = tuple(x + y for x, y in zip(ea, eb))
            out[key] = out.get(key, 0) + va * vb
    return {k: v for k, v in out.items() if v}


def poly_one(k):
    return {(0,) * k: 1}


def elementary(j, k):
    """e_j(z_1..z_k) expanded into monomials."""
    out = {}
    for I in combinations(range(k), j):
        e = [0] * k
        for idx in I:
            e[idx] = 1
        out[tuple(e)] = 1
    return out


def e_mu(mu, k):
    out = poly_one(k)
    for part in mu:
        out = poly_mul(out, elementary(part, k))
    return out


def schur_dual_jacobi_trudi(lam, k):
    """s_lam(z_1..z_k) = det(e_{lam'_r - r + c}) expanded symbolically.

    The determinant is over the conjugate partition, which keeps entries
    inside the elementary basis; expansion is over permutations (sizes
    here are tiny).
    """
    lamc = tuple(sum(1 for part in lam if part >= j)
                 for j in range(1, (lam[0] + 1) if lam else 1))
    m = len(lamc)
    if m == 0:
        return poly_one(k)
    out = {}
    for perm in permutations(range(m)):
        sign = perm_sign(perm)
        term = poly_one(k)
        ok = True
        for r in range(m):
            j = lamc[r] - r + perm[r]
            if j < 0 or j > k:
                ok = False
                break
            term = poly_mul(term, elementary(j, k))
        if not ok:
            continue
        for key, v in term.items():
            out[key] = out.get(key, 0) + sign * v
    return {kk: v for kk, v in out.items() if v}


def perm_sign(perm):
    sign = 1
    for a, b in combinations(range(len(perm)), 2):
        if perm[a] > perm[b]:
            sign = -sign
    return sign


def column_shift_reference(exps, j):
    """The Pieri rule s_l * e_j on a strictly decreasing wedge label, by
    testing every j-subset I of the slots: the labels exps + 1_I that
    stay strictly decreasing, in subset order."""
    i = len(exps)
    out = []
    for I in combinations(range(i), j):
        new = list(exps)
        for k in I:
            new[k] += 1
        if all(new[k] > new[k + 1] for k in range(i - 1)):
            out.append(tuple(new))
    return tuple(out)


def weyl_image(kind, top, label, descending=True, length=0):
    """The Weyl element x <-> 1 on one basis label, as (label, sign).
    kind "part": a single exponent 0..top.  kind "wedge": a wedge of
    parts, each sent to top - x in place and then sorted back into the
    label's order (descending or ascending), the sign counting the
    inversions.  kind "sympow": a monomial of `length` parts with its
    zeros stripped, sent part by part to top - x and re-sorted."""
    if kind == "part":
        return top - label, 1
    parts = [top - x for x in label]
    if kind == "wedge":
        order = sorted(range(len(parts)), key=parts.__getitem__, reverse=descending)
        return tuple(parts[k] for k in order), perm_sign(order)
    parts += [top] * (length - len(label))
    return tuple(x for x in sorted(parts, reverse=True) if x), 1


# -- naive exact rank by minor expansion -------------------------------------

def det_fraction(rows):
    n = len(rows)
    if n == 0:
        return Fraction(1)
    total = Fraction(0)
    for perm in permutations(range(n)):
        term = Fraction(perm_sign(perm))
        for r in range(n):
            term *= Fraction(rows[r][perm[r]])
        total += term
    return total


def rank_by_minors(rows, modulus=0):
    """Largest r with a nonvanishing r x r minor (over Q or GF(p))."""
    m = len(rows)
    n = len(rows[0]) if m else 0
    for r in range(min(m, n), 0, -1):
        for rset in combinations(range(m), r):
            for cset in combinations(range(n), r):
                sub = [[rows[i][j] for j in cset] for i in rset]
                d = det_fraction(sub)
                if modulus:
                    assert d.denominator == 1
                    if d.numerator % modulus:
                        return r
                elif d:
                    return r
    return 0


def nonzero_minor_exists(rows, r, modulus):
    """Is some r x r minor nonzero mod the given prime?"""
    m = len(rows)
    n = len(rows[0]) if m else 0
    for rset in combinations(range(m), r):
        for cset in combinations(range(n), r):
            sub = [[rows[i][j] for j in cset] for i in rset]
            d = det_fraction(sub)
            assert d.denominator == 1
            if d.numerator % modulus:
                return True
    return False


# -- reduced row echelon form mod p on plain lists ---------------------------

def rref_mod_p(rows, p):
    """Reduced row echelon form of integer rows mod a prime p, with the
    pivot of each column the first nonzero entry at or below the current
    row.  Returns (rref rows with residues in [0, p), pivot columns).
    Plain Python integers, so no product can overflow."""
    a = [[v % p for v in row] for row in rows]
    m = len(a)
    n = len(a[0]) if m else 0
    pivots = []
    r = 0
    for c in range(n):
        pr = next((i for i in range(r, m) if a[i][c]), None)
        if pr is None:
            continue
        a[r], a[pr] = a[pr], a[r]
        inv = pow(a[r][c], -1, p)
        a[r] = [v * inv % p for v in a[r]]
        for i in range(m):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i] = [(u - f * v) % p for u, v in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
    return a, pivots


def rref_fraction(rows):
    """Reduced row echelon form over Q in Fractions, with the same pivot
    rule.  Returns (rref rows, pivot columns)."""
    a = [[Fraction(v) for v in row] for row in rows]
    m = len(a)
    n = len(a[0]) if m else 0
    pivots = []
    r = 0
    for c in range(n):
        pr = next((i for i in range(r, m) if a[i][c]), None)
        if pr is None:
            continue
        a[r], a[pr] = a[pr], a[r]
        inv = 1 / a[r][c]
        a[r] = [v * inv for v in a[r]]
        for i in range(m):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i] = [u - f * v for u, v in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
    return a, pivots


def kernel_from_rref(rref, pivots, n):
    """The kernel basis read off a reduced row echelon form: one vector
    per free column c, 1 at c and minus column c of the rref at the
    pivots, in free-column order."""
    basis = []
    for c in (c for c in range(n) if c not in pivots):
        v = [Fraction(0)] * n
        v[c] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -rref[r][c]
        basis.append(v)
    return basis


# -- sparse matrices as plain {(row, col): value} dicts ----------------------

class DictMatrix:
    """Reference sparse matrix: a dict of its nonzero entries, with
    Python-int and Fraction arithmetic, so no entry can overflow.  The
    same operations as `syzygy.exactla.ExactMatrix`, written entry by
    entry."""

    def __init__(self, rows, cols, entries=None):
        if rows < 0 or cols < 0:
            raise ValueError("negative dimensions")
        self.rows, self.cols = rows, cols
        self.entries = {}
        for (r, c), v in (entries or {}).items():
            if not (0 <= r < rows and 0 <= c < cols):
                raise ValueError(f"entry ({r},{c}) outside {rows}x{cols}")
            if v:
                self.entries[(r, c)] = v

    @classmethod
    def from_rows(cls, data):
        cols = len(data[0]) if data else 0
        return cls(len(data), cols, {(r, c): v for r, row in enumerate(data)
                                     for c, v in enumerate(row)})

    @classmethod
    def from_columns(cls, columns, rows):
        return cls(rows, len(columns), {(r, c): v for c, col in enumerate(columns)
                                        for r, v in enumerate(col)})

    @property
    def shape(self):
        return (self.rows, self.cols)

    def entry(self, r, c):
        return self.entries.get((r, c), 0)

    def items(self):
        return self.entries.items()

    def column(self, c):
        return [self.entries.get((r, c), 0) for r in range(self.rows)]

    def to_dense(self):
        return [[self.entry(r, c) for c in range(self.cols)] for r in range(self.rows)]

    def transpose(self):
        return DictMatrix(self.cols, self.rows,
                          {(c, r): v for (r, c), v in self.entries.items()})

    def __matmul__(self, other):
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        out = {}
        for (r, k), v in self.entries.items():
            for (k2, c), w in other.entries.items():
                if k == k2:
                    out[(r, c)] = out.get((r, c), 0) + v * w
        return DictMatrix(self.rows, other.cols, out)

    def __add__(self, other):
        if self.shape != other.shape:
            raise ValueError("shape mismatch")
        out = dict(self.entries)
        for key, v in other.entries.items():
            out[key] = out.get(key, 0) + v
        return DictMatrix(self.rows, self.cols, out)

    def __sub__(self, other):
        return self + other.scaled(-1)

    def scaled(self, a):
        return DictMatrix(self.rows, self.cols,
                          {k: a * v for k, v in self.entries.items()})

    def kron(self, other):
        out = {}
        for (r1, c1), v1 in self.entries.items():
            for (r2, c2), v2 in other.entries.items():
                out[(r1 * other.rows + r2, c1 * other.cols + c2)] = v1 * v2
        return DictMatrix(self.rows * other.rows, self.cols * other.cols, out)

    @staticmethod
    def hstack(mats):
        rows = mats[0].rows
        out, off = {}, 0
        for m in mats:
            if m.rows != rows:
                raise ValueError("row count mismatch in hstack")
            for (r, c), v in m.entries.items():
                out[(r, off + c)] = v
            off += m.cols
        return DictMatrix(rows, off, out)


# -- references built from package primitives ---------------------------------

def is_decomposable(vec, n: int, f: FieldSpec) -> bool:
    """Is a 2-form (coordinates over wedge2_pairs) zero or decomposable?

    Equivalent to the alternating coefficient matrix having rank <= 2;
    valid over every field, including characteristic 2 where the naive
    wedge-square test degenerates.  The per-point reference for the
    batched Pfaffian test `koszul._decomposable_chunks`.
    """
    ent = {}
    for (a, b), v in zip(wedge2_pairs(n), vec):
        ent[(a, b)], ent[(b, a)] = v, -v
    return rank(ExactMatrix(n, n, ent), f) <= 2


def projective_points(basis, p: int, budget: int):
    """Normalized representatives of the projectivization of a span
    over GF(p), at most budget of them: the first nonzero coefficient
    (in the span's own coordinates) is 1, the ones after it run through
    GF(p) lexicographically.  The per-point reference for the
    enumeration order of `koszul._decomposable_chunks`."""
    k = len(basis)
    amb = len(basis[0])
    count = 0
    for lead in range(k):
        for rest in product(range(p), repeat=k - lead - 1):
            coeffs = (0,) * lead + (1,) + rest
            vec = [0] * amb
            for c, b in zip(coeffs, basis):
                if c:
                    for idx, v in enumerate(b):
                        vec[idx] = (vec[idx] + c * v) % p
            yield vec
            count += 1
            if count >= budget:
                return


def psi_inverse(d: int, i: int, f: FieldSpec) -> ExactMatrix:
    """Inverse of `hermite.psi_map(d, i)` over f, by exact elimination."""
    m = psi_map(d, i).matrix
    n = m.rows
    if rank(m, f) < n:
        raise ValueError(f"psi({d},{i}) not invertible over {f}")
    # the kernel of [m | -I] is {(x, m x)}; its column of free column n + k
    # is c_k (m^-1 e_k, e_k), with c_k = 1 over GF(p) and for a unimodular
    # m over Q, the least c_k > 0 that makes it integral otherwise
    minus_id = ExactMatrix.identity(n).scaled(-1)
    null = kernel_basis(ExactMatrix.hstack([m, minus_id]), f)
    top, c = null.row < n, dict(zip(null.col[null.row >= n].tolist(),
                                    null.val[null.row >= n].tolist()))
    return ExactMatrix(n, n, (null.row[top], null.col[top], [
        Fraction(v, c[k]) if c[k] != 1 else v
        for k, v in zip(null.col[top].tolist(), null.val[top].tolist())]))


@functools.lru_cache(maxsize=None)
def weyman_input(a: int, f: FieldSpec) -> KoszulInput:
    """The Koszul input (V, K) = (D^a U, D^{2a-2} U) with K embedded by
    the dual Gaussian-Wahl map.  Defined for characteristic != 2, where
    the embedding is injective.  `koszul.w_dim(weyman_input(a, f), q)`
    is the presentation-route reference for `tangent.weyman_dim`."""
    if a < 2:
        raise ValueError("need a >= 2")
    if f.characteristic == 2:
        raise ValueError("Weyman modules are undefined in characteristic 2 "
                         "(the dual Gaussian-Wahl map is not injective)")
    d1 = delta1(a)
    pairs = basis(d1.target)                                 # (i, j), i > j
    n = a + 1
    pos = {pq: r for r, pq in enumerate(wedge2_pairs(n))}    # (p, q), p < q
    # x^(i) ^ x^(j) with i > j is -(v_j ^ v_i) in the standard order
    ent = {(pos[pairs[r][::-1]], c): -v for (r, c), v in d1.matrix.items()}
    kgens = ExactMatrix(comb(n, 2), d1.source.dim, ent)
    return KoszulInput(n, kgens, f)


# -- matrix helpers, maps and complexes that only the tests use ---------------

def tensor_map(maps_and_spaces, name: str) -> RepMap:
    """Tensor product of RepMaps and identity placeholders.

    Each item is either a RepMap or a RepSpace (acting as identity).
    """
    mats = []
    srcs = []
    tgts = []
    for item in maps_and_spaces:
        if isinstance(item, RepMap):
            mats.append(item.matrix)
            srcs.append(item.source)
            tgts.append(item.target)
        else:
            mats.append(ExactMatrix.identity(item.dim))
            srcs.append(item)
            tgts.append(item)
    out = mats[0]
    for m in mats[1:]:
        out = out.kron(m)
    return RepMap(RepSpace.tensor(srcs), RepSpace.tensor(tgts), out, name)


def compose(*maps) -> RepMap:
    """Composition, rightmost applied first."""
    *rest, last = maps
    mat = last.matrix
    src = last.source
    for m in reversed(rest):
        mat = m.matrix @ mat
    tgt = maps[0].target
    name = "o".join(m.name for m in maps)
    return RepMap(src, tgt, mat, name)


def complex_F(g: int) -> GradedComplex:
    """The resolution of the parametrizing ring: F_0 = S + Sym^{g-2}U(-1),
    F_i = D^{2i}U (x) Wedge^{i+1} Sym^{g-2}U (-i-1).  Only the linear
    part of the first differential is represented; the quadratic part
    into the S summand is deliberately absent.
    """
    if g < 3:
        raise ValueError("need g >= 3")
    terms = [[Summand(RepSpace.sym_power(0, RepSpace.sym(g)), 0),
              Summand(RepSpace.sym(g - 2), 1)]]
    for i in range(1, g - 1):
        terms.append([Summand(RepSpace.tensor(
            [RepSpace.div(2 * i), RepSpace.wedge(i + 1, RepSpace.sym(g - 2))]),
            i + 1)])
    diffs = [None]
    for i in range(1, g - 1):
        # comul2 on the divided-power leg, the Koszul contraction on the
        # wedge leg; for i = 1 the target is the Sym^{g-2}U (-1) summand
        tgt = terms[0][1].space if i == 1 else terms[i - 1][0].space
        src = terms[i][0].space
        block = _build(src, RepSpace.tensor([tgt, RepSpace.sym(g)]),
                       contraction(src.factors[1], g, 2 * i, 2), f"F({g},{i})").matrix
        diffs.append({(1 if i == 1 else 0, 0): block})
    return GradedComplex(g, terms, diffs)


def term_dim(cx: GradedComplex, i: int) -> int:
    """The rank of the free module in homological degree i of cx."""
    return sum(s.space.dim for s in cx.terms[i])


def psi_compat_sides(d: int, i: int, psi_next=None):
    """The two full composites nu o (id (x) psi_d) and psi_{d+1} o
    multiplication of the Hermite compatibility square.  `psi_next`
    replaces the matrix of psi_{d+1} when given."""
    div_i = RepSpace.div(i)
    nxt = psi_map(d + 1, i)
    if psi_next is not None:
        nxt = RepMap(nxt.source, nxt.target, psi_next, nxt.name)
    lhs = compose(nu(d, i), tensor_map([div_i, psi_map(d, i)], "id(x)psi"))
    rhs = compose(nxt, sympow_mul(d, div_i))
    return lhs.matrix, rhs.matrix


def psi_compat_composite(d: int, i: int, psi_next=None) -> bool:
    """The Hermite compatibility square over Z, by its two full
    composites: the reference for the blocked `hermite.psi_compat_check`."""
    lhs, rhs = psi_compat_sides(d, i, psi_next)
    return lhs == rhs


def hermite_square_sides(g: int, i: int, q=None):
    """The (right, left) composites of both squares of
    `tangent.hermite_square_check`, through id (x) psi as Kronecker
    products.  `q` replaces the matrix of q_i when given."""
    psi_top = psi_map(g - 2 - i, i + 1)
    psi_mid = psi_map(g - 1 - i, i + 1)
    psi_bot = psi_map(g - i, i + 1)
    d1 = sympow_mul(g - 1 - i, RepSpace.div(i + 1))
    q = map_q_map(g, i).matrix if q is None else q
    # D^{2i}U is one-dimensional for i=0, where q_0 lives on the plain
    # Sym^{g-2}U summand; the Kronecker layout matches in both cases.
    id_left = ExactMatrix.identity(RepSpace.div(2 * i).dim)
    id_mid = ExactMatrix.identity(RepSpace.div(i + 1).dim)
    top_right = q @ id_left.kron(psi_top.matrix)
    top_left = id_mid.kron(psi_mid.matrix) @ delta2_map(g, i).matrix
    bot_right = map_p_map(g, i + 1).matrix @ id_mid.kron(psi_mid.matrix)
    bot_left = psi_bot.matrix @ d1.matrix
    return (top_right, top_left), (bot_right, bot_left)


def hermite_square_composite(g: int, i: int, q=None) -> bool:
    """Both squares of `tangent.hermite_square_check` over Z, by their
    full composites: the reference for the blocked check."""
    return all(right == left for right, left in hermite_square_sides(g, i, q))


def wedge_mult_reference(ring, i: int, n: int) -> ExactMatrix:
    """`oracle._wedge_mult_matrix(ring, i, n)` entry by entry: column
    (A, b) of Wedge^i W (x) R_n takes, for the k-th index c of A, (-1)^k
    times the coordinates of z_c b (`ParamRing.multiply`) in the rows of
    (A - c, the basis of R_{n+1})."""
    g = ring.g
    wsrc = list(combinations(range(g + 1), i))
    tpos = {A: k for k, A in enumerate(combinations(range(g + 1), i - 1))}
    bsrc, btgt = ring.basis_index(n), ring.basis_index(n + 1)
    at = {label: k for k, label in enumerate(btgt)}
    ent = {}
    for a, A in enumerate(wsrc):
        for b, (w, local) in enumerate(bsrc):
            for k, c in enumerate(A):
                for j, v in enumerate(ring.multiply(n, w, local, c)):
                    key = (tpos[A[:k] + A[k + 1:]] * len(btgt) + at[w + c, j],
                           a * len(bsrc) + b)
                    ent[key] = ent.get(key, 0) + (-v if k % 2 else v)
    return ExactMatrix(len(tpos) * len(btgt), len(wsrc) * len(bsrc), ent)


def zeros(rows: int, cols: int) -> ExactMatrix:
    return ExactMatrix(rows, cols)


def subspace_intersection_dim(a, b, f: FieldSpec) -> int:
    """dim(span(a) ∩ span(b)) for lists of vectors in a common ambient space."""
    if not a or not b:
        return 0
    amb = len(a[0])
    if any(len(v) != amb for v in a) or any(len(v) != amb for v in b):
        raise ValueError("ambient dimension mismatch")
    A = ExactMatrix.from_columns(a, amb)
    B = ExactMatrix.from_columns(b, amb)
    joint = ExactMatrix.hstack([A, B])
    return rank(A, f) + rank(B, f) - rank(joint, f)


def exact_of(a) -> ExactMatrix:
    """The ExactMatrix of a dense integer array (int64 or object)."""
    r, c = np.nonzero(a)
    return ExactMatrix(*a.shape, (r, c, a[r, c]))


def entry(m: ExactMatrix, r: int, c: int):
    """Entry (r, c) of m, a Python int or Fraction."""
    if not (0 <= r < m.rows and 0 <= c < m.cols):
        raise IndexError(f"entry ({r},{c}) outside {m.rows}x{m.cols}")
    lo, hi = np.searchsorted(m.col, (c, c + 1))
    k = lo + int(np.searchsorted(m.row[lo:hi], r))
    return m.val[k:k + 1].tolist()[0] if k < hi and m.row[k] == r else 0


def column(m: ExactMatrix, c: int):
    """Column c of m as a list of Python ints and Fractions."""
    if not 0 <= c < m.cols:
        raise IndexError(f"column {c} outside {m.rows}x{m.cols}")
    lo, hi = np.searchsorted(m.col, (c, c + 1))
    v = [0] * m.rows
    for r, x in zip(m.row[lo:hi].tolist(), m.val[lo:hi].tolist()):
        v[r] = x
    return v


def to_dense(m: ExactMatrix):
    """m as a list of rows of Python ints and Fractions."""
    out = [[0] * m.cols for _ in range(m.rows)]
    for (r, c), v in m.items():
        out[r][c] = v
    return out


def d_to_sym(d: int):
    """D^d U -> Sym^d U, x^(e) -> C(d, e) x^e.  Isomorphism iff no
    binomial C(d, e) vanishes in the field."""
    return label_build(RepSpace.div(d), RepSpace.sym(d),
                  lambda e: ((e, comb(d, e)),), f"d_to_sym({d})")


def mul(a: int, b: int):
    """Multiplication Sym^a U (x) Sym^b U -> Sym^{a+b} U."""
    src = RepSpace.tensor([RepSpace.sym(a), RepSpace.sym(b)])
    return label_build(src, RepSpace.sym(a + b), lambda ij: ((ij[0] + ij[1], 1),),
                  f"mul({a},{b})")


def comul(a: int, b: int):
    """Co-multiplication D^{a+b} U -> D^a U (x) D^b U."""
    tgt = RepSpace.tensor([RepSpace.div(a), RepSpace.div(b)])
    return label_build(RepSpace.div(a + b), tgt,
                  lambda t: (((i, t - i), 1)
                             for i in range(max(0, t - b), min(a, t) + 1)),
                  f"comul({a},{b})")


def comul2(a: int):
    """D^{a+2} U -> D^a U (x) Sym^2 U: co-multiplication followed by
    the divided-to-symmetric square; the middle coefficient C(2,1)=2
    dies in characteristic 2."""
    tgt = RepSpace.tensor([RepSpace.div(a), RepSpace.sym(2)])
    return label_build(RepSpace.div(a + 2), tgt,
                  lambda t: (((t - u, u), comb(2, u))
                             for u in range(3) if 0 <= t - u <= a),
                  f"comul2({a})")


def _smono(g: int, k: int) -> RepSpace:
    """Degree-k monomials of S = Sym(Sym^g U) as a sym-power space."""
    return RepSpace.sym_power(k, RepSpace.sym(g))


def realize_block(block: ExactMatrix, src_gens: RepSpace, tgt_gens: RepSpace,
                  g: int, k: int) -> ExactMatrix:
    """Realize gens -> gens' (x) Sym^g U at S-degree k of the source:
    the map gens (x) S_k -> gens' (x) S_{k+1}, that is block (x) id on
    S_k followed by multiplying Sym^g U into S_k."""
    mult = ExactMatrix.identity(tgt_gens.dim).kron(sympow_mul(k, RepSpace.sym(g)).matrix)
    return mult @ block.kron(ExactMatrix.identity(_smono(g, k).dim))


def complex_K(g: int) -> GradedComplex:
    """The Koszul complex on Sym^g U resolving the residue field, in the
    generator-level layout of `tangent.GradedComplex`."""
    terms = [[Summand(RepSpace.wedge(i, RepSpace.sym(g)), i)] for i in range(g + 2)]
    # koszul_k already targets Tensor([Wedge^{i-1}, Sym^g]), the
    # gens (x) Sym^g U layout used by every block here
    diffs = [None] + [{(0, 0): koszul_k(i, g).matrix} for i in range(1, g + 2)]
    return GradedComplex(g, terms, diffs)


# -- label-level builders: the tuple reference for the array builders ---------
#
# Each map below is assembled one source label at a time from Python
# tuples (`basis`), through the label helpers that the package's
# array builders replaced.  The differential tests compare the two.

def label_build(source, target, image, name) -> RepMap:
    """Assemble a RepMap column by column: `image(label)` yields the
    (target label, coeff) pairs of one source basis label; repeated
    target labels add up, and ExactMatrix drops the zero sums."""
    index = {lab: k for k, lab in enumerate(basis(target))}
    rows, cols, vals = [], [], []
    for c, slab in enumerate(basis(source)):
        for tlab, v in image(slab):
            rows.append(index[tlab])
            cols.append(c)
            vals.append(v)
    return RepMap(source, target, ExactMatrix(target.dim, source.dim, (rows, cols, vals)), name)


@functools.lru_cache(maxsize=None)
def basis(space: RepSpace):
    """The labels of `space` as Python values, in basis order: ints for
    Sym, Div and Free, tuples with zeros stripped for SymPower (which
    keeps the order, every other part being >= 1), tuples for Wedge,
    tuples of factor labels for Tensor."""
    if space.kind == "tensor":
        return tuple(product(*map(basis, space.factors)))
    if space.kind in ("sym", "div", "free"):
        return tuple(range(space.dim))
    strip = space.kind == "sympow"
    return tuple(tuple(x for x in row if x or not strip) for row in space.labels.tolist())


def index(space: RepSpace, label) -> int:
    """Basis position of one label as `basis` lists it (a linear search)."""
    return basis(space).index(label)


def basis_reference(space: RepSpace):
    """The basis tuples of a space in the order of the module docstring
    of `reps`, enumerated by itertools."""
    if space.kind in ("sym", "div", "free"):
        return tuple(range(space.dim))
    if space.kind == "tensor":
        return tuple(product(*map(basis_reference, space.factors)))
    top = space.inner.dim - 1
    if space.kind == "wedge":
        if space.inner.kind == "free":
            return tuple(combinations(range(top + 1), space.d))
        return tuple(combinations(range(top, -1, -1), space.d))[::-1]
    monos = combinations_with_replacement(range(top, -1, -1), space.d)
    return tuple(tuple(v for v in mu if v) for mu in monos)[::-1]


def insert_part(mu, v):
    """Insert the part v into the stripped SymPower label mu (weakly
    decreasing, no zeros): the label of the monomial mu * x_v."""
    if not v:
        return mu
    k = len(mu)
    while k and mu[k - 1] < v:
        k -= 1
    return mu[:k] + (v,) + mu[k:]


@functools.lru_cache(maxsize=None)
def column_shift(exps, j):
    """The Pieri rule s_l * e_j in wedge labels: the labels exps + 1_I
    over the j-subsets I of the slots, in subset order.  Only the
    vertical strips are enumerated: slot k may move only if slot k - 1
    moves or exps[k - 1] > exps[k] + 1."""
    i = len(exps)
    new, out = list(exps), []

    def grow(start, need):
        if not need:
            out.append(tuple(new))
            return
        for k in range(start, i - need + 1):
            if k == start or exps[k - 1] > exps[k] + 1:
                new[k] += 1
                grow(k + 1, need - 1)
                new[k] -= 1

    grow(0, j)
    return tuple(out)


def contract(exps):
    """The signed Koszul contraction of a wedge label: (rest, part, sign)
    for each slot k, dropping part = exps[k] with sign (-1)^k."""
    for k in range(len(exps)):
        yield exps[:k] + exps[k + 1:], exps[k], -1 if k % 2 else 1


def _op_terms(space: RepSpace, label):
    """Terms of L applied to one basis label, as (label, coeff) pairs."""
    k = space.kind
    if k == "sym":
        return [(label - 1, label)] if label >= 1 else []
    if k == "div":
        e, d = label, space.d
        return [(e - 1, d - e + 1)] if e >= 1 else []
    if k == "tensor":
        out = []
        for pos, (sp, lab) in enumerate(zip(space.factors, label)):
            for nl, c in _op_terms(sp, lab):
                out.append((label[:pos] + (nl,) + label[pos + 1:], c))
        return out
    if k == "wedge":
        out = []
        present = set(label)
        for pos, e in enumerate(label):
            for nl, c in _op_terms(space.inner, e):
                if nl not in present:
                    out.append((label[:pos] + (nl,) + label[pos + 1:], c))
        return out
    if k == "sympow":
        out = []
        padded = label + (0,) * (space.d - len(label))
        seen = set()
        for pos, e in enumerate(padded):
            if e in seen:
                continue
            seen.add(e)
            rest = label[:pos] + label[pos + 1:]   # drop one x_e; zeros are implicit
            for nl, c in _op_terms(space.inner, e):
                out.append((insert_part(rest, nl), padded.count(e) * c))
        return out
    raise ValueError(f"no sl2 action on {space!r}")


def lowering_reference(space: RepSpace) -> RepMap:
    return label_build(space, space, lambda lab: _op_terms(space, lab), "L")


def nu_reference(d: int, i: int) -> RepMap:
    src = RepSpace.tensor([RepSpace.div(i), RepSpace.wedge(i, RepSpace.sym(d + i - 1))])
    return label_build(src, RepSpace.wedge(i, RepSpace.sym(d + i)),
                       lambda lab: ((new, 1) for new in column_shift(lab[1], lab[0])),
                       f"nu({d},{i})")


@functools.lru_cache(maxsize=None)
def _psi_column(mu, i: int):
    """The Schur expansion of e_mu as {wedge label: coeff}: the column of
    mu[:-1] with its last part applied by the Pieri rule `column_shift`."""
    if not mu:
        return {tuple(range(i - 1, -1, -1)): 1}
    out = {}
    for exps, c in _psi_column(mu[:-1], i).items():
        for new in column_shift(exps, mu[-1]):
            out[new] = out.get(new, 0) + c
    return out


def psi_reference(d: int, i: int) -> RepMap:
    return label_build(RepSpace.sym_power(d, RepSpace.div(i)),
                       RepSpace.wedge(i, RepSpace.sym(d + i - 1)),
                       lambda mu: _psi_column(mu, i).items(), f"psi({d},{i})")


def delta2_reference(g: int, i: int) -> RepMap:
    inner = RepSpace.div(i + 1)
    src = RepSpace.tensor([RepSpace.div(2 * i), RepSpace.sym_power(g - 2 - i, inner)])
    tgt = RepSpace.tensor([inner, RepSpace.sym_power(g - 1 - i, inner)])
    return label_build(src, tgt, lambda lab: (((tp, insert_part(lab[1], ts)), tp - ts)
                                              for tp, ts in _wahl_splits(lab[0], i)),
                       f"delta2({g},{i})")


def map_q_reference(g: int, i: int) -> RepMap:
    src = RepSpace.sym(g - 2) if i == 0 else RepSpace.tensor(
        [RepSpace.div(2 * i), RepSpace.wedge(i + 1, RepSpace.sym(g - 2))])
    tgt = RepSpace.tensor([RepSpace.div(i + 1), RepSpace.wedge(i + 1, RepSpace.sym(g - 1))])

    def image(lab):
        t, exps = (0, (lab,)) if i == 0 else lab
        for tp, ts in _wahl_splits(t, i):
            for new in column_shift(exps, ts):
                yield (tp, new), tp - ts

    return label_build(src, tgt, image, f"q({g},{i})")


def generic_koszul_delta_reference(n: int, i: int, q: int) -> RepMap:
    V = RepSpace.free(n)
    src = RepSpace.tensor([RepSpace.wedge(i, V), RepSpace.sym_power(q, V)])
    tgt = RepSpace.free(0) if i == 0 else RepSpace.tensor(
        [RepSpace.wedge(i - 1, V), RepSpace.sym_power(q + 1, V)])
    return label_build(src, tgt, lambda lab: (((rest, insert_part(lab[1], v)), sign)
                                              for rest, v, sign in contract(lab[0])),
                       f"koszul_delta({n},{i},{q})")
