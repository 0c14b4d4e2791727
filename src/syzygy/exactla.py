"""Exact linear algebra over GF(p) and over the rationals.

This is the rank/kernel engine used by every other module.  All
computations are exact.  GF(p) ranks have one dense engine per prime
range.  Every prime that `_f64_admits` (up to ~2^23) runs in float64:
blocked elimination with one BLAS matrix product per panel and delayed
reduction.  Entries of the un-eliminated block are integers whose
magnitude the engine bounds as it goes; they are reduced mod p only in
the column searched for a pivot, in the pivot row, and in bulk when the
next panel could push the bound to 2^51, which for small primes never
happens.  Larger primes take the pivot count of `_rref_gf`, the int64
reduced row echelon form that also yields every kernel basis over GF(p);
kernel bases over Q come from the Fraction echelon form
`_rref_fraction`.  Apart from the oracle's independent echelon, these
three are the package's only eliminators: every other module reads
echelon data off `rank` and `kernel_basis`.  The float64 engine ranks an
m x n matrix in one m x n float64 array, filled directly from the sparse
entries, plus temporaries of at most `_SLAB_CELLS` cells and O((m + n) x
panel width) for the panels, so its peak memory is about 8 m n bytes.
Characteristic-zero ranks run on the same float64 engine: the matrix,
with denominators cleared, is ranked modulo a fixed descending sequence
of primes until the rank is full or the product of the primes exceeds
the Hadamard bound, which certifies the largest rank seen (see `rank`).
Nothing here is floating point in the numerical-analysis sense; float64
is used only as an exact carrier of integers below 2^53.

Matrices are immutable sparse coordinate maps.  Pivoting is always
"first nonzero entry in column order" so kernel bases are reproducible
bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt, lcm, prod

import numpy as np

# float64 carries exact integers up to 2**53; the blocked GF(p) path
# keeps every entry below _F64_SAFE = 2**51, which leaves room for the
# rounding of the quotient in `_reduce_f64`.  _GF_BLOCK is its panel
# width; each pivot pays a rank-1 update of (rows x panel width).  Among
# 24..128, 32 was fastest, or within noise of it, on every delta2 weight
# block of betti g = 12 over GF(3) and g = 13 over GF(113), and on the
# 2100x2940 W_4 block of koszul-resonance n = 7 over GF(5).
_GF_BLOCK = 32
_F64_SAFE = 2**51
# Row slabs of the float64 engine's trailing update and bulk reduction
# hold at most this many cells (64 MB), so that their temporaries stay
# small beside the matrix itself.  Every benched weight block and the
# W_4 blocks up to n = 7 fit in one slab.
_SLAB_CELLS = 2**23


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid for n < 3.2e18."""
    if n < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class FieldSpec:
    """Coefficient field: characteristic 0 (rationals) or a prime p < 2^31."""

    characteristic: int

    def __post_init__(self):
        p = self.characteristic
        if p == 0:
            return
        if not (2 <= p < 2**31) or not _is_prime(p):
            raise ValueError(f"characteristic must be 0 or a prime < 2^31, got {p}")

    def __str__(self) -> str:
        return "QQ" if self.characteristic == 0 else f"GF({self.characteristic})"


QQ = FieldSpec(0)


def GF(p: int) -> FieldSpec:
    return FieldSpec(p)


class ExactMatrix:
    """Immutable sparse matrix with integer or Fraction entries.

    The matrix itself is field-agnostic; reduction happens inside the
    rank/kernel operations, which receive a FieldSpec.  Sparse storage
    never keeps explicit zeros.
    """

    __slots__ = ("rows", "cols", "_entries")

    def __init__(self, rows: int, cols: int, entries=None):
        if rows < 0 or cols < 0:
            raise ValueError("negative dimensions")
        self.rows = rows
        self.cols = cols
        clean = {}
        if entries:
            for (r, c), v in entries.items():
                if not (0 <= r < rows and 0 <= c < cols):
                    raise ValueError(f"entry ({r},{c}) outside {rows}x{cols}")
                if v:
                    clean[(r, c)] = v
        self._entries = clean

    @classmethod
    def from_rows(cls, data) -> "ExactMatrix":
        rows = len(data)
        cols = len(data[0]) if rows else 0
        ent = {}
        for r, row in enumerate(data):
            if len(row) != cols:
                raise ValueError("ragged rows")
            for c, v in enumerate(row):
                if v:
                    ent[(r, c)] = v
        return cls(rows, cols, ent)

    @classmethod
    def identity(cls, n: int) -> "ExactMatrix":
        return cls(n, n, {(i, i): 1 for i in range(n)})

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "ExactMatrix":
        return cls(rows, cols)

    @classmethod
    def from_columns(cls, columns, rows: int) -> "ExactMatrix":
        ent = {}
        for c, col in enumerate(columns):
            if len(col) != rows:
                raise ValueError("column length mismatch")
            for r, v in enumerate(col):
                if v:
                    ent[(r, c)] = v
        return cls(rows, len(columns), ent)

    @property
    def nnz(self) -> int:
        return len(self._entries)

    @property
    def shape(self):
        return (self.rows, self.cols)

    def entry(self, r: int, c: int):
        return self._entries.get((r, c), 0)

    def items(self):
        return self._entries.items()

    def column(self, c: int):
        v = [0] * self.rows
        for (r, cc), val in self._entries.items():
            if cc == c:
                v[r] = val
        return v

    def transpose(self) -> "ExactMatrix":
        return ExactMatrix(self.cols, self.rows,
                           {(c, r): v for (r, c), v in self._entries.items()})

    def __matmul__(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.shape} @ {other.shape}")
        by_row = {}
        for (r, k), v in other._entries.items():
            by_row.setdefault(r, []).append((k, v))
        out = {}
        for (r, k), v in self._entries.items():
            for c, w in by_row.get(k, ()):
                key = (r, c)
                out[key] = out.get(key, 0) + v * w
        return ExactMatrix(self.rows, other.cols, out)

    def __add__(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.shape != other.shape:
            raise ValueError("shape mismatch")
        ent = dict(self._entries)
        for key, v in other._entries.items():
            ent[key] = ent.get(key, 0) + v
        return ExactMatrix(self.rows, self.cols, ent)

    def __sub__(self, other: "ExactMatrix") -> "ExactMatrix":
        return self + other.scaled(-1)

    def scaled(self, a) -> "ExactMatrix":
        return ExactMatrix(self.rows, self.cols,
                           {k: a * v for k, v in self._entries.items()})

    def kron(self, other: "ExactMatrix") -> "ExactMatrix":
        """Kronecker product; row-major pairing (this factor slowest)."""
        ent = {}
        for (r1, c1), v1 in self._entries.items():
            for (r2, c2), v2 in other._entries.items():
                ent[(r1 * other.rows + r2, c1 * other.cols + c2)] = v1 * v2
        return ExactMatrix(self.rows * other.rows, self.cols * other.cols, ent)

    @staticmethod
    def hstack(mats) -> "ExactMatrix":
        mats = list(mats)
        rows = mats[0].rows
        ent = {}
        off = 0
        for m in mats:
            if m.rows != rows:
                raise ValueError("row count mismatch in hstack")
            for (r, c), v in m._entries.items():
                ent[(r, off + c)] = v
            off += m.cols
        return ExactMatrix(rows, off, ent)

    def to_dense(self):
        out = [[0] * self.cols for _ in range(self.rows)]
        for (r, c), v in self._entries.items():
            out[r][c] = v
        return out

    def is_zero(self) -> bool:
        return not self._entries

    def equals_mod(self, other: "ExactMatrix", f: FieldSpec) -> bool:
        """Entrywise equality over the given field: the difference
        vanishes.  In characteristic p every entry of both operands must
        be an integer."""
        if self.shape != other.shape:
            return False
        p = f.characteristic
        if p and not all(isinstance(v, int) for m in (self, other)
                         for v in m._entries.values()):
            raise TypeError("fractional entry in positive characteristic")
        diff = (self - other)._entries.values()
        return not any(v % p for v in diff) if p else not diff

    def __eq__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return self.shape == other.shape and self._entries == other._entries

    def __hash__(self):
        return hash((self.rows, self.cols, frozenset(self._entries.items())))

    def __repr__(self):
        return f"ExactMatrix({self.rows}x{self.cols}, nnz={self.nnz})"


# ---------------------------------------------------------------------------
# GF(p) engines
# ---------------------------------------------------------------------------

def _gf_array(m: ExactMatrix, p: int, dtype=np.int64) -> np.ndarray:
    """Dense residues of m mod p in [0, p).  The float64 engine takes
    float64 directly, so its matrix is never held twice; int64 serves
    the RREF."""
    a = np.zeros((m.rows, m.cols), dtype=dtype)
    for (r, c), v in m.items():
        if not isinstance(v, int):
            raise TypeError("fractional entry in positive characteristic")
        a[r, c] = v % p
    return a


def _f64_fits(bound: int, width: int, p: int) -> bool:
    """Do entries of magnitude <= bound stay below _F64_SAFE through
    `width` more eliminations, each subtracting one product of two
    reduced residues?  The single exactness inequality of the engine."""
    return bound + width * (p - 1) * (p - 1) < _F64_SAFE


def _f64_admits(p: int) -> bool:
    """Dispatch predicate: one full panel fits right after a bulk reduction."""
    return _f64_fits(p - 1, _GF_BLOCK, p)


def _reduce_f64(x: np.ndarray, p: int) -> None:
    """Reduce integer-valued x in place to a residue of magnitude <= (p+1)//2.

    For |x| < 2^51 every step is exact except the quotient x*(1/p), which
    is off x/p by at most (|x|/p) 2^-52 (1 + 2^-53), a hair over 1/(2p).
    So x - p*rint(x*(1/p)) is an integer congruent to x within
    p/2 + 1/2 + 2^-54 of zero, hence within (p+1)//2 (for p = 2 the
    quotient is exact).  (p+1)//2 <= p-1 for every prime, so a product
    of two such residues is at most (p-1)^2, and a residue is zero
    exactly when x = 0 mod p.
    """
    t = x * (1.0 / p)
    np.rint(t, out=t)
    t *= p
    x -= t


def _row_slabs(r0: int, m: int, width: int):
    """Row ranges [i, j) covering rows r0..m-1, each of at most
    `_SLAB_CELLS` cells of `width` columns (and at least one row)."""
    step = max(1, _SLAB_CELLS // max(width, 1))
    for i in range(r0, m, step):
        yield i, min(i + step, m)


def _rank_gf_f64(a: np.ndarray, p: int) -> int:
    """Blocked elimination mod p in float64, with delayed reduction.

    `a` holds reduced residues mod p (magnitude <= p-1).  A float64 `a`
    is eliminated in place, without a copy; any other dtype is converted
    once.

    Right-looking panel LU: within a panel the update is rank-1; the
    trailing update is one matrix product per panel.  Pivot rows apply
    pending panel updates when discovered, so no triangular solve is
    needed.

    Invariant: every entry of the un-eliminated block A[r:, c0:] is an
    integer of magnitude <= `bound` < _F64_SAFE (tracked, not measured).
    Multipliers and pivot rows are reduced residues of magnitude <= p-1,
    so each pivot moves an entry by at most (p-1)^2 and a panel with k
    pivots raises the bound by at most k (p-1)^2.  Reduction mod p
    (`_reduce_f64`) happens only on the column about to be searched for
    a pivot, on the pivot row, and on the whole trailing block when the
    next panel could break `_f64_fits`.  That last case comes after
    ~2^51 / (p-1)^2 pivots (2^27 at p = 2^12), so for small primes the
    trailing block is never reduced in bulk.  The trailing update and
    the bulk reduction run in row slabs (`_row_slabs`), so their
    temporaries stay below `_SLAB_CELLS` cells.
    """
    m, n = a.shape
    if m == 0 or n == 0:
        return 0
    A = np.asarray(a, dtype=np.float64)
    bound = p - 1
    r = 0
    c0 = 0
    while c0 < n and r < m:
        c1 = min(c0 + _GF_BLOCK, n)
        if not _f64_fits(bound, c1 - c0, p):
            for i, j in _row_slabs(r, m, n - c0):
                _reduce_f64(A[i:j, c0:], p)
            bound = p - 1
        trail = np.empty((c1 - c0, n - c1), dtype=np.float64)
        L = np.zeros((m, c1 - c0), dtype=np.float64)   # panel multipliers
        k = 0                    # pivots found in this panel
        for c in range(c0, c1):
            col = A[r:, c]
            _reduce_f64(col, p)
            nz = col.nonzero()[0]
            if nz.size == 0:
                continue
            j = r + int(nz[0])
            if j != r:
                t = A[r, c0:].copy()
                A[r, c0:] = A[j, c0:]
                A[j, c0:] = t
                t = L[r].copy()
                L[r] = L[j]
                L[j] = t
            row = A[r, c:]
            if k and c1 < n:
                # apply pending trailing updates to the new pivot row
                row[c1 - c:] -= L[r, :k] @ trail[:k]
            _reduce_f64(row, p)
            row *= pow(int(row[0]), p - 2, p)
            _reduce_f64(row, p)
            if c1 < n:
                trail[k] = row[c1 - c:]
            if r + 1 < m:
                f = A[r + 1:, c]
                L[r + 1:, k] = f
                # column c is finished: update only the columns after it
                A[r + 1:, c + 1:c1] -= f[:, None] * row[1:c1 - c]
            k += 1
            r += 1
        if k and c1 < n and r < m:
            for i, j in _row_slabs(r, m, n - c1):
                A[i:j, c1:] -= L[i:j, :k] @ trail[:k]
        bound += k * (p - 1) * (p - 1)
        c0 = c1
    return r


def _rank_gf(m: ExactMatrix, p: int) -> int:
    if _f64_admits(p):
        return _rank_gf_f64(_gf_array(m, p, np.float64), p)
    return len(_rref_gf(_gf_array(m, p), p)[1])


# ---------------------------------------------------------------------------
# Row echelon forms (kernel bases)
# ---------------------------------------------------------------------------

def _rref_fraction(rows):
    """Reduced row echelon form over Q.  Returns (rref rows, pivot cols)."""
    a = [[Fraction(v) for v in row] for row in rows]
    m = len(a)
    n = len(a[0]) if m else 0
    pivots = []
    r = 0
    for c in range(n):
        if r == m:
            break
        pr = None
        for i in range(r, m):
            if a[i][c]:
                pr = i
                break
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


def _rref_gf(a: np.ndarray, p: int):
    """Reduced row echelon form mod p in int64; valid for any p < 2^31.
    Returns (rref, pivot cols).  The int64 input is reduced and
    eliminated in place and returned as the rref, so it is consumed.

    It yields the kernel bases over GF(p), and the ranks modulo primes
    above the float64 engine's range.  Each pivot is the first nonzero
    entry of its column at or below the current row; one masked update
    clears its column from every other row.  The pivot row is zero left
    of the pivot column, so only the columns from it on change.
    Residues are below 2^31, so each product stays below 2^62.
    """
    A = np.remainder(a, p, out=a)
    m, n = A.shape
    pivots = []
    r = 0
    for c in range(n):
        if r == m:
            break
        nz = np.flatnonzero(A[r:, c])
        if nz.size == 0:
            continue
        j = r + int(nz[0])
        if j != r:
            A[[r, j], c:] = A[[j, r], c:]
        inv = pow(int(A[r, c]), p - 2, p)
        A[r, c:] = (A[r, c:] * inv) % p
        col = A[:, c]
        mask = col != 0
        mask[r] = False
        if mask.any():
            A[mask, c:] = (A[mask, c:] - col[mask, None] * A[r, c:]) % p
        pivots.append(c)
        r += 1
    return A, pivots


# ---------------------------------------------------------------------------
# Public operations
# ---------------------------------------------------------------------------

def _char0_primes():
    """The fixed prime sequence of the char-0 rank: every prime that
    `_f64_admits`, in descending order from the largest (8,388,593)."""
    q = isqrt(_F64_SAFE // _GF_BLOCK) + 1
    while q > 2:
        q -= 1
        if _f64_admits(q) and _is_prime(q):
            yield q


def rank(m: ExactMatrix, f: FieldSpec) -> int:
    """Exact rank of m over f.  Empty matrices have rank 0.

    Over Q each row is scaled by the lcm of its denominators, which keeps
    the rank, and the integer matrix is ranked mod the primes of
    `_char0_primes` in turn, keeping the largest rank seen.  That stops
    at full rank min(m, n), or once (prod p)^2 exceeds H^2, the product
    of the min(m, n) largest squared norms of the nonzero rows (or the
    same over columns, whichever is smaller).  Certificate: suppose the rank over
    Q is r.  Then some r x r minor D is nonzero, and |D| <= H by
    Hadamard's inequality.  The rank mod p is at most r, and it drops
    below r only if p divides every r x r minor, D among them.  So if
    the largest rank seen were below r, D would be a nonzero multiple of
    the product of the primes used, which is larger than H: impossible.
    """
    if m.rows == 0 or m.cols == 0 or m.nnz == 0:
        return 0
    p = f.characteristic
    if p:
        return _rank_gf(m, p)
    scale = {}
    for (r, _), v in m.items():
        if isinstance(v, Fraction):
            scale[r] = lcm(scale.get(r, 1), v.denominator)
    ent = {}
    row_sq, col_sq = {}, {}
    for (r, c), v in m.items():
        v = int(v * scale.get(r, 1))
        ent[(r, c)] = v
        row_sq[r] = row_sq.get(r, 0) + v * v
        col_sq[c] = col_sq.get(c, 0) + v * v
    full = min(m.rows, m.cols)
    h2 = min(prod(sorted(row_sq.values(), reverse=True)[:full]),
             prod(sorted(col_sq.values(), reverse=True)[:full]))
    scaled = ExactMatrix(m.rows, m.cols, ent)
    best, modulus = 0, 1
    for q in _char0_primes():
        best = max(best, _rank_gf(scaled, q))
        modulus *= q
        if best == full or modulus * modulus > h2:
            return best
    raise ArithmeticError("Hadamard bound exceeds the product of all primes below 2^23")


def kernel_basis(m: ExactMatrix, f: FieldSpec):
    """Deterministic basis of the right kernel of m over f.

    Vectors are returned in free-column order; over GF(p) entries are
    reduced residues, over Q they are Fractions.
    """
    p = f.characteristic
    if m.cols == 0:
        return []
    if p:
        A, pivots = _rref_gf(_gf_array(m, p), p)
        pivset = set(pivots)
        basis = []
        for c in range(m.cols):
            if c in pivset:
                continue
            v = [0] * m.cols
            v[c] = 1
            for r, pc in enumerate(pivots):
                v[pc] = (-int(A[r, c])) % p
            basis.append(v)
        return basis
    rref, pivots = _rref_fraction(m.to_dense())
    pivset = set(pivots)
    basis = []
    for c in range(m.cols):
        if c in pivset:
            continue
        v = [Fraction(0)] * m.cols
        v[c] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -rref[r][c]
        basis.append(v)
    return basis


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


def graded_rank(m: ExactMatrix, f: FieldSpec, row_weights, col_weights) -> int:
    """Rank of a weight-graded matrix, one small block per weight class.

    Entries must connect each column-weight class to a single
    row-weight class (and conversely); this holds for every equivariant
    map in this package and is verified, not assumed: an ungraded
    matrix or a weight vector of the wrong length raises ValueError.
    """
    if len(row_weights) != m.rows or len(col_weights) != m.cols:
        raise ValueError("weight vector length mismatch")
    col_groups = {}
    for c, w in enumerate(col_weights):
        col_groups.setdefault(w, []).append(c)
    row_groups = {}
    for r, w in enumerate(row_weights):
        row_groups.setdefault(w, []).append(r)
    # map each column class to the row class its entries live in
    target_of = {}
    for (r, c), _ in m.items():
        cw, rw = col_weights[c], row_weights[r]
        if target_of.setdefault(cw, rw) != rw:
            raise ValueError("matrix is not weight-graded")
    used_rows = {}
    for cw, rw in target_of.items():
        if used_rows.setdefault(rw, cw) != cw:
            raise ValueError("two column classes hit one row class")
    total = 0
    col_index = {w: {c: i for i, c in enumerate(cs)} for w, cs in col_groups.items()}
    row_index = {w: {r: i for i, r in enumerate(rs)} for w, rs in row_groups.items()}
    blocks = {}
    for (r, c), v in m.items():
        cw = col_weights[c]
        blocks.setdefault(cw, {})[(row_index[row_weights[r]][r],
                                   col_index[cw][c])] = v
    for cw, ent in sorted(blocks.items()):
        rw = target_of[cw]
        sub = ExactMatrix(len(row_groups[rw]), len(col_groups[cw]), ent)
        total += rank(sub, f)
    return total

