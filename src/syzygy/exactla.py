"""Exact linear algebra over GF(p) and over the rationals.

This is the rank/kernel engine used by every other module; all
computations are exact.  Every prime that `_f64_admits` (up to ~2^23)
ranks in floating point (`_rank_gf_f64`), with the bulk of the work in
matrix products and delayed reduction, left-looking: the short side is
taken as rows, and column blocks of up to 256 are read from the source
one at a time, updated by one product per earlier block and factored.
Entries are integers whose magnitude the engine bounds as it goes,
reduced mod p only where a pivot is searched or used and in bulk when
the bound could reach its carrier's limit: 2^22 in float32, which
carries the primes up to 199 (`_carrier`), and 2^51 in float64.  It
holds the earlier blocks' multipliers (at most min(m, n)^2 / 2 cells),
one block and one row slab, never the dense matrix, and stops once the
rank fills the short side.  Larger primes take the pivot count of
`_rref_gf`, the int64 reduced row echelon form that yields every kernel
basis: over GF(p) directly, over Q lifted by CRT and rational
reconstruction.  Apart from the oracle's independent echelon, these two
are the package's only dense eliminators.  Ahead of them a GF(p) rank
of a large sparse matrix takes cheap pivots first (`_markowitz`): in
rounds of whole-array operations, a set of low-fill pivots that span a
diagonal block D, and the exact Schur complement mod p in place of the
rest.  So the rank is the pivot count plus the rank of the core that
the rounds leave.  `closed_ranks`, the one rank of weight-graded maps,
ranks each map's weight blocks in shared rounds (`_ranks_gf`): laid
out block-diagonally, in groups of a bounded entry count, they take
one loop of rounds in which each block pivots as it would alone.  Over
Q the matrix, with denominators cleared, stays an `ExactMatrix` and is
ranked modulo descending primes.  Each rank carries one of four
certificates (see `rank`): full rank mod a prime, closure mod a prime
against the maps that compose with it to zero (`closed_ranks`; both
are a rank mod a prime that reaches a proven upper bound), an exact
kernel checked by one sparse product, or the Hadamard bound.
Floats are used only as exact carriers of integers: below 2^24 in
float32 and below 2^53 in float64.

`ExactMatrix` is immutable and stores three coordinate arrays, `row`
and `col` (int64) and `val`, sorted column-major.  `val` is int64 when
every entry is an int that fits int64, and otherwise an object array of
Python ints and Fractions.  An int64 sum or product whose proven
magnitude bound could reach 2^63 is computed in object dtype, so nothing
overflows.  Pivoting is always "first nonzero entry in column order", so
kernel bases are reproducible bit for bit.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from math import gcd, isqrt, lcm, prod

import numpy as np

# float64 carries exact integers up to 2**53 and float32 up to 2**24;
# the blocked GF(p) path keeps every entry below _F64_SAFE = 2**51 or
# _F32_SAFE = 2**22, which leaves room for the rounding of the quotient
# in `_reduce_f64`.  _GF_BLOCK is its panel width, the unit of its
# column blocks and the width `_f64_admits` requires.
# In the two-level engine, panels of 16, 64 and 128 were within noise
# (about 10%) of 32 on the weight blocks of betti g = 12 over GF(3) and
# g = 13 over GF(113) and on the W_4 blocks of koszul-resonance n = 7
# over GF(5); none was faster, so 32 stays.
_GF_BLOCK = 32
_F64_SAFE = 2**51
_F32_SAFE = 2**22
# float32 carries a prime only if it allows blocks of at least this many
# columns.  Ranking the ~1440x2200 W_4 cores of koszul-resonance n = 7
# in each carrier (2 CPUs, OpenBLAS, best of 5), float32 ties float64 at
# W = 96 (p = 197: 0.21 s against 0.18 s; 199: 0.16 against 0.18) but
# loses at W = 64 (211: 0.22 against 0.18; 251: 0.20 against 0.18) and
# at W = 32 (293, 359: 0.37 against 0.16-0.19): narrow blocks take more
# replays each, and a bulk reduction before nearly every one.
_F32_MIN_WIDTH = 3 * _GF_BLOCK
# Row slabs of the GF(p) engine's replayed products and bulk reductions,
# and of the scatter of a sparse source into a block, hold at most this
# many cells (4 MB in float64, 2 MB in float32).  The W_4 core of
# koszul-resonance n = 7 (1443x2212) and the W_5 core at n = 8
# (8691x14988) rank as fast with 2^19 as with 2^23, which holds a whole
# block (0.13-0.14 s against 0.12-0.17 s; 10.8-11.5 s against 10.3-10.5 s).
_SLAB_CELLS = 2**19
# The sparse front end of the GF(p) rank (`_markowitz`) pivots on an
# entry only if its Markowitz cost, the count of products its
# elimination adds, is at most this.
_MARKOWITZ_MAX = 64
# `_ranks_gf` hands consecutive blocks to one loop of `_markowitz` rounds
# until they hold this many entries.  In process (2 CPUs, best of 3),
# `betti --g 13 --char 113` takes 747 rounds and 0.25 s one block at a
# time, 338 and 0.16 s with 2^12, 127 and 0.13 s with 2^14, and 88 and
# 0.12-0.13 s with 2^16, 2^18 or 2^20, which hold each of its maps whole.
_GROUP_ENTRIES = 2**16
# int64 holds the integers in [-_I64, _I64).  `ExactMatrix.__matmul__`
# expands at most about _MATMUL_SLAB partial products (512 KB per int64
# array).  Process peaks of the hermite jobs (d, i) = (6, 7), (5, 7),
# (6, 6), (7, 5) are 71.5, 49.0, 48.7, 43.8 MB with it and 100.5, 51.5,
# 52.1, 43.9 MB with 2^19; the products of those jobs, selfcheck and
# koszul-resonance take the same time with either.
_I64 = 2**63
_MATMUL_SLAB = 2**16


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


def _max_abs(v: np.ndarray) -> int:
    """Largest magnitude in a value array, as a Python int (0 if empty)."""
    if v.dtype == object or v.size == 0:
        return max(map(abs, v.tolist()), default=0)
    return max(int(v.max()), -int(v.min()))


def _values(v) -> np.ndarray:
    """Entry values as int64 when every one is an int that fits int64,
    otherwise as an object array of the values themselves."""
    a = np.asarray(v)
    if a.dtype == np.int64 or a.size == 0:
        return a.astype(np.int64, copy=False)
    if a.dtype != object:           # numpy's guess for ints beyond int64
        a = np.array(v, dtype=object)
    xs = a.tolist()
    if all(isinstance(x, int) for x in xs) and -_I64 <= min(xs) <= max(xs) < _I64:
        return a.astype(np.int64)
    return a


def _integral(*vals: np.ndarray) -> None:
    if any(v.dtype == object and not all(isinstance(x, int) for x in v.tolist()) for v in vals):
        raise TypeError("fractional entry in positive characteristic")


def _runs(key: np.ndarray) -> np.ndarray:
    """Where each run of equal values of the sorted array `key` starts,
    then key.size, by one slice comparison: np.diff's prepend and append
    would cost a concatenation each."""
    edge = np.ones(key.size + 1, dtype=bool)
    np.not_equal(key[1:], key[:-1], out=edge[1:-1])
    return np.flatnonzero(edge)


def _canonical(rows: int, r: np.ndarray, c: np.ndarray, v: np.ndarray):
    """Coordinates sorted column-major, repeats summed (in object dtype
    if an int64 sum could reach 2^63) and zeros dropped, by one sort.
    Each temporary is dropped once used, as the maps' constructors peak
    here."""
    key = c * rows + r
    order = np.argsort(key)
    key, v = key[order], v[order]
    del order
    at = _runs(key)
    if at.size <= key.size:
        if v.dtype != object and _max_abs(v) * int(np.diff(at).max()) >= _I64:
            v = v.astype(object)
        key, v = key[at[:-1]], np.add.reduceat(v, at[:-1])
    del at
    keep = v != 0
    key, v = key[keep], v[keep]
    del keep
    c, r = np.divmod(key, rows)
    return r, c, v


class ExactMatrix:
    """Immutable sparse matrix with integer or Fraction entries: the
    coordinate arrays of the module docstring, with distinct coordinates
    and no zeros.  Field-agnostic: reduction happens inside the
    rank/kernel operations.  Accessors return Python ints and Fractions.
    `entries` is a {(row, col): value} mapping or a (rows, cols, values)
    triple whose repeated coordinates add up."""

    __slots__ = ("rows", "cols", "row", "col", "val", "_starts", "_bound")

    def __init__(self, rows: int, cols: int, entries=None):
        if rows < 0 or cols < 0:
            raise ValueError("negative dimensions")
        if hasattr(entries, "items"):
            keys = np.array(list(entries), dtype=np.int64).reshape(-1, 2)
            entries = keys[:, 0], keys[:, 1], list(entries.values())
        r, c, v = entries or ((), (), ())
        r, c, v = np.asarray(r, dtype=np.int64), np.asarray(c, dtype=np.int64), _values(v)
        if not r.shape == c.shape == v.shape:
            raise ValueError("coordinate and value lists differ in length")
        bad = (r < 0) | (r >= rows) | (c < 0) | (c >= cols)
        if bad.any():
            k = int(bad.argmax())
            raise ValueError(f"entry ({r[k]},{c[k]}) outside {rows}x{cols}")
        self._set(rows, cols, *_canonical(rows, r, c, v))

    def _set(self, rows, cols, r, c, v) -> "ExactMatrix":
        v = _values(v) if v.dtype == object else v
        r.flags.writeable = c.flags.writeable = v.flags.writeable = False
        self.rows, self.cols, self.row, self.col, self.val = int(rows), int(cols), r, c, v
        self._starts = self._bound = None
        return self

    @classmethod
    def _of(cls, rows: int, cols: int, r, c, v) -> "ExactMatrix":
        """Wrap coordinate arrays that are already canonical."""
        return cls.__new__(cls)._set(rows, cols, r, c, v)

    @classmethod
    def from_rows(cls, data) -> "ExactMatrix":
        rows, cols = len(data), len(data[0]) if len(data) else 0
        if any(len(row) != cols for row in data):
            raise ValueError("ragged rows")
        a = np.array(data, dtype=object).reshape(rows, cols)
        r, c = np.nonzero(a)
        return cls(rows, cols, (r, c, a[r, c]))

    @classmethod
    def from_columns(cls, columns, rows: int) -> "ExactMatrix":
        if any(len(col) != rows for col in columns):
            raise ValueError("column length mismatch")
        return cls.from_rows(columns).transpose() if len(columns) else cls(rows, 0)

    @classmethod
    def identity(cls, n: int) -> "ExactMatrix":
        d = np.arange(n, dtype=np.int64)
        return cls._of(n, n, d, d, np.ones(n, dtype=np.int64))

    @property
    def nnz(self) -> int:
        return self.val.size

    @property
    def shape(self):
        return (self.rows, self.cols)

    @property
    def starts(self) -> np.ndarray:
        """Where each column's run of coordinates begins, then nnz: cols + 1
        offsets, found once per matrix (a product reads them each time)."""
        if self._starts is None:
            self._starts = np.searchsorted(self.col, np.arange(self.cols + 1))
        return self._starts

    @property
    def bound(self) -> int:
        """The largest entry magnitude, `_max_abs` of `val`, found once."""
        if self._bound is None:
            self._bound = _max_abs(self.val)
        return self._bound

    def items(self):
        """The nonzero entries as ((row, col), value) pairs, column-major."""
        return list(zip(zip(self.row.tolist(), self.col.tolist()), self.val.tolist()))

    def transpose(self) -> "ExactMatrix":
        order = np.argsort(self.row * self.cols + self.col)
        return ExactMatrix._of(self.cols, self.rows, self.col[order],
                               self.row[order], self.val[order])

    def __matmul__(self, other: "ExactMatrix") -> "ExactMatrix":
        """Entry (k, j, b) of `other` meets column k of self.  The partial
        products are expanded for whole columns of `other`, about
        `_MATMUL_SLAB` at a time, and summed by one sort per slab."""
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.shape} @ {other.shape}")
        va, vb, astart, bstart = self.val, other.val, self.starts, other.starts
        # a product entry sums at most (longest column of other) terms
        if self.bound * other.bound * int(np.diff(bstart).max(initial=0)) >= _I64:
            va, vb = va.astype(object), vb.astype(object)
        count = astart[other.row + 1] - astart[other.row]
        ends = np.cumsum(count)
        pieces, s = [(self.row[:0], self.col[:0], va[:0] * vb[:0])], 0
        while s < other.nnz:
            base = int(ends[s - 1]) if s else 0
            e = int(np.searchsorted(ends, base + _MATMUL_SLAB, side="right"))
            if e < other.nnz:           # end the slab on a column boundary
                e = max(int(bstart[other.col[e]]), int(bstart[other.col[s] + 1]))
            n = count[s:e]
            b = np.repeat(np.arange(s, e), n)
            a = np.arange(int(ends[e - 1]) - base) \
                + np.repeat(astart[other.row[s:e]] - (ends[s:e] - n - base), n)
            pieces.append(_canonical(self.rows, self.row[a], other.col[b], va[a] * vb[b]))
            s = e
        # the slabs hold increasing columns, so they concatenate in order
        return ExactMatrix._of(self.rows, other.cols,
                               *(np.concatenate(x) for x in zip(*pieces)))

    def __add__(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.shape != other.shape:
            raise ValueError("shape mismatch")
        return ExactMatrix(self.rows, self.cols, [np.concatenate((x, y)) for x, y in zip(
            (self.row, self.col, self.val), (other.row, other.col, other.val))])

    def __sub__(self, other: "ExactMatrix") -> "ExactMatrix":
        return self + other.scaled(-1)

    def scaled(self, a) -> "ExactMatrix":
        v = self.val
        if not (isinstance(a, int) and v.dtype != object and _max_abs(v) * abs(a) < _I64):
            v = v.astype(object)
        return ExactMatrix(self.rows, self.cols, (self.row, self.col, v * a))

    def permuted(self, rows, cols=None) -> "ExactMatrix":
        """R self C^-1 for signed permutation matrices R and C (the
        identity if `cols` is None), each given as (perm, sign) int64
        arrays: it sends basis vector k to sign[k] times basis vector
        perm[k].  Entry (r, c) moves to (perm_R[r], perm_C[c]) with the
        product of the two signs."""
        (rp, rs), r, c = rows, self.row, self.col
        s = rs[r]
        if cols is not None:
            s = s * cols[1][c]
            c = cols[0][c]
        v = self.val
        if v.dtype != object and _max_abs(v) >= _I64:     # -(-2^63) overflows
            v = v.astype(object)
        return ExactMatrix(self.rows, self.cols, (rp[r], c, v * s))

    def kron(self, other: "ExactMatrix") -> "ExactMatrix":
        """Kronecker product; row-major pairing (this factor slowest)."""
        rows, cols = self.rows * other.rows, self.cols * other.cols
        va, vb = self.val, other.val
        if _max_abs(va) * _max_abs(vb) >= _I64:
            va, vb = va.astype(object), vb.astype(object)
        a, b = np.divmod(np.arange(self.nnz * other.nnz), other.nnz)
        r = self.row[a] * other.rows + other.row[b]
        c = self.col[a] * other.cols + other.col[b]
        order = np.argsort(c * rows + r)
        return ExactMatrix._of(rows, cols, r[order], c[order], (va[a] * vb[b])[order])

    @staticmethod
    def hstack(mats) -> "ExactMatrix":
        mats = list(mats)
        if any(m.rows != mats[0].rows for m in mats):
            raise ValueError("row count mismatch in hstack")
        off = np.cumsum([0] + [m.cols for m in mats])
        parts = zip(*((m.row, m.col + o, m.val) for m, o in zip(mats, off)))
        return ExactMatrix._of(mats[0].rows, int(off[-1]), *map(np.concatenate, parts))

    def is_zero(self) -> bool:
        return not self.nnz

    def __eq__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return self.shape == other.shape and all(
            np.array_equal(getattr(self, k), getattr(other, k)) for k in ("row", "col", "val"))

    def __repr__(self):
        return f"ExactMatrix({self.rows}x{self.cols}, nnz={self.nnz})"


# ---------------------------------------------------------------------------
# GF(p) engines
# ---------------------------------------------------------------------------

def _gf_array(m: ExactMatrix, p: int, dtype=np.int64) -> np.ndarray:
    """Dense residues mod p in [0, p) of m, in `dtype`: `_gf_columns` of
    all its columns."""
    return _gf_columns(m, 0, m.cols, p, np.zeros(m.shape, dtype=dtype))


def _gf_columns(m: ExactMatrix, c0: int, c1: int, p: int, out: np.ndarray) -> np.ndarray:
    """`out`, zeros on entry, with the residues mod p in [0, p) of
    columns c0..c1-1 of m scattered in: its entries from starts[c0] to
    starts[c1], _SLAB_CELLS at a time."""
    s, e = m.starts[c0], m.starts[c1]
    _integral(m.val[s:e])
    for i in range(s, e, _SLAB_CELLS):
        j = min(i + _SLAB_CELLS, e)
        out[m.row[i:j], m.col[i:j] - c0] = m.val[i:j] % p
    return out


def _f64_fits(bound: int, width: int, p: int, safe: int = _F64_SAFE) -> bool:
    """Do entries of magnitude <= bound stay below `safe` (_F64_SAFE in
    float64, _F32_SAFE in float32) through `width` more eliminations,
    each subtracting one product of two reduced residues?  The single
    exactness inequality of the engine."""
    return bound + width * (p - 1) * (p - 1) < safe


def _f64_admits(p: int) -> bool:
    """Dispatch predicate: one full float64 panel fits right after a bulk
    reduction."""
    return _f64_fits(p - 1, _GF_BLOCK, p)


def _carrier(p: int):
    """The float dtype of the engine at p: float32 where blocks of
    _F32_MIN_WIDTH columns fit below _F32_SAFE right after a bulk
    reduction (p <= 199), float64 above.  float32 would stay exact up to
    p = 359, but with blocks too narrow to be faster."""
    return np.float32 if _f64_fits(p - 1, _F32_MIN_WIDTH, p, _F32_SAFE) else np.float64


def _reduce_f64(x: np.ndarray, p: int) -> None:
    """Reduce integer-valued x in place to a residue of magnitude <= (p+1)//2.

    x is float64 with |x| < 2^51 or float32 with |x| < 2^22, and every
    step runs in x's dtype.  Each is exact except the quotient x*(1/p),
    which is off x/p by at most (|x|/p) 2^-52 (1 + 2^-53) in float64 and
    (|x|/p) 2^-23 (1 + 2^-24) in float32, a hair over 1/(2p) either way.
    So x - p*rint(x*(1/p)) is an integer congruent to x within
    p/2 + 1/2 + 2^-54 (2^-25 in float32) of zero, hence within (p+1)//2
    (products below 2^24 stay exact in float32; for p = 2 the
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


def _pivot_rows(C: np.ndarray, w: int, p: int) -> list:
    """Pivot rows, in order, of the first w columns of C, eliminated in
    place in panels of _GF_BLOCK columns.  Inside a panel a column takes
    its pending updates by one matrix-vector product just before its
    search, and a pivot row on the columns after it; then the rows take
    one product for the columns after the panel.  Multipliers stay in
    the pivot columns.  A pivot row is copied out and zeroed, so no row
    moves.  Columns w.. of C, if any, start at zero, and the t-th pivot
    puts 1 in column w + t of its row: they carry each row's
    coefficients on the original pivot rows."""
    mm, wide = C.shape
    piv = []
    for q0 in range(0, w, _GF_BLOCK):
        q1, k = min(q0 + _GF_BLOCK, w), len(piv)
        end = min(wide, w + k + q1 - q0)    # the coefficient columns in use
        U = np.zeros((q1 - q0, end - q0), dtype=C.dtype)  # the panel's pivot rows, reduced
        for c in range(q0, q1):
            if len(piv) == mm:
                return piv
            col = C[:, c]
            if len(piv) > k:
                col -= C[:, q0:c] @ U[:c - q0, c - q0]
            _reduce_f64(col, p)
            j = int((col != 0).argmax())
            if not col[j]:
                continue
            row = C[j, c + 1:end]
            if len(piv) > k:
                row -= C[j, q0:c] @ U[:c - q0, c + 1 - q0:]
            if wide > w:
                C[j, w + len(piv)] = 1
            _reduce_f64(row, p)
            U[c - q0, c + 1 - q0:] = row
            col *= pow(int(col[j]), p - 2, p)
            C[j, q0:end] = 0
            _reduce_f64(col, p)
            piv.append(j)
        if len(piv) > k and end > q1:
            L, V = C[:, q0:q1], U[:, q1 - q0:]    # the product in the layout of C
            C[:, q1:end] -= (V.T @ L.T).T if C.flags.f_contiguous else L @ V
    return piv


def _rank_gf_f64(src: ExactMatrix, p: int) -> int:
    """Rank mod p of src, by left-looking blocked elimination with
    delayed reduction in `_carrier(p)`: float32 for p <= 199, below
    safe = _F32_SAFE = 2^22, and float64 above, below
    safe = _F64_SAFE = 2^51.  Every temporary takes that dtype, and the
    source is only read, as residues.

    W is the widest multiple of _GF_BLOCK up to 256 that `_f64_fits`
    admits below safe: in float64 256 for p below ~2.9e6 and 32 near
    2^23, in float32 256 for p <= 127, 224 at 131, 128 at 163-181 and 96
    at 197-199.  Sums of products stay below safe, so below 2^24 in
    float32, and every sgemm/dgemm is exact.  A matrix no wider than W
    is read whole and eliminated by `_pivot_rows` along its shorter
    side.  Otherwise the short side is taken as rows and the columns are
    cut into equal blocks of width at most W, each read (`_gf_columns`)
    into a row-major array only when its turn comes.  Its rows r.. are
    copied for the search into a column-major C with W more columns.

    A block first replays, in order, each earlier block j with k > 0
    pivots from row r_j: T = its rows at block j's pivots, reduced; the
    non-pivot rows among rows r_j..r_j+k-1 move into the places of the
    pivot rows below those (no other row moves); and rows r_j + k.. take
    the product Y_j T of inner width k.  Y_j are the coefficients, with
    row + Y (pivot rows) = its eliminated form, that `_pivot_rows` left
    in the extra columns of block j's C, reduced.  So rows r.. of the
    block are eliminated by every earlier pivot, and `_pivot_rows` finds
    its own.  Once the rank equals the row count the engine stops.

    Invariant: every entry of the block's rows from r_j (r in the search)
    is an integer of magnitude <= `bound` < safe (tracked, not measured).
    A block is read as residues; T and Y are reduced (`_reduce_f64`), to
    magnitude <= p-1, so a replay or a search over k pivots or columns
    raises the bound by at most k (p-1)^2.  `_f64_fits` is checked
    before each replay and before the search, and those rows are
    reduced in bulk where it fails: in float64 after ~2^27 pivots at
    p = 2^12, never for small primes, before every replay near 2^23; in
    float32 after about 400 pivots at p = 101 and 107 at p = 199.
    Products and bulk reductions run in row slabs (`_row_slabs`).  The
    engine holds the Y, at most min(m, n)^2 / 2 cells, one block and its
    C, T and one slab; never the whole matrix.
    """
    m, n = src.shape
    dtype = _carrier(p)
    safe = _F32_SAFE if dtype == np.float32 else _F64_SAFE
    width = max(w for w in range(_GF_BLOCK, 257, _GF_BLOCK) if _f64_fits(p - 1, w, p, safe))
    if n <= width:                          # an empty matrix too
        a = _gf_array(src, p, dtype)
        return len(_pivot_rows(a.T, m, p) if m <= n else _pivot_rows(a, n, p))
    if m > n:
        src, m, n = src.transpose(), n, m
    width = -(-n // -(-n // width))
    done, r = [], 0                         # (r_j, pivots, row moves, Y_j) per block
    for c0 in range(0, n, width):
        c1 = min(c0 + width, n)
        w, bound = c1 - c0, p - 1
        X = _gf_columns(src, c0, c1, p, np.zeros((m, w), dtype=dtype))
        for rj, piv, (frm, to), Y in done:
            k = piv.size
            if not _f64_fits(bound, k, p, safe):
                for i, j in _row_slabs(rj, m, w):
                    _reduce_f64(X[i:j], p)
                bound = p - 1
            T = X[rj + piv]
            _reduce_f64(T, p)
            X[rj + to] = X[rj + frm]
            for i, j in _row_slabs(rj + k, m, w):
                X[i:j] += Y[i - rj - k:j - rj - k] @ T
            bound += k * (p - 1) * (p - 1)
        if not _f64_fits(bound, w, p, safe):
            for i, j in _row_slabs(r, m, w):
                _reduce_f64(X[i:j], p)
        C = np.zeros((m - r, w + min(w, m - r) * (c1 < n)), dtype=dtype, order="F")
        C[:, :w] = X[r:]
        del X                               # before the search's temporaries
        piv = np.array(_pivot_rows(C, w, p), dtype=np.int64)
        k = piv.size
        if k and c1 < n and r + k < m:
            frm = np.ones(k, dtype=bool)
            frm[piv[piv < k]] = False
            frm, to = np.flatnonzero(frm), piv[piv >= k]    # non-pivot rows among the first k
            orig = np.arange(k, m - r)      # the row of C now at r + k + i
            orig[to - k] = frm
            Y = C[orig, w:w + k]
            _reduce_f64(Y, p)
            done.append((r, piv, (frm, to), Y))
        del C                               # before the next block
        r += k
        if r == m:
            break
    return r


def _inverse(d: np.ndarray, p: int) -> np.ndarray:
    """d^(p-2) mod p, the inverses of int64 residues in [1, p): every
    square and product of two residues below 2^31 stays below 2^62."""
    out, e = np.ones_like(d), p - 2
    while e:
        if e & 1:
            out = out * d % p
        d, e = d * d % p, e >> 1
    return out


def _round_pivots(r: np.ndarray, c: np.ndarray, rows: int, cols: int):
    """The pivots of one round of `_markowitz` on the live entries at
    (r, c), in column-major order: (their rows, their columns, the live
    rows, the live columns).

    Each column offers the entry of least Markowitz cost (a - 1)(b - 1),
    a and b being the live counts of its row and column (the least row
    first on a tie), if that cost is at most _MARKOWITZ_MAX; key = cost n
    + column orders the offers strictly.  Offer i is accepted if its key
    is the least among the offers whose column meets row r_i, and at most
    the least among the offers whose row meets column c_i.  Accepted
    offers i != j with an entry at (r_i, c_j) would need key_i < key_j
    (the first rule at i) and key_j <= key_i (the second at j), so no
    pivot row meets another pivot column: the pivots span a diagonal
    block.  Each rule compares only offers that share a row or a column,
    so on a block-diagonal matrix each block takes the pivots it would
    take alone."""
    top = np.iinfo(np.int64).max
    per_row = np.bincount(r, minlength=rows)
    at = _runs(c)
    first = at[:-1]                                         # the live columns
    best = np.minimum.reduceat(per_row[r] * rows + r, first)
    cost = (best // rows - 1) * (np.diff(at) - 1)
    ok = cost <= _MARKOWITZ_MAX
    pr, pc = best[ok] % rows, c[first][ok]
    key = cost[ok] * cols + pc
    offer, in_row, at_row, at_col = (np.full(size, top) for size in (cols, rows, rows, cols))
    offer[pc] = key
    np.minimum.at(in_row, r, offer[c])
    np.minimum.at(at_row, pr, key)
    at_col[c[first]] = np.minimum.reduceat(at_row[r], first)
    accept = (in_row[pr] == key) & (at_col[pc] >= key)
    return pr[accept], pc[accept], np.flatnonzero(per_row), c[first]


def _markowitz(blocks: list, p: int) -> list:
    """Sparse pivots ahead of the dense engine, for a list of independent
    matrices at once: [(k, core)], one per block, with the rank mod p of
    the block equal to k + that of core, an ExactMatrix of residues;
    (0, block) for a block that takes no pivot.

    The blocks are laid out block-diagonally, each one's rows and columns
    offset by those of the blocks before it, and one loop of rounds runs
    on that union.  It runs only on unions it can win on: min(m, n) >=
    2 _GF_BLOCK and at most one entry in 16 nonzero.  Each round takes the
    live entries, residues in [1, p) in column-major order, and the
    pivots of `_round_pivots`, which are those each block would take
    alone.  A block whose round would pivot fewer than 1/16 of its live
    min dimension takes none of them and no more rounds: its live entries
    leave the loop as its core.  The k pivots that the other blocks take
    span a diagonal block D, so rank [[D, E], [C, B]] = k + rank
    (B - C D^-1 E) exactly over GF(p), and the Schur complement replaces
    their live entries: one product per pair of entries in a pivot's
    column and row (at most _MARKOWITZ_MAX per pivot), summed by one
    sort.  No entry crosses blocks, so each block's own pivots and Schur
    complement are those of its lone rounds."""
    rows, cols = sum(m.rows for m in blocks), sum(m.cols for m in blocks)
    if min(rows, cols) < 2 * _GF_BLOCK or 16 * sum(m.nnz for m in blocks) > rows * cols:
        return [(0, m) for m in blocks]
    _integral(*(m.val for m in blocks))
    # the block of each row and column of the union, and the offsets
    rb, cb = (np.repeat(np.arange(len(blocks)), [m.shape[s] for m in blocks]) for s in (0, 1))
    at_r, at_c = (np.searchsorted(x, np.arange(len(blocks))) for x in (rb, cb))
    v = [(m.val % p).astype(np.int64, copy=False) for m in blocks]
    if len(blocks) == 1:                    # no copy of a lone block's coordinates
        r, c, v = blocks[0].row, blocks[0].col, v[0]
    else:
        r, c, v = (np.concatenate(x) for x in (
            [m.row + o for m, o in zip(blocks, at_r)], [m.col + o for m, o in zip(blocks, at_c)], v))
    took, left = np.zeros(len(blocks), dtype=np.int64), []
    while True:
        live = v != 0
        r, c, v = r[live], c[live], v[live]
        if not v.size:
            break
        pr, pc, live_r, live_c = _round_pivots(r, c, rows, cols)
        stop = 16 * np.bincount(cb[pc], minlength=len(blocks)) < np.minimum(
            np.bincount(rb[live_r], minlength=len(blocks)),
            np.bincount(cb[live_c], minlength=len(blocks)))
        if stop.any():
            out = stop[cb[c]]
            if out.all():                   # the live entries are all cores
                break
            go = ~stop[cb[pc]]
            left.append((r[out], c[out], v[out]))
            r, c, v, pr, pc = r[~out], c[~out], v[~out], pr[go], pc[go]
        took += np.bincount(cb[pc], minlength=len(blocks))
        ir, ic = np.full(rows, -1), np.full(cols, -1)
        ir[pr] = ic[pc] = np.arange(pr.size)
        ir, ic = ir[r], ic[c]
        in_r, in_c = ir >= 0, ic >= 0
        d = np.empty(pr.size, dtype=np.int64)
        d[ic[in_r & in_c]] = v[in_r & in_c]                     # D, diagonal
        rest, lower, right = ~(in_r | in_c), in_c & ~in_r, in_r & ~in_c
        piv = ic[lower]
        x = v[lower] * (p - _inverse(d, p))[piv] % p            # -C D^-1
        order = np.argsort(ir[right], kind="stable")            # E by pivot
        start = np.searchsorted(ir[right][order], np.arange(pr.size + 1))
        ec, ey = c[right][order], v[right][order]
        n = start[piv + 1] - start[piv]
        ends = np.cumsum(n)
        a = np.repeat(np.arange(piv.size), n)
        b = np.arange(int(ends[-1]) if ends.size else 0) + np.repeat(start[piv] - ends + n, n)
        r, c, v = _canonical(rows, np.concatenate((r[rest], r[lower][a])),
                             np.concatenate((c[rest], ec[b])),
                             np.concatenate((v[rest], x[a] * ey[b] % p)))
        v %= p
    # each core, a run of its block's columns in the round it stopped in,
    # with its live rows and columns renumbered from 0; an empty core for
    # a block that ran to the end
    took = took.tolist()
    out = [(k, ExactMatrix._of(0, 0, r[:0], c[:0], v[:0])) if k else (0, m)
           for m, k in zip(blocks, took)]
    for r, c, v in left + [(r, c, v)]:
        at = _runs(cb[c]).tolist()
        for s, e in zip(at[:-1], at[1:]):
            b = int(cb[c[s]])
            if took[b]:
                (live_r, lr), (live_c, lc) = (np.unique(x[s:e], return_inverse=True) for x in (r, c))
                out[b] = took[b], ExactMatrix._of(live_r.size, live_c.size, lr, lc, v[s:e])
    return out


def _rank_group(group: list, p: int) -> list:
    """Ranks mod p of a list of matrices.  A matrix with at most one
    entry per column has, mod p, columns that are multiples of unit
    vectors, so its rank is the number of distinct rows that hold a
    nonzero residue.  The others go through `_markowitz` together, and
    each one's rank is its pivots plus the dense rank of its core
    (`_rank_gf_f64`, or `_rref_gf` past its primes)."""
    single = [bool((m.col[1:] > m.col[:-1]).all()) for m in group]
    rest = [m for m, s in zip(group, single) if not s]
    fronts = iter(_markowitz(rest, p) if rest else ())
    ranks = []
    for m, s in zip(group, single):
        if s:
            _integral(m.val)
            ranks.append(int(np.count_nonzero(np.bincount(m.row[m.val % p != 0]))))
            continue
        k, core = next(fronts)
        if _f64_admits(p):
            ranks.append(k + _rank_gf_f64(core, p))
        else:
            ranks.append(k + len(_rref_gf(_gf_array(core, p), p)[1]))
    return ranks


def _rank_gf(m: ExactMatrix, p: int) -> int:
    """Rank mod p of one matrix (`_rank_group`)."""
    return _rank_group([m], p)[0]


def _ranks_gf(blocks, p: int) -> list:
    """Ranks mod p of the matrices that the iterable `blocks` yields, in
    order: consecutive ones are ranked together (`_rank_group`) in groups
    of at most _GROUP_ENTRIES entries, a larger one alone, so only one
    group is held at a time."""
    ranks, group, size = [], [], 0
    for m in blocks:
        if group and size + m.nnz > _GROUP_ENTRIES:
            ranks += _rank_group(group, p)
            group, size = [], 0
        group.append(m)
        size += m.nnz
    return ranks + _rank_group(group, p)


# ---------------------------------------------------------------------------
# Row echelon forms (kernel bases)
# ---------------------------------------------------------------------------

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

@functools.lru_cache(maxsize=None)
def _prime_below(q: int) -> int:
    """The largest prime below q that `_f64_admits`, or 0 if there is
    none: one step of `_char0_primes`, taken once per process."""
    while q > 2:
        q -= 1
        if _f64_admits(q) and _is_prime(q):
            return q
    return 0


def _char0_primes():
    """The fixed prime sequence of the char-0 rank: every prime that
    `_f64_admits`, in descending order from the largest (8,388,593)."""
    q = _prime_below(isqrt(_F64_SAFE // _GF_BLOCK) + 1)
    while q:
        yield q
        q = _prime_below(q)


def _top_square_product(index: np.ndarray, v: np.ndarray, n: int, full: int) -> int:
    """Product of the `full` largest nonzero squared norms among the n
    rows (or columns) that `index` assigns the values v to, in Python
    ints: a squared norm can pass 2^63."""
    if v.dtype != object and _max_abs(v) ** 2 * v.size >= _I64:
        v = v.astype(object)
    sq = np.zeros(n, dtype=v.dtype)
    np.add.at(sq, index, v * v)
    return prod(sorted(filter(None, sq.tolist()), reverse=True)[:full])


def _integer_rows(m: ExactMatrix, whole: bool = False) -> ExactMatrix:
    """m with each row (the whole matrix if `whole`) scaled by the lcm of
    its denominators (an int's is 1): an integer matrix with the same
    rank and kernel, and if `whole` a multiple of m, so the composites
    of a chain stay zero."""
    v = m.val
    if v.dtype == object:
        keys, vals = [0] * m.nnz if whole else m.row.tolist(), v.tolist()
        scale = {}
        for r, x in zip(keys, vals):
            scale[r] = lcm(scale.get(r, 1), x.denominator)
        v = np.array([x.numerator * (scale[r] // x.denominator)
                      for r, x in zip(keys, vals)], dtype=object)
    return ExactMatrix._of(m.rows, m.cols, m.row, m.col, v)


def _crt(run):
    """The residue arrays of `run`, [(q, array)] over distinct primes q,
    combined: (x, modulus), x in [0, modulus) congruent to each and
    modulus the product of the qs.  x is int64 while it fits."""
    (modulus, x), *rest = run
    for q, r in rest:
        t = (r - x % q) * pow(modulus, -1, q) % q
        if modulus * q >= _I64:
            x, t = x.astype(object), t.astype(object)
        x, modulus = x + modulus * t, modulus * q
    return x, modulus


def _wang(u: int, modulus: int, nbound: int, dbound: int) -> int:
    """The denominator b of a/b = u mod modulus with |a| <= nbound,
    0 < b <= dbound and gcd(a, b) = 1, or 0 if there is none, by Wang's
    half-extended Euclid (it needs 2 nbound dbound < modulus)."""
    r0, r1, t0, t1 = modulus, u, 0, 1
    while r1 > nbound:
        q = r0 // r1
        r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
    return abs(t1) if abs(t1) <= dbound and gcd(r1, t1) == 1 else 0


def _rational(x: np.ndarray, modulus: int):
    """Rational reconstruction of the r x d residues x mod `modulus`, one
    denominator per column: (num, den) with num = den x mod modulus,
    |num| <= N and 0 < den <= N for N = isqrt((modulus - 1) // 2), so
    2 N^2 < modulus; or None.  Such a num/den is unique as a rational
    (not as a pair).  The columns of an RREF share the pivot minor as a
    denominator, so each column starts from the den of the column before
    it, and from 1 again if that start fails."""
    bound = isqrt((modulus - 1) // 2)
    if modulus * bound >= _I64:
        x = x.astype(object)
    num, den = np.empty_like(x), np.ones(x.shape[1], dtype=x.dtype)
    start = 1
    for j in range(den.size):
        col = _rational_column(x[:, j], modulus, bound, start)
        if col is None and start > 1:
            col = _rational_column(x[:, j], modulus, bound, 1)
        if col is None:
            return None
        num[:, j], den[j] = col
        start = col[1]
    return num, den


def _rational_column(x: np.ndarray, modulus: int, bound: int, den: int):
    """(num, den) of `_rational` for one column, from the denominator
    `den` <= bound: while a numerator is too large, den takes the
    `_wang` denominator of the first one; None if it has none."""
    while True:
        y = x * den % modulus
        y = np.where(y > modulus // 2, y - modulus, y)
        big = np.flatnonzero(abs(y) > bound)
        if not big.size:
            return y, den
        b = _wang(int(y[big[0]]) % modulus, modulus, bound, bound // den)
        if not b:
            return None
        den *= b


def _annihilates(block: ExactMatrix, k: ExactMatrix) -> bool:
    """Is block @ k exactly zero?  One sparse product, exact because
    `ExactMatrix.__matmul__` sums in Python ints wherever an int64 sum
    could reach 2^63."""
    return (block @ k).is_zero()


def _kernel(n: int, pivots: list, free: np.ndarray, top: np.ndarray,
            den: np.ndarray) -> ExactMatrix:
    """The RREF kernel with n rows, one column per free column: column j
    holds top[:, j] at the pivot rows and den[j] > 0 at free[j], divided
    by their gcd.  Laid out canonical: in an RREF a column's nonzero
    pivot entries all lie above its free row, which comes last."""
    v = np.vstack((top, den))
    r = np.vstack((np.array(pivots, dtype=np.int64)[:, None].repeat(den.size, 1), free))
    c, t = np.nonzero(v.T)
    v = v[t, c]
    at = _runs(c)
    v //= np.repeat(np.gcd.reduceat(v, at[:-1]), np.diff(at))
    return ExactMatrix._of(n, den.size, r[t, c], c, v)


def _lift(block: ExactMatrix, run, pivots: list, free: np.ndarray):
    """The kernel K of `block` over Q from `run`, [(q, R)] for the primes
    whose RREF has these pivot columns, R its pivot rows on the free
    columns: `_rational` rebuilds num / den, and column j of K is the
    least positive integral multiple of e_free[j] minus
    sum_i num[i, j] / den[j] e_pivots[i] (`_kernel`).  None unless that
    succeeds and block annihilates K exactly.  Of two or more columns
    the last goes first, alone, so a modulus still too small costs one
    column."""
    for cols in (slice(-1, None), slice(None)) if free.size > 1 else (slice(None),):
        lifted = _rational(*_crt([(q, R[:, cols]) for q, R in run]))
        if lifted is None:
            return None
        num, den = lifted
        k = _kernel(block.cols, pivots, free[cols], -num, den)
        if not _annihilates(block, k):
            return None
    return k


def _char0(block: ExactMatrix, bound, known=None):
    """The prime loop over Q of `rank` (`bound` a proven upper bound on
    the rank, see there) and of `kernel_basis` (bound None) on an
    integer block, read as residues mod each prime and never made dense
    over Z.  Returns the rank, or the integral RREF kernel K that
    `_lift` rebuilds.  `known`, if given, is the rank mod the first
    prime, which is then not ranked again.

    `rank` ranks the block mod q by `_rank_gf` and returns once the rank
    reaches the bound.  Otherwise a rank r_q at least the best so far
    takes `_rref_gf` mod q, as every prime of `kernel_basis` does: a
    larger one drops the earlier residues, an equal one joins the primes
    with its pivot columns, and `_lift` tries their kernel.  After one
    deficient prime the RREF alone ranks.  `rank` lifts no block with an
    entry past int64, whose lift would run on Python ints from the
    start: it takes `_rank_gf` at every prime, and the Hadamard stop
    decides it."""
    m, n = block.shape
    lift = bound is None or block.val.dtype != object
    best, modulus, runs, later, h2 = 0, 1, {}, False, None
    for q in _char0_primes():
        modulus *= q
        if bound is not None and not later:
            r = _rank_gf(block, q) if known is None else known
            known = None
        if lift and (bound is None or later or bound > r >= best):
            A, pivots = _rref_gf(_gf_array(block, q), q)
            r = len(pivots)
        if r == bound:
            return r
        later = lift
        if r > best:
            best, runs = r, {}
        if lift and r == best:
            free = np.ones(n, dtype=bool)
            free[pivots] = False
            free = np.flatnonzero(free)
            run = runs.setdefault(tuple(pivots), [])
            run.append((q, A[:r][:, free]))
            kernel = _lift(block, run, pivots, free)
            if kernel is not None:
                return r if bound is not None else kernel
        if bound is not None:
            h2 = h2 or min(_top_square_product(block.row, block.val, m, bound),
                           _top_square_product(block.col, block.val, n, bound))
            if modulus * modulus > h2:
                return best
    raise ArithmeticError("Hadamard bound exceeds the product of all primes below 2^23")


def rank(m: ExactMatrix, f: FieldSpec) -> int:
    """Exact rank of m over f.  Empty matrices have rank 0.

    Over Q each row is scaled by the lcm of its denominators, which keeps
    the rank.  The integer matrix M, still an ExactMatrix, is ranked mod
    the primes of `_char0_primes` in turn, keeping the largest rank seen
    (see `_char0`); rank_Q >= r_q for every prime q.  The rank is
    certified by one of three stops, the first with either of two
    bounds, so by one of four certificates:

    * bound: r_q reaches a proven upper bound b on rank_Q, so
      b <= r_q <= rank_Q <= b.  Alone, `rank` knows b = min(m, n): the
      full-rank certificate.  For a map d_in: A -> C followed by
      d_out: C -> B with d_out d_in = 0, checked exactly, im d_in lies
      in ker d_out, so rank_Q(d_in) + rank_Q(d_out) <= dim C and
      b = dim C - r_q(d_out) bounds rank_Q(d_in), and the same the other
      way round: the closure certificate of `closed_ranks`, which bounds a
      map inside a chain from both its neighbours.  Where the complex is
      exact over Q and both ranks hold mod q, both reach their bounds at
      once;
    * kernel: at a deficient prime, the n - r_q columns K that `_lift`
      rebuilds from the RREF mod q satisfy M K = 0 exactly, by one sparse
      product; being diagonal and nonzero on the free columns, they
      are independent, so rank_Q <= r_q;
    * Hadamard: (prod q)^2 exceeds H^2, the product of the b largest
      squared norms of the nonzero rows (or the same over columns,
      whichever is smaller).  Suppose rank_Q = r <= b.  Then some r x r
      minor D is nonzero, and |D| <= H by Hadamard's inequality (every
      nonzero integer row has norm at least 1).  The
      rank mod q drops below r only if q divides every r x r minor, D
      among them.  So if the largest rank seen were below r, D would be
      a nonzero multiple of the product of the primes used, which is
      larger than H: impossible.  No matrix takes more primes than this
      fallback alone would.

    Over GF(p), and mod the primes that `_char0` ranks by `_rank_gf`, a
    matrix with min(m, n) >= 64 and at most one entry in 16 nonzero
    first goes through `_markowitz`, as do the blocks of `closed_ranks`
    mod p or the first prime, where their block-diagonal union passes
    that gate.  Its pivots are nonzero mod p and span a diagonal block
    D: no pivot row has an entry in another pivot column.
    Permuted to [[D, E], [C, B]], the matrix has rank
    |D| + rank(B - C D^-1 E) over GF(p), and the rounds pass that Schur
    complement on exactly, so the rank is their pivot count plus the
    dense rank of the core they leave.  A block-diagonal union has the
    sum of its blocks' ranks, and no pivot or Schur complement entry
    crosses blocks, so each block's own pivots plus the dense rank of
    its own core is its rank.
    """
    if m.rows == 0 or m.cols == 0 or m.nnz == 0:
        return 0
    p = f.characteristic
    if p:
        return _rank_gf(m, p)
    return _char0(_integer_rows(m), min(m.shape))


def kernel_basis(m: ExactMatrix, f: FieldSpec) -> ExactMatrix:
    """Deterministic basis of the right kernel of m over f, as the
    columns of an m.cols x nullity ExactMatrix: the RREF kernel, one
    vector per free column (a column that is no pivot of the reduced row
    echelon form), in free-column order.  Over GF(p) entries are
    residues in [0, p) and the free entry is 1; over Q each vector is
    cleared of denominators, its least positive integral multiple
    (column gcd 1, free entry > 0).

    Over Q the rows are scaled to integers as in `rank`, and `_char0`
    runs the prime loop without the Hadamard stop until M K = 0 holds
    exactly for a kernel K lifted from the RREF mod primes q with equal
    pivot columns.  As in `rank` that makes r_q the rank over Q.  Column
    f of K is nonzero at f, and since a row of an echelon form vanishes
    left of its pivot, it is nonzero elsewhere only at pivots before f.
    So every free column mod q is a combination of the columns before it
    over Q, which makes the pivots mod q the column rank profile over Q,
    and K the unique RREF kernel up to column scaling.  A prime whose
    pivots differ (q itself for the 1x2 matrix [q 1]) fails the check
    and never joins the others.
    """
    p = f.characteristic
    if not p:
        return _char0(_integer_rows(m), None)
    A, pivots = _rref_gf(_gf_array(m, p), p)
    free = np.ones(m.cols, dtype=bool)
    free[pivots] = False
    free = np.flatnonzero(free)
    return _kernel(m.cols, pivots, free, -A[:len(pivots)][:, free] % p,
                   np.ones(free.size, dtype=np.int64))


def _class_index(w: np.ndarray, x: np.ndarray, labels: np.ndarray):
    """(index, size): index[j] is labels[j]'s index among the labels of
    its weight in w, ascending, and size[k] the count of weight x[k]; by
    one stable argsort of w, in which weight x runs up to weight x + 1."""
    o = np.argsort(w, kind="stable")
    pos, w = np.empty_like(o), w[o]
    pos[o] = np.arange(o.size) - np.searchsorted(w, w)
    return pos[labels], np.searchsorted(w, x + 1) - np.searchsorted(w, x)


def _weight_classes(m: ExactMatrix, row_weights, col_weights, flips=None):
    """The blocks of `closed_ranks`: (weights, shapes, rep, block).
    weights[k] is (row weight, column weight) of the k-th column class
    with entries, in increasing column weight, and shapes[k] its block's
    shape; rep[k] <= k is the class ranked for class k (k itself, or its
    flip partner); block(k) builds the block of class k, on the full row
    and column classes, on each call."""
    rw, cw = (np.asarray(w, dtype=np.int64).reshape(-1) for w in (row_weights, col_weights))
    if rw.size != m.rows or cw.size != m.cols:
        raise ValueError("weight vector length mismatch")
    if m.nnz == 0:
        return [], [], [], None
    # the entries grouped by column class, each group in canonical order;
    # each temporary as long as the map is dropped once used
    order = np.argsort(cw[m.col], kind="stable")
    row, col, val = m.row[order], m.col[order], m.val[order]
    del order
    at = _runs(cw[col])
    first, end = at[:-1], at[1:]
    er = rw[row]
    if np.any(er != np.repeat(er[first], np.diff(at))):
        raise ValueError("matrix is not weight-graded")
    del er
    rx, cy = rw[row[first]], cw[col[first]]
    hit = np.sort(rx)
    if (hit[1:] == hit[:-1]).any():
        raise ValueError("two column classes hit one row class")
    weights = list(zip(rx.tolist(), cy.tolist()))
    rep = list(range(first.size))
    if flips is not None:
        (tp, ts), (sp, ss) = flips = [[np.asarray(a, dtype=np.int64) for a in x] for x in flips]
        for (perm, sign), n in zip(flips, m.shape):
            if not (np.array_equal(np.sort(perm), np.arange(n))
                    and np.array_equal(np.abs(sign), np.ones(n))):
                raise ValueError("flips must be signed permutations of the rows and columns")
        # compare in object dtype where -(-2^63) would overflow int64
        sval = val.astype(object) if val.dtype != object and _max_abs(val) >= _I64 else val
        top = int(cw.min() + cw.max())
        at = {w: k for k, (_, w) in enumerate(weights)}
        for k, (_, w) in enumerate(weights):
            j = at.get(top - w)
            if 2 * w >= top or j is None:
                continue
            s, e, ps, pe = first[k], end[k], first[j], end[j]
            r, c = tp[row[s:e]], sp[col[s:e]]
            o = np.argsort(c * m.rows + r)
            v, pv = (sval[s:e] * ts[row[s:e]] * ss[col[s:e]])[o], sval[ps:pe]
            if (np.array_equal(r[o], row[ps:pe]) and np.array_equal(c[o], col[ps:pe])
                    and (np.array_equal(v, pv) or np.array_equal(-v, pv))):
                rep[j] = k

    # each entry's row and column in its block, one side at a time: the
    # old and new index arrays of only one side are held at once
    row, nr = _class_index(rw, rx, row)
    col, nc = _class_index(cw, cy, col)
    shapes = list(zip(nr.tolist(), nc.tolist()))

    def block(k):
        s, e = first[k], end[k]
        return ExactMatrix._of(*shapes[k], row[s:e], col[s:e], val[s:e])

    return weights, shapes, rep, block


def closed_ranks(maps, f: FieldSpec, weights, flips=None):
    """The ranks over f of a chain of k >= 1 weight-graded maps
    V_0 -> V_1 -> ... -> V_k, each composing with the next to zero (a
    lone map is the chain k = 1).  `weights` are the weight vectors of
    V_0..V_k, and `flips`, if given, their signed permutations, each
    (perm, sign) as in `reps.RepSpace.flip`.

    Each map is cut into one block per column-weight class, whose
    entries must all lie in one row-weight class (and conversely); this
    holds for every equivariant map in this package and is verified: an
    ungraded matrix or a weight vector of the wrong length raises
    ValueError.  Under the flips, class w with 2w < top (top: least plus
    largest column weight) may stand for its partner top - w: its
    entries (r, c, v) are sent to (perm_t[r], perm_s[c],
    sign_t[r] sign_s[c] v), and if the images, in column-major order,
    equal the partner's entries or their negatives, the partner block is
    a signed row and column permutation of block w, of equal rank over
    every field, so block w is ranked once and counted twice.

    Every ranked block is ranked mod q (q = p over GF(p), the first
    char-0 prime over Q), a map's blocks at once by `_ranks_gf`, which
    shares the sparse rounds among them; over GF(p) their sums are the
    ranks.  Over Q each row of a lone map, and each whole map of a
    chain, is first scaled by the lcm of its denominators, which keeps
    the ranks and the zero composites, and each composite is checked to
    be zero by one sparse product (ValueError otherwise).  A block of
    V_{t-1} -> V_t from weight y to weight x is bounded by its shape and
    by both its neighbours as in `rank`'s closure certificate: rank_Q <=
    dim V_t,x - r_q(the next map at x) and rank_Q <=
    dim V_{t-1},y - r_q(the map before at y).  A block whose rank mod q
    reaches its bound is certified with no kernel; any other goes on to
    `_char0` from that rank."""
    p = f.characteristic
    if not p:
        maps = [_integer_rows(d, whole=len(maps) > 1) for d in maps]
        if any(not (b @ a).is_zero() for a, b in zip(maps, maps[1:])):
            raise ValueError("a composite of consecutive maps is not zero")
    q = p or next(_char0_primes())
    split = [_weight_classes(d, weights[t + 1], weights[t],
                             None if flips is None else (flips[t + 1], flips[t]))
             for t, d in enumerate(maps)]
    mod_q = []
    for *_, rep, block in split:
        got = iter(_ranks_gf((block(k) for k, j in enumerate(rep) if j == k), q))
        mod_q.append([next(got) if j == k else 0 for k, j in enumerate(rep)])
    if p:
        return tuple(sum(rq[j] for j in rep) for (*_, rep, _), rq in zip(split, mod_q))
    # the rank mod q of each map into (side 0) and out of (side 1) each weight
    at = [[{w[side]: rq[j] for w, j in zip(classes, rep)} for side in (0, 1)]
          for (classes, _, rep, _), rq in zip(split, mod_q)]
    ranks = []
    for t, ((classes, shapes, rep, block), rq) in enumerate(zip(split, mod_q)):
        bound = [min(shape) for shape in shapes]
        for (x, y), (rows, cols), j in zip(classes, shapes, rep):
            if t + 1 < len(maps):
                bound[j] = min(bound[j], rows - at[t + 1][1].get(x, 0))
            if t:
                bound[j] = min(bound[j], cols - at[t - 1][0].get(y, 0))
        got = [_char0(block(k), bound[k], r) if j == k and r < bound[k] else r
               for k, (j, r) in enumerate(zip(rep, rq))]
        ranks.append(sum(got[j] for j in rep))
    return tuple(ranks)
