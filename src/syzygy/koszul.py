"""Generic Koszul modules W(V, K): graded dimensions, resonance, and
Cayley-Chow membership.

For an n-dimensional V and a subspace K of Wedge^2 V with independent
generating columns, the q-th graded piece is computed from the cokernel
presentation

    W_q = coker( Wedge^3 V (x) Sym^{q-1} V -> (Wedge^2 V / K) (x) Sym^q V ),

one rank of a modest matrix per degree.  Resonance is decided either by
enumerating rational points of P(K-perp) and testing decomposability
(the Pluecker criterion: every 4x4 Pfaffian of the 2-form vanishes,
evaluated mod p on numpy batches of points), or -- in characteristic 0
or >= n-2 -- from the vanishing of W_{n-3}.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from itertools import combinations
from math import comb

import numpy as np

from .exactla import ExactMatrix, FieldSpec, _gf_array, kernel_basis, rank
from .reps import RepSpace, generic_koszul_delta

TRIVIAL = "trivial"
NONTRIVIAL = "nontrivial"
UNKNOWN = "unknown"

DEFAULT_POINT_BUDGET = 200_000


def wedge2_pairs(n: int):
    return list(combinations(range(n), 2))


def catalan_degree(n: int) -> int:
    """Degree of the Grassmannian of lines in its Pluecker embedding,
    the Catalan number C(2n-4, n-2) / (n-1)."""
    if n < 2:
        raise ValueError("need n >= 2")
    num = comb(2 * n - 4, n - 2)
    assert num % (n - 1) == 0
    return num // (n - 1)


def hilbert_bound(n: int, q: int) -> int:
    """Sharp bound C(n+q-1, q) (n-2)(n-q-3) / (q+2) on dim W_q for a
    finite-length Koszul module; equality for dim K = 2n-3.  Zero
    outside 0 <= q <= n-4."""
    if n < 3:
        raise ValueError("need n >= 3")
    if q < 0 or q > n - 4:
        return 0
    num = comb(n + q - 1, q) * (n - 2) * (n - q - 3)
    assert num % (q + 2) == 0
    return num // (q + 2)


@dataclass(frozen=True)
class KoszulInput:
    """A pair (V, K): n = dim V and a matrix of independent columns
    spanning K inside Wedge^2 V (coordinates indexed by wedge2_pairs).
    """

    n: int
    kgens: ExactMatrix
    field: FieldSpec

    def __post_init__(self):
        if self.n < 3:
            raise ValueError("need dim V >= 3")
        n2 = comb(self.n, 2)
        if self.kgens.rows != n2:
            raise ValueError(f"kgens must have {n2} rows")
        if self.kgens.cols > n2:
            raise ValueError("more generators than dim Wedge^2 V")
        if self.kgens.cols and rank(self.kgens, self.field) != self.kgens.cols:
            raise ValueError("kgens columns must be linearly independent")

    @property
    def m(self) -> int:
        return self.kgens.cols


def random_koszul_input(n: int, m: int, f: FieldSpec, seed: int) -> KoszulInput:
    """Uniform random K of dimension m over GF(p), re-sampled until the
    columns are independent.  The seed fully determines the result."""
    p = f.characteristic
    if p == 0:
        raise ValueError("random sampling needs a finite field")
    n2 = comb(n, 2)
    rng = random.Random(seed)
    while True:
        mat = ExactMatrix.from_columns([[rng.randrange(p) for _ in range(n2)]
                                        for _ in range(m)], n2)
        if rank(mat, f) == m:
            return KoszulInput(n, mat, f)


# ---------------------------------------------------------------------------
# Graded pieces
# ---------------------------------------------------------------------------

def _quotient_projection(k: KoszulInput) -> ExactMatrix:
    """Projection Wedge^2 V -> Wedge^2 V / K in coordinates: its rows are
    the columns of `k_perp_basis(k)`, integral over every field."""
    return k_perp_basis(k).transpose()


def _w_matrix(k: KoszulInput, q: int, proj: ExactMatrix) -> ExactMatrix:
    """Presentation matrix of W_q: (Wedge^2/K) (x) Sym^q <- Wedge^3 (x) Sym^{q-1},
    given the quotient projection of `_quotient_projection(k)`."""
    if q == 0:
        return ExactMatrix(proj.rows, 0)
    delta3 = generic_koszul_delta(k.n, 3, q - 1)
    sym_q = RepSpace.sym_power(q, RepSpace.free(k.n)).dim
    lift = proj.kron(ExactMatrix.identity(sym_q))
    return lift @ delta3.matrix


def w_dim(k: KoszulInput, q: int) -> int:
    """dim W_q(V, K), exactly, over k.field."""
    if q < 0:
        raise ValueError("q must be non-negative")
    target_rows = (comb(k.n, 2) - k.m) * RepSpace.sym_power(q, RepSpace.free(k.n)).dim
    if q == 0:
        return target_rows
    return target_rows - rank(_w_matrix(k, q, _quotient_projection(k)), k.field)


# ---------------------------------------------------------------------------
# Resonance and the Chow form
# ---------------------------------------------------------------------------

def k_perp_basis(k: KoszulInput) -> ExactMatrix:
    """Basis of K-perp inside Wedge^2 V-dual (same pair coordinates), as
    the columns of `kernel_basis`."""
    return kernel_basis(k.kgens.transpose(), k.field)


_PFAFFIAN_CHUNK = 4096      # points per numpy batch of the Pfaffian test


def _pfaffian_index(n: int):
    """Six index arrays into wedge2_pairs(n), the pairs ab, cd, ac, bd,
    ad, bc of every 4-subset a < b < c < d."""
    pos = {pr: i for i, pr in enumerate(wedge2_pairs(n))}
    quads = list(combinations(range(n), 4))
    return [np.array([pos[(q[i], q[j])] for q in quads], dtype=np.intp)
            for i, j in ((0, 1), (2, 3), (0, 2), (1, 3), (0, 3), (1, 2))]


def _decomposable_chunks(basis, n: int, p: int, budget: int):
    """Batched decomposability test on the points of P(span of basis)
    over GF(p), at most budget of them.

    Yields (points, mask) for consecutive chunks of at most
    _PFAFFIAN_CHUNK points, in the order of the per-point reference
    `projective_points(basis, p, budget)` in tests/_oracles.py.
    `points` holds the Wedge^2 coordinates mod p as int64 rows; mask[i]
    is True iff points[i] is zero or decomposable, i.e. every 4x4 Pfaffian
    w_ab w_cd - w_ac w_bd + w_ad w_bc vanishes mod p.  These Pluecker
    quadrics cut out the Grassmannian of lines over every field,
    characteristic 2 included.  Each product is reduced before summing,
    so nothing exceeds 2^63 for any p < 2^31.  A consumer that stops
    early evaluates no further chunk.
    """
    k = len(basis)
    B = np.array(basis, dtype=np.int64) % p
    ab, cd, ac, bd, ad, bc = _pfaffian_index(n)
    left = budget
    for lead in range(k):
        tail = k - lead - 1
        count = min(p ** tail, left)
        left -= count
        for start in range(0, count, _PFAFFIAN_CHUNK):
            idx = np.arange(start, min(start + _PFAFFIAN_CHUNK, count), dtype=np.int64)
            # idx spelled in base p, most significant digit first, is the
            # tail of the coefficient vector (0, .., 0, 1, tail)
            pts = np.repeat(B[lead][None, :], idx.size, axis=0)
            for j in range(tail):
                w = p ** (tail - 1 - j)
                if w < count:           # else the digit is 0 for every idx
                    digit = idx // w % p
                    pts = (pts + digit[:, None] * B[lead + 1 + j] % p) % p
            pf = (pts[:, ab] * pts[:, cd] % p - pts[:, ac] * pts[:, bd] % p
                  + pts[:, ad] * pts[:, bc] % p) % p
            yield pts, ~pf.any(axis=1)
        if not left:
            return


def resonance_trivial(k: KoszulInput, budget: int = DEFAULT_POINT_BUDGET) -> str:
    """Is the resonance of (V, K) trivial?  Returns "trivial",
    "nontrivial" or "unknown".

    Method A (finite fields): enumerate rational points of P(K-perp)
    and test decomposability by the 4x4 Pfaffians, in numpy batches
    that stop at the first batch holding a decomposable point.  A hit
    is conclusive; exhaustion is conclusive only when P(K-perp) is a
    single point (then every geometric point is rational).  Method B
    (char 0 or char >= n-2): trivial iff W_{n-3} = 0.  When both are
    conclusive they are cross-checked.
    """
    n, m, f = k.n, k.m, k.field
    p = f.characteristic
    if m == comb(n, 2):
        return TRIVIAL                      # K-perp = 0, W = 0
    verdicts = []
    if m <= 2 * n - 4:
        # codim P(K-perp) = m <= dim of the Grassmannian of lines, so the
        # intersection is nonempty over the algebraic closure
        verdicts.append(NONTRIVIAL)
    method_b = None
    if p == 0 or p >= n - 2:
        method_b = TRIVIAL if w_dim(k, n - 3) == 0 else NONTRIVIAL
        verdicts.append(method_b)
    if p != 0:
        basis = k_perp_basis(k)
        kdim = basis.cols
        npoints = (p**kdim - 1) // (p - 1) if kdim else 0
        if kdim and npoints <= budget:
            # the basis is independent, so no enumerated point is zero
            found = any(mask.any()
                        for _, mask in _decomposable_chunks(
                            _gf_array(basis.transpose(), p), n, p, budget))
            if found:
                verdicts.append(NONTRIVIAL)
            elif kdim == 1:
                verdicts.append(TRIVIAL)    # the single point is rational
    if not verdicts:
        return UNKNOWN
    if len(set(verdicts)) > 1:
        raise AssertionError(
            f"resonance methods disagree for n={n}, m={m}, {f}: {verdicts}")
    return verdicts[0]


@functools.lru_cache(maxsize=None)
def _chow_kernel(n: int, f: FieldSpec) -> ExactMatrix:
    """Kernel basis of delta_{2,n-3} over f as matrix columns, shared by
    every K of one (n, f)."""
    return kernel_basis(generic_koszul_delta(n, 2, n - 3).matrix, f)


def chow_member(k: KoszulInput) -> bool:
    """Cayley-Chow membership for dim K = 2n-3: does K (x) Sym^{n-3} V
    meet the kernel of the Koszul differential delta_{2,n-3}?

    Both blocks have independent columns (KoszulInput checks those of
    K), so they meet iff the rank of the two side by side falls short of
    their column count."""
    n, f = k.n, k.field
    if k.m != 2 * n - 3:
        raise ValueError(f"chow_member needs dim K = 2n-3 = {2*n-3}, got {k.m}")
    ker = _chow_kernel(n, f)
    if not ker.cols:
        return False
    sym_dim = RepSpace.sym_power(n - 3, RepSpace.free(n)).dim
    k_sym = k.kgens.kron(ExactMatrix.identity(sym_dim))
    return rank(ExactMatrix.hstack([k_sym, ker]), f) < k_sym.cols + ker.cols
