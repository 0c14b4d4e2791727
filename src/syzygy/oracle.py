"""Brute-force ground truth for the tangent developable.

The homogeneous coordinate ring R of the tangent developable is
realized by substituting an explicit parametrization into the degree-n
monomials of the ambient coordinates z_0..z_g and taking the span of
the resulting polynomials in the chart variables (a, b, s, t).  All
identity testing is symbolic, on coefficient vectors over the exact
field, so the construction is valid in every characteristic.

Two charts are available:

* ``jet`` (default): z_i = a s^{g-i} t^i + b i s^{g-i+1} t^{i-1}, the
  bihomogenized tangent-line chart [point + derivative].  This is the
  jet-bundle tangent line and works in every characteristic.
* ``deriv``: z_i = a (g-i) s^{g-i-1} t^i + b i s^{g-i} t^{i-1}, the
  span of the two partial derivatives of the parametrized curve.  The
  Euler relation makes it agree with ``jet`` whenever the
  characteristic does not divide g; when it does, the two derivative
  vectors become proportional pointwise and the chart collapses (for
  instance z_0 vanishes identically), so ``deriv`` is only offered for
  cross-checking.

Syzygy groups are computed as the middle homology of the standard
3-term complexes over the ambient polynomial ring, using explicit
multiplication on a reduced echelon basis of each weight block of R:
over Q a lattice basis over Z (the Hermite normal form of the span of
the monomial images), so every map is an integer matrix and no
rational arithmetic runs; over GF(p) the reduced row echelon form.

This module is independent of `tangent`, which it cross-checks, and
imports nothing from it.  Its cost grows steeply with g, but nothing
here limits g: the command line (`cli`) guards `betti-oracle`.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import combinations, combinations_with_replacement
from math import comb

import numpy as np

from .exactla import ExactMatrix, FieldSpec, closed_ranks, graded_rank


def _z_polys(g: int, p: int, chart: str):
    """Per-coordinate parametrization polynomials as term lists
    (beta, delta, coeff): beta the b-exponent, delta the t-exponent;
    the a-exponent is 1-beta and the s-exponent is degree-delta."""
    polys = []
    for i in range(g + 1):
        terms = []
        if chart == "jet":
            terms.append((0, i, 1))
            c = i % p if p else i
            if c:
                terms.append((1, i - 1, c))
        elif chart == "deriv":
            c0 = (g - i) % p if p else g - i
            if c0:
                terms.append((0, i, c0))
            c1 = i % p if p else i
            if c1:
                terms.append((1, i - 1, c1))
        else:
            raise ValueError(f"unknown chart {chart!r}")
        polys.append(terms)
    return polys


def _eval_mono(mono, polys):
    """Expand a z-monomial into a polynomial dict {(beta, delta): coeff}."""
    acc = {(0, 0): 1}
    for c in mono:
        nxt = {}
        for (b1, d1), v1 in acc.items():
            for (b2, d2, v2) in polys[c]:
                key = (b1 + b2, d1 + d2)
                nxt[key] = nxt.get(key, 0) + v1 * v2
        acc = {k: v for k, v in nxt.items() if v}
    return acc


class _Block:
    """Reduced echelon basis of one weight block of R_n, rows in
    increasing pivot order.  Over Q the rows are the Hermite normal form
    of the lattice that the monomial images span: a Z-basis with
    positive pivots and every entry above a pivot in [0, pivot).  Over
    GF(p) the same rules make each pivot 1 and clear its column."""

    __slots__ = ("coords", "pos", "p", "rows", "pivots")

    def __init__(self, coords, p):
        self.coords, self.p = coords, p            # coords: list of (beta, delta)
        self.pos = {c: i for i, c in enumerate(coords)}
        self.rows, self.pivots = [], []

    def _minus(self, v, q, row):
        """v - q row, reduced mod p over GF(p)."""
        if self.p:
            return [(x - q * y) % self.p for x, y in zip(v, row)]
        return [x - q * y for x, y in zip(v, row)]

    def insert(self, vec) -> None:
        """Add vec to the span.  Over Z a row whose pivot column meets
        vec's leading entry is combined with vec by Euclid's algorithm,
        in unimodular row operations, so the rows stay a basis of the
        lattice; over GF(p) the pivot 1 clears that entry in one step."""
        p = self.p
        v, k = [x % p for x in vec] if p else list(vec), 0
        while any(v):
            j = next(c for c, x in enumerate(v) if x)
            while k < len(self.pivots) and self.pivots[k] < j:
                k += 1
            if k == len(self.pivots) or self.pivots[k] > j:
                s = pow(v[j], p - 2, p) if p else (1 if v[j] > 0 else -1)
                self.rows.insert(k, [x * s % p if p else x * s for x in v])
                self.pivots.insert(k, j)
                return
            row = self.rows[k]
            while True:
                v = self._minus(v, v[j] // row[j], row)
                if not v[j]:
                    break
                row, v = v, row
            self.rows[k] = row

    def reduce(self) -> None:
        """Bring each entry above a pivot into [0, pivot)."""
        for k, (row, piv) in enumerate(zip(self.rows, self.pivots)):
            for i in range(k):
                self.rows[i] = self._minus(self.rows[i], self.rows[i][piv] // row[piv], row)

    def coordinates(self, vec):
        """The coordinates of vec in the rows, by exact division down the
        pivots (over GF(p) vec holds residues and every pivot is 1).  A
        remainder stays at its pivot, where no later row reaches, so
        anything left at the end means vec is outside the span: the
        graded basis is inconsistent."""
        out = []
        for row, piv in zip(self.rows, self.pivots):
            out.append(vec[piv] // row[piv])
            vec = self._minus(vec, out[-1], row)
        if any(vec):
            raise AssertionError("product escaped the graded basis of R")
        return out


@dataclass
class ParamRing:
    """Graded coordinate ring of the tangent developable, one reduced
    echelon basis per (degree, weight) block: over Q a lattice basis over
    Z, so every multiplication is an integer matrix."""

    g: int
    field: FieldSpec
    chart: str = "jet"

    def __post_init__(self):
        self._polys = _z_polys(self.g, self.field.characteristic, self.chart)
        self._blocks = {}      # n -> {weight -> _Block}, filled by `_build`
        self._times = {}       # (n, c) -> `times`
        self._ranks = {}       # (i, n) -> the rank of `_wedge_mult_matrix`

    def _coords(self, n: int, w: int):
        """Ambient coordinates of z-weight w in degree n: (beta, delta)
        with beta + delta = w (weights are preserved by both charts)."""
        deg = self.g if self.chart == "jet" else self.g - 1
        return [(beta, w - beta) for beta in range(n + 1) if 0 <= w - beta <= n * deg]

    def _build(self, n: int):
        if n in self._blocks:
            return
        p = self.field.characteristic
        blocks = {}
        # the degree-n monomials, as weakly decreasing index tuples
        for mono in combinations_with_replacement(range(self.g, -1, -1), n):
            w = sum(mono)
            blk = blocks.get(w)
            if blk is None:
                blk = blocks[w] = _Block(self._coords(n, w), p)
            vec = [0] * len(blk.coords)
            for key, v in _eval_mono(mono, self._polys).items():
                vec[blk.pos[key]] = v
            blk.insert(vec)
        for blk in blocks.values():
            blk.reduce()
        self._blocks[n] = blocks

    def block(self, n: int, w: int) -> _Block:
        self._build(n)
        return self._blocks[n][w]

    def dim(self, n: int) -> int:
        self._build(n)
        return sum(len(b.rows) for b in self._blocks[n].values())

    def basis_index(self, n: int):
        """Global enumeration [(weight, local index)] of the degree-n basis."""
        self._build(n)
        return [(w, k) for w, b in sorted(self._blocks[n].items()) for k in range(len(b.rows))]

    def multiply(self, n: int, w: int, local: int, c: int):
        """Coordinates of z_c * (basis element) inside R_{n+1}.

        The product must lie in the stored span; over Q its coordinates
        are integers, as z_c times a monomial is a monomial.  Otherwise
        (`_Block.coordinates`) the graded basis is inconsistent."""
        p = self.field.characteristic
        src = self.block(n, w)
        tgt = self.block(n + 1, w + c)
        prod = [0] * len(tgt.coords)
        for (b2, d2), v in zip(src.coords, src.rows[local]):
            if v:
                for (b1, d1, v1) in self._polys[c]:
                    prod[tgt.pos[(b1 + b2, d1 + d2)]] += v1 * v
        return tgt.coordinates([x % p for x in prod] if p else prod)

    def times(self, n: int, c: int) -> ExactMatrix:
        """Multiplication by z_c, R_n -> R_{n+1}, in the bases of
        `basis_index`; built once per (n, c) from `multiply`."""
        if (n, c) not in self._times:
            start, r, col, val = {}, [], [], []
            for k, (w, _) in enumerate(self.basis_index(n + 1)):
                start.setdefault(w, k)
            for k, (w, local) in enumerate(self.basis_index(n)):
                for j, v in enumerate(self.multiply(n, w, local, c)):
                    if v:
                        r.append(start[w + c] + j)
                        col.append(k)
                        val.append(v)
            self._times[n, c] = ExactMatrix(self.dim(n + 1), self.dim(n), (r, col, val))
        return self._times[n, c]


def ring_dim(g: int, n: int, f: FieldSpec, chart: str = "jet") -> int:
    """dim R_n, the Hilbert function of the tangent developable at n."""
    if n < 0:
        raise ValueError("n must be non-negative")
    return _ring(g, f, chart).dim(n)


@functools.lru_cache(maxsize=None)
def _ring(g: int, f: FieldSpec, chart: str) -> ParamRing:
    return ParamRing(g, f, chart)


def _wedge_mult_matrix(ring: ParamRing, i: int, n: int) -> ExactMatrix:
    """The Koszul-type map Wedge^i W (x) R_n -> Wedge^{i-1} W (x) R_{n+1}
    with W the ambient linear forms z_0..z_g: the sum over c of the
    contraction by z_c on Wedge^i W (z_A -> (-1)^k z_{A - c}, c the k-th
    index of A) tensored with `ParamRing.times(n, c)`.  Each pair
    (A - c, A) takes one c, so the sum lays the Kronecker products side
    by side, and one sort makes it canonical."""
    g = ring.g
    wsrc = list(combinations(range(g + 1), i))
    tpos = {A: k for k, A in enumerate(combinations(range(g + 1), i - 1))}
    rows, cols = ring.dim(n + 1), ring.dim(n)
    terms = [[] for _ in range(g + 1)]          # per c: (A - c, A, sign)
    for a, A in enumerate(wsrc):
        for k, c in enumerate(A):
            terms[c].append((tpos[A[:k] + A[k + 1:]], a, -1 if k % 2 else 1))
    parts = [(np.zeros(0, dtype=np.int64),) * 3]
    for c, t in enumerate(terms):
        if t:
            m = ring.times(n, c)
            r, a, s = np.array(t, dtype=np.int64).T
            parts.append((np.add.outer(r * rows, m.row).ravel(),
                          np.add.outer(a * cols, m.col).ravel(),
                          np.multiply.outer(s, m.val).ravel()))
    return ExactMatrix(len(tpos) * rows, len(wsrc) * cols,
                       [np.concatenate(x) for x in zip(*parts)])


def _wedge_weights(ring: ParamRing, i: int, n: int):
    wlabels = list(combinations(range(ring.g + 1), i))
    blabels = ring.basis_index(n)
    return [sum(A) + w for A in wlabels for (w, _) in blabels]


def oracle_kij(g: int, i: int, j: int, f: FieldSpec, chart: str = "jet") -> int:
    """dim K_{i,j} of the tangent developable, as the middle homology of

        Wedge^{i+1} W (x) R_{j-1} -> Wedge^i W (x) R_j -> Wedge^{i-1} W (x) R_{j+1}

    computed entirely from the parametrization.  The anti-drift cross
    check for the structured computation in the tangent module.
    """
    if i < 1 or j < 0:
        raise ValueError("need i >= 1 and j >= 0")
    ring = _ring(g, f, chart)
    rank_in, rank_out = _map_ranks(ring, i, j)
    return comb(g + 1, i) * ring.dim(j) - rank_out - rank_in


def _map_ranks(ring: ParamRing, i: int, n: int):
    """The ranks of the maps into and out of Wedge^i W (x) R_n:
    `_map_rank(ring, i + 1, n - 1)` (0 if n = 0) and
    `_map_rank(ring, i, n)`.  Consecutive maps map(i, n) =
    `_wedge_mult_matrix(ring, i, n)` compose to zero (the Koszul complex
    of R), so where none of them is ranked yet `exactla.closed_ranks`
    ranks them together: after map(i + 2, n - 2) where n >= 2, so that
    each block of map(i + 1, n - 1) is bounded from both sides, and
    otherwise as a pair."""
    for keys in ([(i + 2, n - 2), (i + 1, n - 1), (i, n)], [(i + 1, n - 1), (i, n)]):
        s, m = keys[0]
        if m >= 0 and not any(k in ring._ranks for k in keys):
            ring._ranks.update(zip(keys, closed_ranks(
                [_wedge_mult_matrix(ring, *k) for k in keys], ring.field,
                [_wedge_weights(ring, s - t, m + t) for t in range(len(keys) + 1)])))
            break
    return (_map_rank(ring, i + 1, n - 1) if n else 0), _map_rank(ring, i, n)


def _map_rank(ring: ParamRing, i: int, n: int) -> int:
    """The rank of `_wedge_mult_matrix(ring, i, n)`, kept on the ring:
    K_{i,n} reads it as its outgoing map and K_{i-1,n+1} as its incoming
    one.  z_c shifts weight by c, so the map is weight-graded."""
    key = (i, n)
    if key not in ring._ranks:
        ring._ranks[key] = graded_rank(_wedge_mult_matrix(ring, i, n), ring.field,
                                       _wedge_weights(ring, i - 1, n + 1),
                                       _wedge_weights(ring, i, n))
    return ring._ranks[key]
