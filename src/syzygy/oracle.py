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
multiplication on column-reduced graded bases of R.

This module is independent of `tangent`, which it cross-checks, and
imports nothing from it.  Its cost grows steeply with g, but nothing
here limits g: the command line (`cli`) guards `betti-oracle`.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from math import comb

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
    """Column-reduced basis of one weight block of R_n."""

    __slots__ = ("coords", "pos", "rows", "pivots")

    def __init__(self, coords):
        self.coords = coords                       # list of (beta, delta)
        self.pos = {c: i for i, c in enumerate(coords)}
        self.rows = []                             # reduced row vectors
        self.pivots = []

    def reduce(self, vec, p):
        """Reduce vec by the stored echelon rows; returns (coords, residue)."""
        v = list(vec)
        coeffs = []
        for row, piv in zip(self.rows, self.pivots):
            c = v[piv] % p if p else v[piv]
            coeffs.append(c)
            if c:
                for j in range(len(v)):
                    v[j] = (v[j] - c * row[j]) % p if p else v[j] - c * row[j]
        return coeffs, v

    def insert(self, vec, p) -> bool:
        """Reduce and, if independent, normalize and store.  Returns
        whether the vector enlarged the block."""
        _, v = self.reduce(vec, p)
        piv = next((j for j, x in enumerate(v) if (x % p if p else x)), None)
        if piv is None:
            return False
        if p:
            inv = pow(int(v[piv]) % p, p - 2, p)
            v = [(x * inv) % p for x in v]
        else:
            lead = Fraction(v[piv])
            v = [Fraction(x) / lead for x in v]
        # keep earlier rows reduced against the new one
        for k, row in enumerate(self.rows):
            c = row[piv]
            if c:
                self.rows[k] = [(a - c * b) % p if p else a - c * b
                                for a, b in zip(row, v)]
        self.rows.append(v)
        self.pivots.append(piv)
        return True


@dataclass
class ParamRing:
    """Graded coordinate ring of the tangent developable, one
    column-reduced basis per (degree, weight) block."""

    g: int
    field: FieldSpec
    chart: str = "jet"

    def __post_init__(self):
        self._polys = _z_polys(self.g, self.field.characteristic, self.chart)
        self._blocks = {}      # n -> {weight -> _Block}, filled by `_build`
        self._products = {}    # (n, w, local, c) -> `multiply`
        self._ranks = {}       # (i, n) -> `_map_rank`

    def _coords(self, n: int, w: int):
        """Ambient coordinates of z-weight w in degree n: (beta, delta)
        with beta + delta = w (weights are preserved by both charts)."""
        deg = self.g if self.chart == "jet" else self.g - 1
        out = []
        for beta in range(0, n + 1):
            delta = w - beta
            if 0 <= delta <= n * deg:
                out.append((beta, delta))
        return out

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
                blk = blocks[w] = _Block(self._coords(n, w))
            poly = _eval_mono(mono, self._polys)
            vec = [0] * len(blk.coords)
            for key, v in poly.items():
                vv = v % p if p else v
                if vv:
                    vec[blk.pos[key]] = vv
            blk.insert(vec, p)
        self._blocks[n] = blocks

    def block(self, n: int, w: int) -> _Block:
        self._build(n)
        blk = self._blocks[n].get(w)
        if blk is None:
            blk = self._blocks[n][w] = _Block(self._coords(n, w))
        return blk

    def dim(self, n: int) -> int:
        self._build(n)
        return sum(len(b.rows) for b in self._blocks[n].values())

    def basis_index(self, n: int):
        """Global enumeration [(weight, local index)] of the degree-n basis."""
        self._build(n)
        out = []
        for w in sorted(self._blocks[n]):
            for k in range(len(self._blocks[n][w].rows)):
                out.append((w, k))
        return out

    def multiply(self, n: int, w: int, local: int, c: int):
        """Coordinates of z_c * (basis element) inside R_{n+1}.

        The product must lie in the stored span; a nonzero residue
        would mean the graded basis is inconsistent.  Memoized: the
        Koszul maps of `oracle_kij` ask for each product many times.
        """
        key = (n, w, local, c)
        if key not in self._products:
            self._products[key] = self._multiply(n, w, local, c)
        return self._products[key]

    def _multiply(self, n: int, w: int, local: int, c: int):
        p = self.field.characteristic
        src = self.block(n, w)
        tgt = self.block(n + 1, w + c)
        row = src.rows[local]
        prod = {}
        for (b2, d2), v in zip(src.coords, row):
            if not v:
                continue
            for (b1, d1, v1) in self._polys[c]:
                key = (b1 + b2, d1 + d2)
                prod[key] = prod.get(key, 0) + v1 * v
        vec = [0] * len(tgt.coords)
        for key, v in prod.items():
            vv = v % p if p else v
            if vv:
                vec[tgt.pos[key]] = vv
        coeffs, residue = tgt.reduce(vec, p)
        if any((x % p if p else x) for x in residue):
            raise AssertionError("product escaped the graded basis of R")
        return coeffs


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
    with W the ambient linear forms z_0..z_g."""
    g = ring.g
    wsrc = list(combinations(range(g + 1), i))
    wtgt = list(combinations(range(g + 1), i - 1))
    tpos = {A: k for k, A in enumerate(wtgt)}
    bsrc = ring.basis_index(n)
    btgt = ring.basis_index(n + 1)
    bsrc_pos = {lab: k for k, lab in enumerate(bsrc)}
    btgt_pos = {lab: k for k, lab in enumerate(btgt)}
    dim_src_r = len(bsrc)
    dim_tgt_r = len(btgt)
    ent = {}
    for wa, A in enumerate(wsrc):
        for (w, local) in bsrc:
            col = wa * dim_src_r + bsrc_pos[(w, local)]
            for k, c in enumerate(A):
                rest = A[:k] + A[k + 1:]
                coeffs = ring.multiply(n, w, local, c)
                tw = w + c
                for loc2, v in enumerate(coeffs):
                    if v:
                        rowidx = tpos[rest] * dim_tgt_r + btgt_pos[(tw, loc2)]
                        key = (rowidx, col)
                        term = -v if k % 2 else v
                        ent[key] = ent[key] + term if key in ent else term
    ent = {k: v for k, v in ent.items() if v}
    return ExactMatrix(len(wtgt) * dim_tgt_r, len(wsrc) * dim_src_r, ent)


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
    `_map_rank(ring, i, n)`.  The two compose to zero, so where neither
    is ranked yet `exactla.closed_ranks` ranks them together."""
    keys = (i + 1, n - 1), (i, n)
    if n and not any(k in ring._ranks for k in keys):
        ring._ranks.update(zip(keys, closed_ranks(
            *(_wedge_mult_matrix(ring, *k) for k in keys), ring.field,
            [_wedge_weights(ring, i + 1 - t, n - 1 + t) for t in range(3)])))
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
