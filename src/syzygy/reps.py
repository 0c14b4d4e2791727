"""Basis-labelled sl2 representations and equivariant matrix factories.

A two-dimensional space U with basis (1, x) generates everything here:
symmetric powers Sym^d U with monomial basis x^0..x^d, divided powers
D^d U with basis x^(0)..x^(d), and wedge / tensor / symmetric-power
constructions of those.  Every map is an integer ExactMatrix (field
reduction happens at rank time).  Only what a job reads again is
memoized: the Sym, Div, Wedge and Free spaces, which are cheap and keep
the keys of the map caches stable; `lowering`, which `raising` reads;
`generic_koszul_delta`, which `koszul` asks for again for every sample;
and `nu` and `sympow_mul`, p and delta1 of the chain suite and the
Hermite squares (`nu` also builds every psi).  Tensor and SymPower
spaces and the other maps are built on each call and freed with their
last user.

Basis conventions, fixed so matrices are reproducible bit for bit.  A
space's `dim` is arithmetic; its basis is the int64 array `labels`, built
on first use, one row per basis vector, in lexicographic order:

* Sym(d), Div(d), Free(n): one column, the exponent 0..d (index 0..n-1).
* Wedge(i, Sym(d)), Wedge(i, Div(d)): the strictly decreasing rows of i
  exponents 0..d.  The row (l_1+i-1, ..., l_i) realizes the Schur label
  s_l, so this is also the lexicographic order of the partitions l.
  Wedge(i, Free(n)): the strictly increasing rows of i indices.
* SymPower(d, inner): a monomial as the weakly decreasing row of its d
  inner labels 0..top (top = inner dim - 1), zeros included; mu lists
  the exponents of the divided-power variables.
* Tensor: no array; the mixed-radix number of the factors' positions,
  first factor slowest (itertools.product order).

`RepSpace.find` turns label rows into positions by the combinatorial
number system, with no search and no dict: a strictly decreasing row
c_1 > ... > c_i has rank sum_k C(c_k, i+1-k), the number of rows before
it; a weakly decreasing row a is ranked as the strictly decreasing
a_k + d - k, an increasing Free row b as n-1-b in reverse.  Each term is
below dim, so positions are exact in int64 wherever dim < 2^63; a larger
space raises OverflowError when it is constructed.

Every label has an integer weight (total exponent); all maps built
here shift weight by a constant, which is what makes the graded rank
splitting in exactla.closed_ranks valid.

The Weyl flip x <-> 1 of U acts on every basis above as a signed
permutation, `RepSpace.flip`, and sends weight w to top - w:

* Sym(d), Div(d): t -> d - t; Free(n): j -> n - 1 - j.
* Wedge(i, inner): each part flipped, then the row reversed (which
  restores its order), with sign (-1)^(i(i-1)/2).
* SymPower(d, inner): the padded row reversed and each part x -> top - x
  (padding zeros become top, parts equal to top become padding); sign +1.
* Tensor: the factors' flips, combined by index arithmetic.

An equivariant map M commutes with the flip up to one global sign,
F_tgt M = +-M F_src.  Then weight block w and block top - w of M are
signed permutations of each other and have equal rank over every
field.  `RepMap.rank` hands both flips to `exactla.closed_ranks`, which
checks this identity exactly one pair of blocks at a time and ranks
one block of each pair that passes.

Every map factory here and in `tangent` is one call of
`_build(source, target, parts, name)` on coordinate arrays computed for
all source labels at once; no label tuple is formed.  The reciprocity
matrix of `hermite` is joined by `ExactMatrix.hstack` from canonical
run products with `nu`, with no sort; it reads monomial rows only.
Other modules take their entries from `_insertions` (a part inserted
into a monomial), `_pieri` (the Pieri rule, which builds `nu`, that is
p, the map q of `tangent` and, through `nu`, the reciprocity matrix of
`hermite`) and `contraction` (the Koszul contraction of wedge rows).
"""

from __future__ import annotations

import functools
from itertools import chain, combinations, combinations_with_replacement
from math import comb, prod

import numpy as np

from .exactla import _I64, ExactMatrix, FieldSpec, closed_ranks


class RepSpace:
    """An sl2 representation with an ordered, labelled basis."""

    __slots__ = ("kind", "d", "inner", "factors", "n", "dim", "_labels", "_ranks",
                 "_weights", "_flip")

    def __init__(self, kind, d=None, inner=None, factors=None, n=None):
        self.kind, self.d, self.inner, self.factors, self.n = kind, d, inner, factors, n
        if kind in ("sym", "div"):
            dim = max(d + 1, 0)
        elif kind == "free":
            dim = n
        elif kind == "wedge":
            dim = comb(inner.dim, d)
        elif kind == "sympow":
            dim = comb(inner.dim + d - 1, d) if inner.dim else int(d == 0)
        elif kind == "tensor":
            dim = prod(sp.dim for sp in factors)
        else:
            raise ValueError(kind)
        if dim >= _I64:
            raise OverflowError(f"{self!r} has {dim} basis vectors, past int64 positions")
        self.dim = dim
        self._labels = self._ranks = self._weights = self._flip = None

    # -- constructors

    @classmethod
    @functools.lru_cache(maxsize=None)
    def sym(cls, d: int) -> "RepSpace":
        return cls("sym", d=d)

    @classmethod
    @functools.lru_cache(maxsize=None)
    def div(cls, d: int) -> "RepSpace":
        return cls("div", d=d)

    @classmethod
    @functools.lru_cache(maxsize=None)
    def wedge(cls, i: int, inner: "RepSpace") -> "RepSpace":
        return cls("wedge", d=i, inner=inner)

    @classmethod
    def tensor(cls, factors) -> "RepSpace":
        return cls("tensor", factors=tuple(factors))

    @classmethod
    def sym_power(cls, d: int, inner: "RepSpace") -> "RepSpace":
        return cls("sympow", d=d, inner=inner)

    @classmethod
    @functools.lru_cache(maxsize=None)
    def free(cls, n: int) -> "RepSpace":
        return cls("free", n=n)

    # -- basis machinery

    @property
    def labels(self) -> np.ndarray:
        """The basis as a lexicographically sorted int64 array, one row
        per label (module docstring), built once per space."""
        if self._labels is None:
            if self.kind in ("sym", "div", "free"):
                self._labels = np.arange(self.dim, dtype=np.int64)[:, None]
            else:
                k, top = self.d, self.inner.dim - 1
                if self.kind == "wedge" and self.inner.kind == "free":
                    rows, step = combinations(range(top + 1), k), 1     # in order
                else:       # decreasing rows, in reverse lexicographic order
                    make = combinations_with_replacement if self.kind == "sympow" \
                        else combinations
                    rows, step = make(range(top, -1, -1), k), -1
                lab = np.fromiter(chain.from_iterable(rows), dtype=np.int64,
                                  count=self.dim * k).reshape(self.dim, k)
                self._labels = np.ascontiguousarray(lab[::step])
        return self._labels

    def find(self, rows) -> np.ndarray:
        """Basis positions of label rows: sum over k of ranks[k, rows[:, k]]."""
        tab = self.ranks
        return tab[np.arange(tab.shape[0]), rows].sum(axis=1)

    @property
    def ranks(self) -> np.ndarray:
        """The table of `find`, one row per label column: the terms of the
        combinatorial number system rank (module docstring), with the Free
        wedge's reversal folded in; 0 where a part cannot occur."""
        if self._ranks is None:
            if self.kind in ("sym", "div", "free"):
                k, top, terms = 1, self.dim - 1, [range(self.dim)]
            else:
                k, top = self.d, self.inner.dim - 1
                if self.kind == "sympow":
                    terms = [[comb(x + k - 1 - s, k - s) for x in range(top + 1)]
                             for s in range(k)]
                elif self.inner.kind == "free":     # dim - 1 - rank of the rows n - 1 - b
                    terms = [[(s == 0) * (self.dim - 1) - (comb(top - x, k - s) if x >= s else 0)
                              for x in range(top + 1)] for s in range(k)]
                else:
                    terms = [[comb(x, k - s) if x <= top - s else 0 for x in range(top + 1)]
                             for s in range(k)]
            self._ranks = np.array(terms, dtype=np.int64).reshape(k, top + 1)
        return self._ranks

    @property
    def weights(self) -> np.ndarray:
        """Total exponent of every basis label (the integer sl2 weight,
        shifted), computed once per space."""
        if self._weights is None:
            if self.kind == "tensor":
                w = np.zeros(1, dtype=np.int64)
                for sp in self.factors:
                    w = (w[:, None] + sp.weights).ravel()
            else:
                w = self.labels.sum(axis=1)
            self._weights = w
        return self._weights

    @property
    def flip(self):
        """The Weyl flip as (perm, sign), two int64 arrays: it sends basis
        vector k to sign[k] times basis vector perm[k] (module docstring),
        computed once per space from the label rows; a tensor combines
        its factors' arrays."""
        if self._flip is None:
            if self.kind == "tensor":
                perm, sign = np.zeros(1, dtype=np.int64), np.ones(1, dtype=np.int64)
                for sp in self.factors:
                    fp, fs = sp.flip
                    perm = (perm[:, None] * sp.dim + fp).ravel()
                    sign = np.outer(sign, fs).ravel()
            else:
                top = self.dim - 1 if self.kind in ("sym", "div", "free") else self.inner.dim - 1
                perm = self.find(top - self.labels[:, ::-1])
                odd = self.kind == "wedge" and self.d * (self.d - 1) // 2 % 2
                sign = np.full(self.dim, -1 if odd else 1, dtype=np.int64)
            self._flip = perm, sign
        return self._flip

    def __repr__(self):
        if self.kind in ("sym", "div"):
            return f"{self.kind.capitalize()}({self.d})"
        if self.kind == "free":
            return f"Free({self.n})"
        if self.kind == "wedge":
            return f"Wedge({self.d}, {self.inner!r})"
        if self.kind == "tensor":
            return "Tensor(" + ", ".join(repr(f) for f in self.factors) + ")"
        return f"SymPower({self.d}, {self.inner!r})"


class RepMap:
    """A named linear map between RepSpaces, carried by an ExactMatrix."""

    __slots__ = ("source", "target", "matrix", "name")

    def __init__(self, source: RepSpace, target: RepSpace,
                 matrix: ExactMatrix, name: str):
        if matrix.rows != target.dim or matrix.cols != source.dim:
            raise ValueError(f"{name}: matrix {matrix.shape} does not match "
                             f"{target.dim}x{source.dim}")
        self.source = source
        self.target = target
        self.matrix = matrix
        self.name = name

    def rank(self, f: FieldSpec) -> int:
        return closed_ranks([self.matrix], f, [self.source.weights, self.target.weights],
                            [self.source.flip, self.target.flip])[0]

    def __repr__(self):
        return f"RepMap({self.name}: {self.source!r} -> {self.target!r})"


def _build(source, target, parts, name) -> RepMap:
    """Assemble a RepMap from coordinate arrays: `parts` lists (target
    position, source position, coeff) triples, each broadcast to one
    shape; repeated positions add up, and ExactMatrix drops the zero
    sums.  Coefficients past int64 (object arrays, as a product of
    ExactMatrix values may be) stay Python ints."""
    coords = [[np.zeros(0, dtype=np.int64)] for _ in range(3)]
    for part in parts:
        for k, (acc, x) in enumerate(zip(coords, np.broadcast_arrays(*part))):
            keep = k == 2 and x.dtype == object
            acc.append((x if keep else x.astype(np.int64, copy=False)).ravel())
    return RepMap(source, target, ExactMatrix(target.dim, source.dim,
                                              tuple(map(np.concatenate, coords))), name)


# ---------------------------------------------------------------------------
# Label arithmetic on whole bases
# ---------------------------------------------------------------------------

def _insertions(space: RepSpace, bigger: RepSpace) -> np.ndarray:
    """Row v, column mu: the position in `bigger` = SymPower(d+1, inner)
    of mu * x_v, for the monomials mu of `space` = SymPower(d, inner)."""
    lab = space.labels
    out = np.empty((space.inner.dim, space.dim), dtype=np.int64)
    for v in range(space.inner.dim):
        grown = np.sort(np.column_stack((lab, np.full(space.dim, v))), axis=1)
        out[v] = bigger.find(grown[:, ::-1])
    return out


def _pieri(space: RepSpace, bigger: RepSpace, rows=None):
    """The Pieri rule s_l e_j = sum over j-subsets I of the slots of
    s_{l + 1_I}, on the rows `rows` (all if None) of `space` = Wedge(i,
    Sym(m)): arrays (j, position in `bigger` = Wedge(i, Sym(m+1)), source
    position), one per vertical strip, that is, per I with exps + 1_I
    strictly decreasing: slot k moves only if slot k - 1 moves or
    exps[k - 1] > exps[k] + 1.  The strips grow slot by slot, summing
    their target ranks."""
    lab, tab = space.labels, bigger.ranks
    src = np.arange(space.dim) if rows is None else rows
    j = pos = np.zeros(src.size, dtype=np.int64)
    moved = np.ones(src.size, dtype=bool)          # slot 0 may always move
    for k in range(space.d):
        e = lab[src, k]
        up = np.flatnonzero(moved | (lab[src, k - 1] > e + 1))
        src, j, pos = (np.concatenate(x) for x in (
            (src, src[up]), (j, j[up] + 1), (pos + tab[k, e], pos[up] + tab[k, e[up] + 1])))
        moved = np.repeat((False, True), (e.size, up.size))
    return j, pos, src


def _contract(space: RepSpace):
    """The signed Koszul contraction of every row of `space` = Wedge^i:
    for each slot k, (position in Wedge^{i-1} of the rows without slot
    k, the parts at slot k, (-1)^k)."""
    lab = space.labels
    return [(RepSpace.wedge(space.d - 1, space.inner).find(np.delete(lab, k, axis=1)),
             lab[:, k], -1 if k % 2 else 1) for k in range(space.d)]


def contraction(space: RepSpace, g: int, a: int = 0, k: int = 0):
    """`_build` parts of the Koszul contraction Wedge^i -> Wedge^{i-1}
    (x) Sym^g U of `space` = Wedge(i, Sym(m)), m <= g, tensored on the
    left with the comultiplication D^a U -> D^{a-k} U (x) Sym^k U,
    x^(t) -> sum_u C(k, u) x^(t-u) (x) x^u, whose x^u multiplies the
    dropped part.  Source positions are t * dim + s, target positions
    ((t - u) * dim Wedge^{i-1} + rest) * (g + 1) + part + u."""
    cols = np.arange(space.dim)
    rest = comb(space.inner.dim, space.d - 1)
    return [(((t - u) * rest + where) * (g + 1) + part + u, t * space.dim + cols,
             sign * comb(k, u))
            for where, part, sign in _contract(space)
            for t in range(a + 1) for u in range(max(0, t - a + k), min(k, t) + 1)]


# ---------------------------------------------------------------------------
# Lowering / raising operators
# ---------------------------------------------------------------------------

def _lowering_coeffs(space: RepSpace) -> np.ndarray:
    """L x^e = c[e] x^(e-1) on Sym and Div: the array c (c[0] = 0)."""
    if space.kind not in ("sym", "div"):
        raise ValueError(f"no sl2 action on {space!r}")
    e = np.arange(space.dim, dtype=np.int64)
    return e if space.kind == "sym" else np.where(e > 0, space.d + 1 - e, 0)


@functools.lru_cache(maxsize=None)
def lowering(space: RepSpace) -> RepMap:
    """L acts as a derivation, one part at a time.  On a wedge row, part
    e goes to e - 1 and vanishes if e - 1 is present; on a monomial the
    last copy of each part value goes down, times its multiplicity.
    Either way the row stays sorted.  A tensor sums I (x) L (x) I over
    its factors."""
    if space.kind == "tensor":
        dims = [sp.dim for sp in space.factors]
        mats = [ExactMatrix.identity(prod(dims[:k])).kron(lowering(sp).matrix)
                .kron(ExactMatrix.identity(prod(dims[k + 1:])))
                for k, sp in enumerate(space.factors)]
        return _build(space, space, [(m.row, m.col, m.val) for m in mats], "L")
    if space.kind in ("sym", "div", "free"):
        c = _lowering_coeffs(space)
        e = np.flatnonzero(c)
        return _build(space, space, [(e - 1, e, c[e])], "L")
    c, lab, sympow = _lowering_coeffs(space.inner), space.labels, space.kind == "sympow"
    parts = []
    for k in range(space.d):
        e = lab[:, k]
        ok = c[e] != 0
        if k + 1 < space.d:
            ok &= lab[:, k + 1] != (e if sympow else e - 1)
        sel = np.flatnonzero(ok)
        new = lab[sel]
        new[:, k] -= 1
        coeff = c[e[sel]] * ((lab[sel] == e[sel, None]).sum(axis=1) if sympow else 1)
        parts.append((space.find(new), sel, coeff))
    return _build(space, space, parts, "L")


def raising(space: RepSpace) -> RepMap:
    """R = F L F^-1: the Weyl flip F exchanges x and 1, so it conjugates
    the lowering operator into the raising one."""
    flip = space.flip
    return RepMap(space, space, lowering(space).matrix.permuted(flip, flip), "R")


# ---------------------------------------------------------------------------
# The equivariant maps
# ---------------------------------------------------------------------------

def wahl_mu1(a: int) -> RepMap:
    """Gaussian-Wahl map on wedge squares: x^i ^ x^j -> (i-j) x^{i+j-1}.

    Surjective iff the characteristic is not 2.
    """
    if a < 1:
        raise ValueError("wahl_mu1 needs a >= 1")
    src = RepSpace.wedge(2, RepSpace.sym(a))      # rows (i, j), i > j
    lab = src.labels
    return _build(src, RepSpace.sym(2 * a - 2),
                  [(lab.sum(axis=1) - 1, np.arange(src.dim), lab[:, 0] - lab[:, 1])],
                  f"wahl_mu1({a})")


def delta1(a: int) -> RepMap:
    """Dual Gaussian-Wahl map D^{2a-2} U -> Wedge^2 D^a U.

    In the paired bases this is exactly the transpose of wahl_mu1(a):
    x^(t) -> sum over i > j, i+j = t+1 of (i-j) x^(i) ^ x^(j), so each
    target row (i, j) has its one entry in column i + j - 1.
    Injective iff the characteristic is not 2.
    """
    if a < 1:
        raise ValueError("delta1 needs a >= 1")
    tgt = RepSpace.wedge(2, RepSpace.div(a))
    lab = tgt.labels
    return _build(RepSpace.div(2 * a - 2), tgt,
                  [(np.arange(tgt.dim), lab.sum(axis=1) - 1, lab[:, 0] - lab[:, 1])],
                  f"delta1({a})")


@functools.lru_cache(maxsize=None)
def nu(d: int, i: int) -> RepMap:
    """D^i U (x) Wedge^i Sym^{d+i-1} U -> Wedge^i Sym^{d+i} U.

    nu(x^(j) (x) s_l) = sum over j-subsets I of the wedge slots of
    s_{l + 1_I}, the Pieri rule `_pieri`; a shift whose exponents
    collide (l + 1_I not a partition) evaluates to zero.
    """
    wedge = RepSpace.wedge(i, RepSpace.sym(d + i - 1))
    tgt = RepSpace.wedge(i, RepSpace.sym(d + i))
    j, pos, src = _pieri(wedge, tgt)
    return _build(RepSpace.tensor([RepSpace.div(i), wedge]), tgt,
                  [(pos, j * wedge.dim + src, 1)], f"nu({d},{i})")


@functools.lru_cache(maxsize=None)
def generic_koszul_delta(n: int, i: int, q: int) -> RepMap:
    """Koszul differential Wedge^i V (x) Sym^q V -> Wedge^{i-1} V (x)
    Sym^{q+1} V for an abstract n-dimensional V.  Satisfies d o d = 0."""
    if not (0 <= i <= n):
        raise ValueError(f"need 0 <= i <= n, got i={i}, n={n}")
    V = RepSpace.free(n)
    wedge, mono, bigger = RepSpace.wedge(i, V), RepSpace.sym_power(q, V), \
        RepSpace.sym_power(q + 1, V)
    # at i = 0 the zero map: Wedge^0 labels contract to nothing
    tgt = RepSpace.free(0) if i == 0 else RepSpace.tensor([RepSpace.wedge(i - 1, V), bigger])
    grown = _insertions(mono, bigger)
    cols = np.arange(wedge.dim)[:, None] * mono.dim + np.arange(mono.dim)
    return _build(RepSpace.tensor([wedge, mono]), tgt,
                  [(where[:, None] * bigger.dim + grown[part], cols, sign)
                   for where, part, sign in _contract(wedge)],
                  f"koszul_delta({n},{i},{q})")


@functools.lru_cache(maxsize=None)
def sympow_mul(d: int, inner: RepSpace) -> RepMap:
    """Multiplication inner (x) Sym^d(inner) -> Sym^{d+1}(inner), the
    monomial insertion map."""
    mono, tgt = RepSpace.sym_power(d, inner), RepSpace.sym_power(d + 1, inner)
    grown = _insertions(mono, tgt)
    return _build(RepSpace.tensor([inner, mono]), tgt,
                  [(grown.ravel(), np.arange(grown.size), 1)], f"sympow_mul({d})")
