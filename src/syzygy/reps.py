"""Basis-labelled sl2 representations and equivariant matrix factories.

A two-dimensional space U with basis (1, x) generates everything here:
symmetric powers Sym^d U with monomial basis x^0..x^d, divided powers
D^d U with basis x^(0)..x^(d), and wedge / tensor / symmetric-power
constructions of those.  Every map is an integer ExactMatrix (field
reduction happens at rank time).  Only what a job reads again is
memoized: the Sym, Div, Wedge and Free spaces, which are cheap and keep
the keys of the map caches stable; `lowering`, which `raising` reads;
`generic_koszul_delta`, which `koszul` asks for again for every sample;
`nu` and `sympow_mul`, p and delta1 of the chain suite and the Hermite
squares; and the Pieri rule `column_shift`.  Tensor and SymPower spaces and the other maps are
built on each call and freed with their last user.

Basis conventions, fixed so matrices are reproducible bit for bit:

* Sym(d), Div(d): ascending exponent 0..d.
* Wedge(i, Sym(d)) and Wedge(i, Div(d)): the strictly decreasing
  i-tuples of exponents 0..d (itertools.combinations), sorted
  lexicographically.  The tuple (l_1+i-1, ..., l_i) realizes the Schur
  label s_l, so this is also the lexicographic order of the partition
  labels l (at most i parts, each at most d-i+1).
* Tensor: itertools.product order, first factor slowest.
* SymPower(d, inner): monomials as weakly decreasing d-tuples of
  inner labels 0..top (itertools.combinations_with_replacement, top the
  inner dimension minus one) with the zeros stripped, sorted
  lexicographically; mu lists the exponents of the divided-power
  variables.
* Free(n): an abstract n-dimensional space (no sl2 action); wedge
  labels over it are increasing index tuples.

Every label has an integer weight (total exponent); all maps built
here shift weight by a constant, which is what makes the graded rank
splitting in exactla.graded_rank valid.

The Weyl flip x <-> 1 of U acts on every basis above as a signed
permutation, `RepSpace.flip`, and sends weight w to top - w:

* Sym(d), Div(d): t -> d - t; Free(n): j -> n - 1 - j.
* Wedge(i, inner): each part flipped, then the tuple reversed (which
  restores its order), with sign (-1)^(i(i-1)/2).
* SymPower(d, inner): the label padded with zeros to d parts, each part
  x -> top - x, re-sorted and stripped of zeros; sign +1.
* Tensor: the factors' flips, combined by index arithmetic.

An equivariant map M commutes with the flip up to one global sign,
F_tgt M = +-M F_src.  Then weight block w and block top - w of M are
signed permutations of each other and have equal rank over every
field.  `RepMap.rank` hands both flips to `exactla.graded_rank`, which
checks this identity exactly one pair of blocks at a time and ranks
one block of each pair that passes.

Every map factory, here and in `hermite` and `tangent`, is one call of
`_build(source, target, image, name)`: `image(label)` yields the
(target label, coeff) pairs of one source basis label, repeated target
labels add up, and zero sums are dropped by ExactMatrix; the realized
differentials of `tangent` are products of such maps.  Only this module
knows the SymPower label format; other modules insert a part with
`insert_part`, shift wedge columns with `column_shift` (the Pieri rule,
which builds `nu`, that is p, the map q of `tangent` and the
reciprocity matrix of `hermite`) and contract wedge labels with `contract`.
"""

from __future__ import annotations

import functools
from itertools import combinations, combinations_with_replacement, product

import numpy as np

from .exactla import ExactMatrix, FieldSpec, graded_rank


class RepSpace:
    """An sl2 representation with an ordered, labelled basis."""

    __slots__ = ("kind", "d", "inner", "factors", "n", "_basis", "_index",
                 "_weights", "_flip")

    def __init__(self, kind, d=None, inner=None, factors=None, n=None):
        self.kind = kind
        self.d = d
        self.inner = inner
        self.factors = factors
        self.n = n
        self._basis = self._make_basis()
        self._index = None
        self._weights = None
        self._flip = None

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

    def _make_basis(self):
        if self.kind in ("sym", "div"):
            if self.d < 0:
                return ()
            return tuple(range(self.d + 1))
        if self.kind == "free":
            return tuple(range(self.n))
        if self.kind == "wedge":
            i = self.d
            if self.inner.kind == "free":
                return tuple(combinations(range(self.inner.n), i))
            return tuple(combinations(range(self.inner.d, -1, -1), i))[::-1]
        if self.kind == "tensor":
            return tuple(product(*[sp.basis for sp in self.factors]))
        if self.kind == "sympow":
            inner_top = self.inner.d if self.inner.kind in ("sym", "div") \
                else self.inner.n - 1
            monos = combinations_with_replacement(range(inner_top, -1, -1), self.d)
            return tuple(tuple(v for v in mu if v) for mu in monos)[::-1]
        raise ValueError(self.kind)

    @property
    def basis(self):
        return self._basis

    @property
    def dim(self) -> int:
        return len(self._basis)

    @property
    def positions(self):
        """{label: basis position}, built on first use (map sources need none)."""
        if self._index is None:
            self._index = {lab: k for k, lab in enumerate(self._basis)}
        return self._index

    def index(self, label) -> int:
        return self.positions[label]

    @property
    def weights(self):
        """Total exponent of every basis label (the integer sl2 weight,
        shifted), computed once per space."""
        if self._weights is None:
            if self.kind in ("sym", "div", "free"):
                self._weights = self._basis
            elif self.kind == "tensor":
                self._weights = tuple(map(sum, product(
                    *[sp.weights for sp in self.factors])))
            else:                                   # wedge, sympow
                self._weights = tuple(map(sum, self._basis))
        return self._weights

    @property
    def flip(self):
        """The Weyl flip as (perm, sign), two int64 arrays: it sends basis
        vector k to sign[k] times basis vector perm[k] (module docstring),
        computed once per space.  Only wedge and SymPower bases loop over
        labels; a tensor combines its factors' arrays."""
        if self._flip is None:
            if self.kind == "tensor":
                perm, sign = np.zeros(1, dtype=np.int64), np.ones(1, dtype=np.int64)
                for sp in self.factors:
                    fp, fs = sp.flip
                    perm = (perm[:, None] * sp.dim + fp).ravel()
                    sign = np.outer(sign, fs).ravel()
            elif self.kind in ("sym", "div", "free"):
                perm = np.arange(self.dim - 1, -1, -1, dtype=np.int64)
                sign = np.ones(self.dim, dtype=np.int64)
            else:
                top = self.inner.dim - 1
                if self.kind == "wedge":
                    flipped = (tuple(top - e for e in reversed(lab)) for lab in self._basis)
                else:                           # sympow: padded zeros become top
                    pad = (0,) * self.d
                    flipped = (tuple(top - x for x in reversed(lab + pad[len(lab):])
                                     if x != top) for lab in self._basis)
                perm = np.fromiter(map(self.positions.__getitem__, flipped), dtype=np.int64,
                                   count=self.dim)
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
        return graded_rank(self.matrix, f, self.target.weights, self.source.weights,
                           flips=(self.target.flip, self.source.flip))

    def __repr__(self):
        return f"RepMap({self.name}: {self.source!r} -> {self.target!r})"


def _build(source, target, image, name) -> RepMap:
    """Assemble a RepMap column by column: `image(label)` yields the
    (target label, coeff) pairs of one source basis label; repeated
    target labels add up, and ExactMatrix drops the zero sums."""
    index = target.positions
    rows, cols, vals = [], [], []
    for c, slab in enumerate(source.basis):
        for tlab, v in image(slab):
            rows.append(index[tlab])
            cols.append(c)
            vals.append(v)
    return RepMap(source, target,
                  ExactMatrix(target.dim, source.dim, (rows, cols, vals)), name)


# ---------------------------------------------------------------------------
# Label helpers
# ---------------------------------------------------------------------------

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
    over the j-subsets I of the slots, in subset order, as a memoized
    tuple.  l + 1_I is a partition exactly when exps + 1_I stays
    strictly decreasing; the shifts whose exponents collide vanish.
    Only those vertical strips are enumerated: slot k may move only if
    slot k - 1 moves or exps[k - 1] > exps[k] + 1."""
    i = len(exps)
    new, out = list(exps), []

    def grow(start, need):
        if not need:
            out.append(tuple(new))
            return
        # slot `start` follows a moved slot (or is slot 0); leave room
        # for the `need - 1` slots after k
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


# ---------------------------------------------------------------------------
# Lowering / raising operators
# ---------------------------------------------------------------------------

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
        inner = space.inner
        out = []
        exps = label
        present = set(exps)
        for pos, e in enumerate(exps):
            for nl, c in _op_terms(inner, e):
                if nl in present:
                    continue
                out.append((exps[:pos] + (nl,) + exps[pos + 1:], c))
        return out
    if k == "sympow":
        inner = space.inner
        out = []
        padded = label + (0,) * (space.d - len(label))
        seen = set()
        for pos, e in enumerate(padded):
            if e in seen:
                continue
            seen.add(e)
            mult = padded.count(e)
            rest = label[:pos] + label[pos + 1:]   # drop one x_e; zeros are implicit
            for nl, c in _op_terms(inner, e):
                out.append((insert_part(rest, nl), mult * c))
        return out
    raise ValueError(f"no sl2 action on {space!r}")


@functools.lru_cache(maxsize=None)
def lowering(space: RepSpace) -> RepMap:
    return _build(space, space, lambda lab: _op_terms(space, lab), "L")


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
    src = RepSpace.wedge(2, RepSpace.sym(a))      # labels (i, j), i > j
    return _build(src, RepSpace.sym(2 * a - 2),
                  lambda ij: ((ij[0] + ij[1] - 1, ij[0] - ij[1]),),
                  f"wahl_mu1({a})")


def delta1(a: int) -> RepMap:
    """Dual Gaussian-Wahl map D^{2a-2} U -> Wedge^2 D^a U.

    In the paired bases this is exactly the transpose of wahl_mu1(a):
    x^(t) -> sum over i > j, i+j = t+1 of (i-j) x^(i) ^ x^(j).
    Injective iff the characteristic is not 2.
    """
    if a < 1:
        raise ValueError("delta1 needs a >= 1")

    def image(t):
        for i in range(a + 1):
            j = t + 1 - i
            if 0 <= j < i:
                yield (i, j), i - j

    return _build(RepSpace.div(2 * a - 2), RepSpace.wedge(2, RepSpace.div(a)),
                  image, f"delta1({a})")


def koszul_k(i: int, d: int) -> RepMap:
    """Koszul contraction Wedge^i Sym^d U -> Wedge^{i-1} Sym^d U (x) Sym^d U.

    On Schur labels: s_l -> sum_j (-1)^{j-1} s_{l^j-hat} (x) x^{l_j+i-j};
    in exponent terms, drop the j-th wedge factor and emit it on the
    right.  Injective.
    """
    if not (1 <= i <= d + 1):
        raise ValueError(f"koszul_k needs 1 <= i <= d+1, got i={i}, d={d}")
    src = RepSpace.wedge(i, RepSpace.sym(d))
    tgt = RepSpace.tensor([RepSpace.wedge(i - 1, RepSpace.sym(d)), RepSpace.sym(d)])
    return _build(src, tgt, lambda exps: (((rest, e), sign)
                                          for rest, e, sign in contract(exps)),
                  f"koszul_k({i},{d})")


@functools.lru_cache(maxsize=None)
def nu(d: int, i: int) -> RepMap:
    """D^i U (x) Wedge^i Sym^{d+i-1} U -> Wedge^i Sym^{d+i} U.

    nu(x^(j) (x) s_l) = sum over j-subsets I of the wedge slots of
    s_{l + 1_I}, the Pieri rule `column_shift`; a shift whose exponents
    collide (l + 1_I not a partition) evaluates to zero.
    """
    src = RepSpace.tensor([RepSpace.div(i),
                           RepSpace.wedge(i, RepSpace.sym(d + i - 1))])
    tgt = RepSpace.wedge(i, RepSpace.sym(d + i))
    return _build(src, tgt, lambda lab: ((new, 1) for new in column_shift(lab[1], lab[0])),
                  f"nu({d},{i})")


@functools.lru_cache(maxsize=None)
def generic_koszul_delta(n: int, i: int, q: int) -> RepMap:
    """Koszul differential Wedge^i V (x) Sym^q V -> Wedge^{i-1} V (x)
    Sym^{q+1} V for an abstract n-dimensional V.  Satisfies d o d = 0."""
    if not (0 <= i <= n):
        raise ValueError(f"need 0 <= i <= n, got i={i}, n={n}")
    V = RepSpace.free(n)
    src = RepSpace.tensor([RepSpace.wedge(i, V), RepSpace.sym_power(q, V)])
    # at i = 0 the zero map: Wedge^0 labels contract to nothing
    tgt = RepSpace.free(0) if i == 0 else RepSpace.tensor(
        [RepSpace.wedge(i - 1, V), RepSpace.sym_power(q + 1, V)])
    return _build(src, tgt,
                  lambda lab: (((rest, insert_part(lab[1], v)), sign)
                               for rest, v, sign in contract(lab[0])),
                  f"koszul_delta({n},{i},{q})")


@functools.lru_cache(maxsize=None)
def sympow_mul(d: int, inner: RepSpace) -> RepMap:
    """Multiplication inner (x) Sym^d(inner) -> Sym^{d+1}(inner), the
    monomial insertion map."""
    src = RepSpace.tensor([inner, RepSpace.sym_power(d, inner)])
    return _build(src, RepSpace.sym_power(d + 1, inner),
                  lambda lab: ((insert_part(lab[1], lab[0]), 1),), f"sympow_mul({d})")
