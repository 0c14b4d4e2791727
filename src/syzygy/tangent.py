"""Syzygies of the tangent developable of a rational normal curve.

Everything the Betti table of the degree-g tangent developable needs
reduces to kernels and cokernels of constant integer matrices:

* row 1 (weight-one syzygies) is the kernel of the composite map
  delta2 : D^{2i}U (x) Sym^{g-2-i}(D^{i+1}U) -> D^{i+1}U (x) Sym^{g-1-i}(D^{i+1}U),
  valid in every characteristic;
* row 2 (weight-two syzygies) is a graded piece of a Weyman module,
  the Koszul module of (D^{a}U, D^{2a-2}U) embedded by the dual
  Gaussian-Wahl map, valid away from characteristic 2.  It is the
  middle homology of the Weyman 3-term complex, whose first map is a
  delta2 map again, so row 2 costs no rank beyond those of row 1;
* in characteristic 2 the variety is a rational normal scroll of
  degree g-1 and the whole resolution is a single Eagon-Northcott
  linear strand with the closed-form ranks i * C(g-1, i+1).

The explicit complexes F (resolution of the parametrizing ring) and J
(linear complex with homology k and the canonical module), together
with the chain maps q : F -> J and p from J into the generators of the
Koszul complex K, are built at generator level so that all the
commuting squares can be checked as exact matrix identities.

Nothing here limits g: the resource guard on g is a policy of the
command line (`cli`), and the library computes at every g.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from math import comb

import numpy as np

from .exactla import ExactMatrix, FieldSpec, closed_ranks
from .hermite import psi_compat_check, psi_map, square_holds
from .reps import RepMap, RepSpace, _build, _insertions, _pieri, contraction, nu, sympow_mul


# ---------------------------------------------------------------------------
# delta2 and the Betti rows
# ---------------------------------------------------------------------------

def delta2_map(g: int, i: int) -> RepMap:
    """The composite of the dual Gaussian-Wahl inclusion with the Koszul
    differential:

        x^(t) (x) f  ->  sum over t'+t''=t+1 of (t'-t'') x^(t') (x) (x^(t'') f)

    with 0 <= t', t'' <= i+1, inside the polynomial algebra on the
    divided powers x^(0), ..., x^(i+1).
    """
    src, tgt = _delta2_spaces(g, i)
    mono, bigger = src.factors[1], tgt.factors[1]
    grown, cols = _insertions(mono, bigger), np.arange(mono.dim)
    return _build(src, tgt, [(tp * bigger.dim + grown[ts], t * mono.dim + cols, tp - ts)
                             for t in range(2 * i + 1) for tp, ts in _wahl_splits(t, i)],
                  f"delta2({g},{i})")


def _delta2_spaces(g: int, i: int):
    """(source, target) of delta2_map(g, i), checked before anything is
    built: a space past int64 positions raises OverflowError."""
    if not (0 <= i <= g - 2):
        raise ValueError(f"need 0 <= i <= g-2, got i={i}, g={g}")
    inner = RepSpace.div(i + 1)
    return (RepSpace.tensor([RepSpace.div(2 * i), RepSpace.sym_power(g - 2 - i, inner)]),
            RepSpace.tensor([inner, RepSpace.sym_power(g - 1 - i, inner)]))


def _wahl_splits(t: int, i: int):
    """The pairs (t', t'') with t' + t'' = t + 1, 0 <= t', t'' <= i + 1
    and t' != t'': the terms of the dual Gaussian-Wahl coproduct of
    x^(t), each with coefficient t' - t''."""
    for tp in range(max(0, t - i), min(i + 1, t + 1) + 1):
        if 2 * tp != t + 1:
            yield tp, t + 1 - tp


@functools.lru_cache(maxsize=None)
def _delta2_dims(g: int, i: int, f: FieldSpec):
    """(source dim, rank over f) of delta2_map(g, i): row 1 at i reads
    the kernel dimension and row 2 at i - 1 the rank, so one table
    builds each map once, and the map is freed once it is ranked.

    Over Q delta2 is ranked with the multiplication after it,
    D^{i+1}U (x) Sym^{g-1-i}(D^{i+1}U) -> Sym^{g-i}(D^{i+1}U), by
    `exactla.closed_ranks`: the two compose to zero (the Koszul complex
    of Sym(D^{i+1}U)).  The multiplication is built outside
    `sympow_mul`'s cache and freed with delta2."""
    m = delta2_map(g, i)
    if f.characteristic:
        return m.source.dim, m.rank(f)
    mul = sympow_mul.__wrapped__(g - 1 - i, m.target.factors[0])
    spaces = m.source, m.target, mul.target
    return m.source.dim, closed_ranks([m.matrix, mul.matrix], f, [s.weights for s in spaces],
                                      [s.flip for s in spaces])[0]


def weyman_dim(a: int, q: int, f: FieldSpec) -> int:
    """dim of the q-th graded piece W^{(a)}_q of the Weyman module for
    D^a U: the middle homology of the Weyman 3-term complex

        D^{2a-2}U (x) Sym^q(D^aU) -> D^aU (x) Sym^{q+1}(D^aU) -> Sym^{q+2}(D^aU),

    whose first map is delta2_map(a+q+1, a-1) and whose second is
    multiplication.  The Koszul complex of Sym(D^aU) is exact in every
    characteristic and multiplication is onto, so the cycles have
    dimension n C(n+q, q+1) - C(n+q+1, q+2), n = a+1, and only delta2
    is ranked.  Defined for characteristic != 2, where the dual
    Gaussian-Wahl map is injective."""
    if a < 2:
        raise ValueError("need a >= 2")
    if q < 0:
        raise ValueError("q must be non-negative")
    if f.characteristic == 2:
        raise ValueError("Weyman modules are undefined in characteristic 2 "
                         "(the dual Gaussian-Wahl map is not injective)")
    n = a + 1
    cycles = n * comb(n + q, q + 1) - comb(n + q + 1, q + 2)
    return cycles - _delta2_dims(a + q + 1, a - 1, f)[1]


def k_i1(g: int, i: int, f: FieldSpec) -> int:
    """dim K_{i,1} of the tangent developable: the kernel of delta2.
    Valid in arbitrary characteristic."""
    dim, r = _delta2_dims(g, i, f)
    return dim - r


def k_i2(g: int, i: int, f: FieldSpec) -> int:
    """dim K_{i,2} of the tangent developable, as the graded piece
    W^{(i+2)}_{g-3-i} of a Weyman module.  Characteristic != 2."""
    if not (1 <= i <= g - 3):
        raise ValueError(f"need 1 <= i <= g-3, got i={i}, g={g}")
    if f.characteristic == 2:
        raise ValueError("use the characteristic-2 scroll path of betti_table")
    return weyman_dim(i + 2, g - 3 - i, f)


# ---------------------------------------------------------------------------
# Betti tables
# ---------------------------------------------------------------------------

@dataclass
class BettiTable:
    """Betti numbers b[i][j] (0 <= i <= g-2, 0 <= j <= 3) of the degree-g
    tangent developable, with a provenance tag per entry."""

    g: int
    characteristic: int
    entries: list
    methods: list
    duality_ok: bool | None


def betti_table(g: int, f: FieldSpec) -> BettiTable:
    """The full graded Betti table of the degree-g tangent developable.

    For characteristic != 2 row 1 comes from delta2 kernels and row 2
    from Weyman modules, whose dimensions are closed-form cycle counts
    minus the ranks of the same delta2 maps: b[i][2] reads the rank of
    delta2 at i + 1.  Gorenstein duality b[i][1] = b[g-2-i][2] thus
    compares the ranks of delta2 at i and at g-1-i; it is checked and
    reported, never assumed.
    For characteristic 2 the variety is a scroll and the single linear
    strand has the Eagon-Northcott ranks i*C(g-1, i+1).
    """
    if g < 3:
        raise ValueError("need g >= 3")
    p = f.characteristic
    for i in range(1, 2 if p == 2 else g - 1):  # each delta2 (char 2: the first),
        _delta2_spaces(g, i)                    # before the g - 1 rows are allocated
    rows = g - 1
    entries = [[0] * 4 for _ in range(rows)]
    methods = [["shape"] * 4 for _ in range(rows)]
    entries[0][0] = 1
    methods[0][0] = "corner"
    if p == 2:
        for i in range(1, g - 1):
            entries[i][1] = i * comb(g - 1, i + 1)
            methods[i][1] = "eagon-northcott"
        return BettiTable(g, p, entries, methods, None)
    entries[g - 2][3] = 1
    methods[g - 2][3] = "corner"
    for i in range(1, g - 1):
        entries[i][1] = k_i1(g, i, f)
        methods[i][1] = "delta2"
    for i in range(1, g - 2):
        entries[i][2] = k_i2(g, i, f)
        methods[i][2] = "weyman"
    duality = all(entries[i][1] == entries[g - 2 - i][2] for i in range(1, g - 2))
    # the shape forces b_{g-2,1} = 0 away from characteristic 2
    duality = duality and entries[g - 2][1] == 0
    return BettiTable(g, p, entries, methods, duality)


# ---------------------------------------------------------------------------
# The complex J at generator level (and F, in the tests' oracles)
# ---------------------------------------------------------------------------
#
# A linear complex of free S-modules (S the polynomial ring on the
# basis of Sym^g U) is stored through its generator spaces and the
# generator-level differentials with values in gens (x) Sym^g U.  The
# realization at an internal degree tensors with multiplication of
# monomials in S, which is where all composites are checked.

@dataclass(frozen=True)
class Summand:
    space: RepSpace
    shift: int                   # generator degree


@dataclass
class GradedComplex:
    """Terms (direct sums of shifted generator spaces) and gen-level
    differentials keyed by (target summand, source summand); each block
    maps source gens into target gens (x) Sym^g U."""

    g: int
    terms: list            # list of list[Summand], index = homological degree
    differentials: list    # differentials[i]: dict[(tj, sj)] -> ExactMatrix


def compose_symmetrized(outer: ExactMatrix, inner: ExactMatrix,
                        gens_out: RepSpace, g: int) -> ExactMatrix:
    """(outer (x) id) o inner with the two Sym^g U factors multiplied
    into S_2: gens_src -> gens_out (x) S_2.  Zero iff the two
    differentials compose to zero as S-module maps."""
    mult = ExactMatrix.identity(gens_out.dim).kron(sympow_mul(1, RepSpace.sym(g)).matrix)
    return mult @ (outer.kron(ExactMatrix.identity(g + 1)) @ inner)


def complex_J(g: int) -> GradedComplex:
    """The linear complex with terms D^i U (x) Wedge^i Sym^{g-1} U (-i),
    i = 0..g; its homology is the residue field in degree zero and the
    canonical module of the cone over the rational normal curve.

    Differentials are integer matrices, so one complex serves every
    coefficient field; realizations reduce at rank time."""
    if g < 3:
        raise ValueError("need g >= 3")
    terms = []
    for i in range(g + 1):
        terms.append([Summand(_j_gens(g, i), i)])
    diffs = [None]
    for i in range(1, g + 1):
        diffs.append({(0, 0): _j_diff(g, i)})
    return GradedComplex(g, terms, diffs)


@functools.lru_cache(maxsize=None)
def _j_gens(g: int, i: int) -> RepSpace:
    if i == 0:
        return RepSpace.sym_power(0, RepSpace.sym(g))
    return RepSpace.tensor([RepSpace.div(i),
                            RepSpace.wedge(i, RepSpace.sym(g - 1))])


def _j_diff(g: int, i: int) -> ExactMatrix:
    """Comultiplication D^i U -> D^{i-1} U (x) U on the divided-power leg
    and the Koszul contraction on the wedge leg, into gens (x) Sym^g U."""
    src, tgt = _j_gens(g, i), RepSpace.tensor([_j_gens(g, i - 1), RepSpace.sym(g)])
    return _build(src, tgt, contraction(src.factors[1], g, i, 1), f"J({g},{i})").matrix


# ---------------------------------------------------------------------------
# The chain maps p and q and the Hermite conjugation square
# ---------------------------------------------------------------------------

def map_p_map(g: int, i: int) -> RepMap:
    """p_i : D^i U (x) Wedge^i Sym^{g-1} U -> Wedge^i Sym^g U, the
    column-shift map reps.nu(g - i, i): (x^(t), s_l) -> sum over
    t-subsets I of s_{l+1_I}.  p_0 is 1 -> 1 on one-dimensional spaces."""
    if not (0 <= i <= g + 1):
        raise ValueError(f"need 0 <= i <= g+1, got i={i}")
    return nu(g - i, i)


@functools.lru_cache(maxsize=None)
def map_q_map(g: int, i: int) -> RepMap:
    """q_i : D^{2i} U (x) Wedge^{i+1} Sym^{g-2} U ->
    D^{i+1} U (x) Wedge^{i+1} Sym^{g-1} U: the dual Gaussian-Wahl
    coproduct followed by the column-shift map on the second leg."""
    if not (0 <= i <= g - 2):
        raise ValueError(f"need 0 <= i <= g-2, got i={i}, g={g}")
    wedge = RepSpace.wedge(i + 1, RepSpace.sym(g - 2))
    # q_0 lives on Sym^{g-2}U, the shifted summand of F_0: the same positions
    src = RepSpace.sym(g - 2) if i == 0 else RepSpace.tensor([RepSpace.div(2 * i), wedge])
    tgt = _j_gens(g, i + 1)
    j, pos, col = _pieri(wedge, tgt.factors[1])
    return _build(src, tgt, [(tp * tgt.factors[1].dim + pos[j == ts],
                              t * wedge.dim + col[j == ts], tp - ts)
                             for t in range(2 * i + 1) for tp, ts in _wahl_splits(t, i)],
                  f"q({g},{i})")


def hermite_square_check(g: int, i: int) -> bool:
    """Do both squares conjugating (delta2, delta1) into (q_i, p_{i+1})
    through Hermite reciprocity commute over Z, and so over every field?

        D^{2i}U (x) Sym^{g-2-i}(D^{i+1}U) --id(x)psi--> D^{2i}U (x) W^{i+1}Sym^{g-2}U
              |delta2                                        |q_i
        D^{i+1}U (x) Sym^{g-1-i}(D^{i+1}U) --id(x)psi--> D^{i+1}U (x) W^{i+1}Sym^{g-1}U
              |delta1 (multiplication)                       |p_{i+1}
        Sym^{g-i}(D^{i+1}U)       --------psi------->    W^{i+1}Sym^{g}U

    The top square is `hermite.square_holds` (q_0 lives on the plain
    Sym^{g-2}U summand); the bottom one is `psi_compat_check(g-1-i, i+1)`.
    """
    if not (0 <= i <= g - 2):
        raise ValueError(f"need 0 <= i <= g-2, got i={i}, g={g}")
    return (square_holds(map_q_map(g, i).matrix, psi_map(g - 2 - i, i + 1).matrix,
                         psi_map(g - 1 - i, i + 1).matrix, delta2_map(g, i).matrix)
            and psi_compat_check(g - 1 - i, i + 1))
