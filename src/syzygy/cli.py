"""Command-line surface: reproducible computations with machine-readable
output, plus a self-check suite over the package invariants.

Exit codes: 0 ok, 1 invariant failure, 2 invalid input, 3 resource
guard breached or out of memory.  Identical invocations produce byte-identical output;
all randomness is driven by --seed.
"""

from __future__ import annotations

import argparse
import json
import sys
from math import comb

from . import __version__, koszul, oracle
from .exactla import ExactMatrix, FieldSpec, rank
from .hermite import psi_compat_check, psi_map, square_holds, unitriangular
from .koszul import (NONTRIVIAL, TRIVIAL, chow_member, hilbert_bound,
                     random_koszul_input, resonance_trivial)
from .reps import lowering, raising
from .tangent import betti_table, weyman_dim

EXIT_OK = 0
EXIT_INVARIANT = 1
EXIT_INVALID = 2
EXIT_GUARD = 3

# The package's only resource guard, on g alone (the library computes at
# every g): `betti` and `selfcheck` refuse g > DELTA2_G_MAX, and
# `betti-oracle` refuses g > ORACLE_G_MAX, unless --override-guard is given.
DELTA2_G_MAX = 12
ORACLE_G_MAX = 7


class CliError(Exception):
    def __init__(self, message, code=EXIT_INVALID):
        super().__init__(message)
        self.code = code


def _field(char: int) -> FieldSpec:
    try:
        return FieldSpec(char)
    except ValueError as e:
        raise CliError(str(e))


def _check_guard(g: int, args, limit: int):
    if g > limit and not args.override_guard:
        raise CliError(f"g={g} exceeds the guard ({limit}); pass --override-guard",
                       EXIT_GUARD)


def _parse_range(spec: str):
    """'A..B' or a single integer."""
    if ".." in spec:
        lo, hi = (int(x) for x in spec.split("..", 1))
        if hi < lo:
            raise CliError(f"empty range {spec}: need A <= B")
        return range(lo, hi + 1)
    v = int(spec)
    return range(v, v + 1)


def _emit(payload: dict, fmt: str, table_lines, csv_rows):
    if fmt == "json":
        sys.stdout.write(json.dumps(payload, separators=(",", ":")) + "\n")
    elif fmt == "csv":
        for row in csv_rows:
            sys.stdout.write(",".join(str(x) for x in row) + "\n")
    else:
        for line in table_lines:
            sys.stdout.write(line + "\n")


# ---------------------------------------------------------------------------
# betti / betti-oracle
# ---------------------------------------------------------------------------

def cmd_betti(args) -> int:
    f = _field(args.char)
    if args.g < 3:
        raise CliError("need --g >= 3")
    _check_guard(args.g, args, DELTA2_G_MAX)
    bt = betti_table(args.g, f)
    payload = {
        "g": bt.g,
        "char": bt.characteristic,
        "betti": bt.entries,
        "methods": bt.methods,
        "duality_ok": bt.duality_ok,
        "version": __version__,
    }
    lines = [f"betti table of the tangent developable, g={bt.g}, char={bt.characteristic}"]
    lines.append("  i: " + " ".join(f"{i:>6d}" for i in range(bt.g - 1)))
    for j in range(4):
        lines.append(f"j={j}: " +
                     " ".join(f"{bt.entries[i][j]:>6d}" for i in range(bt.g - 1)))
    lines.append(f"duality_ok: {bt.duality_ok}")
    csv_rows = [("i", "j", "value", "method")]
    for i in range(bt.g - 1):
        for j in range(4):
            csv_rows.append((i, j, bt.entries[i][j], bt.methods[i][j]))
    _emit(payload, args.format, lines, csv_rows)
    if bt.duality_ok is False:
        sys.stderr.write("duality check failed\n")
        return EXIT_INVARIANT
    return EXIT_OK


def cmd_betti_oracle(args) -> int:
    f = _field(args.char)
    if args.g < 3:
        raise CliError("need --g >= 3")
    _check_guard(args.g, args, ORACLE_G_MAX)
    vals = {}
    for i in range(1, args.g - 1):
        for j in (1, 2):
            vals[f"{i},{j}"] = oracle.oracle_kij(args.g, i, j, f)
    dims = {str(n): oracle.ring_dim(args.g, n, f) for n in range(0, 4)}
    payload = {"g": args.g, "char": f.characteristic, "kij": vals,
               "ring_dims": dims, "version": __version__}
    lines = [f"oracle syzygies, g={args.g}, char={f.characteristic}"]
    lines += [f"  K_{k} = {v}" for k, v in vals.items()]
    lines += [f"  dim R_{n} = {d}" for n, d in dims.items()]
    csv_rows = [("i", "j", "value", "method")]
    csv_rows += [tuple(k.split(",")) + (v, "oracle") for k, v in vals.items()]
    _emit(payload, args.format, lines, csv_rows)
    return EXIT_OK


# ---------------------------------------------------------------------------
# weyman
# ---------------------------------------------------------------------------

def cmd_weyman(args) -> int:
    f = _field(args.char)
    if args.a < 2:
        raise CliError("need --a >= 2")
    if f.characteristic == 2:
        raise CliError("Weyman modules are undefined in characteristic 2")
    qs = list(_parse_range(args.q))
    n = args.a + 1
    rows = []
    for q in qs:
        d = weyman_dim(args.a, q, f)
        bound = hilbert_bound(n, q)
        rows.append((q, d, bound, d == bound))
    payload = {"a": args.a, "char": f.characteristic,
               "dims": [{"q": q, "dim": d, "bound": b, "equal": e}
                        for q, d, b, e in rows],
               "version": __version__}
    lines = [f"Weyman module dims, a={args.a}, char={f.characteristic}",
             "   q    dim  bound  equal"]
    lines += [f"  {q:>2d} {d:>6d} {b:>6d}  {str(e).lower()}" for q, d, b, e in rows]
    csv_rows = [("q", "dim", "bound", "equal")] + rows
    _emit(payload, args.format, lines, csv_rows)
    return EXIT_OK


# ---------------------------------------------------------------------------
# koszul-resonance / chow
# ---------------------------------------------------------------------------

def cmd_koszul_resonance(args) -> int:
    f = _field(args.char)
    if args.n < 3:
        raise CliError("need --n >= 3")
    if args.samples < 1:
        raise CliError("need --samples >= 1")
    if args.budget < 0:
        raise CliError("need --budget >= 0")
    m = args.m if args.m is not None else 2 * args.n - 3
    if not 0 <= m <= comb(args.n, 2):
        raise CliError(f"need 0 <= --m <= dim Wedge^2 V = {comb(args.n, 2)}, "
                       f"got {m}")
    if f.characteristic == 0:
        raise CliError("sampling requires a finite field (char 0 has no "
                       "uniform measure); use a prime characteristic")
    counts = {TRIVIAL: 0, NONTRIVIAL: 0, "unknown": 0}
    per_sample = []
    for s in range(args.samples):
        k = random_koszul_input(args.n, m, f, seed=args.seed * 1_000_003 + s)
        verdict = resonance_trivial(k, budget=args.budget)
        counts[verdict] += 1
        per_sample.append(verdict)
    payload = {"n": args.n, "m": m, "char": f.characteristic,
               "samples": args.samples, "seed": args.seed, "counts": counts,
               "version": __version__}
    lines = [f"resonance sampling n={args.n} m={m} char={f.characteristic} "
             f"samples={args.samples} seed={args.seed}"]
    lines += [f"  {k}: {v}" for k, v in counts.items()]
    csv_rows = [("sample", "verdict")] + list(enumerate(per_sample))
    _emit(payload, args.format, lines, csv_rows)
    return EXIT_OK


def cmd_chow(args) -> int:
    f = _field(args.char)
    if args.n < 3:
        raise CliError("need --n >= 3")
    if args.samples < 1:
        raise CliError("need --samples >= 1")
    if f.characteristic == 0:
        raise CliError("sampling requires a finite field")
    m = 2 * args.n - 3
    members = 0
    disagreements = 0
    for s in range(args.samples):
        k = random_koszul_input(args.n, m, f, seed=args.seed * 1_000_003 + s)
        mem = chow_member(k)
        members += mem
        # cross-check against the resonance verdict when conclusive
        verdict = resonance_trivial(k)
        if verdict != "unknown" and mem != (verdict == NONTRIVIAL):
            disagreements += 1
    payload = {"n": args.n, "m": m, "char": f.characteristic,
               "samples": args.samples, "seed": args.seed,
               "members": members, "disagreements": disagreements,
               "version": __version__}
    lines = [f"Chow membership n={args.n} char={f.characteristic} "
             f"samples={args.samples} seed={args.seed}",
             f"  members: {members}/{args.samples}",
             f"  method disagreements: {disagreements}"]
    csv_rows = [("members", "samples", "disagreements"),
                (members, args.samples, disagreements)]
    _emit(payload, args.format, lines, csv_rows)
    return EXIT_INVARIANT if disagreements else EXIT_OK


# ---------------------------------------------------------------------------
# hermite
# ---------------------------------------------------------------------------

def cmd_hermite(args) -> int:
    f = _field(args.char)
    d, i = args.d, args.i
    if d < 0 or i < 0:
        raise CliError("need --d, --i >= 0")
    pm = psi_map(d, i)
    ok_dim = unitriangular(pm)                  # det psi = +-1 over Z
    okL = okR = True
    if i >= 1 and d >= 1:
        L1, L2 = lowering(pm.source), lowering(pm.target)
        R1, R2 = raising(pm.source), raising(pm.target)
        okL = square_holds(L2.matrix, pm.matrix, pm.matrix, L1.matrix)
        okR = square_holds(R2.matrix, pm.matrix, pm.matrix, R1.matrix)
    ok_compat = psi_compat_check(d, i)
    ok = ok_dim and okL and okR and ok_compat
    payload = {"d": d, "i": i, "char": f.characteristic,
               "bijective": ok_dim, "equivariant": okL and okR,
               "compat_square": ok_compat, "pass": ok, "version": __version__}
    lines = [f"hermite d={d} i={i} char={f.characteristic}: "
             + ("PASS" if ok else "FAIL")]
    if d == 0 and i >= 1:
        img = " ^ ".join(f"x^{e}" if e > 1 else ("x" if e == 1 else "1")
                         for e in pm.target.labels[0].tolist())
        lines.append(f"  1 -> {img}")
    csv_rows = [("d", "i", "char", "pass"), (d, i, f.characteristic, ok)]
    _emit(payload, args.format, lines, csv_rows)
    return EXIT_OK if ok else EXIT_INVARIANT


# ---------------------------------------------------------------------------
# selfcheck
# ---------------------------------------------------------------------------

def _selfcheck_suites(g_max: int):
    from .exactla import GF, QQ, kernel_basis
    from .reps import delta1, wahl_mu1
    from .tangent import (complex_J, compose_symmetrized, _j_gens,
                          hermite_square_check, k_i1, map_p_map, map_q_map)

    def exactla_suite():
        import random as _r
        rng = _r.Random(7)
        for _ in range(20):
            rr, cc = rng.randint(1, 6), rng.randint(1, 6)
            m = ExactMatrix.from_rows([[rng.randint(-4, 4) for _ in range(cc)]
                                       for _ in range(rr)])
            if rank(m, QQ) != rank(m.transpose(), QQ):
                raise AssertionError("rank != rank of transpose")
            if rank(m, QQ) + kernel_basis(m, QQ).cols != cc:
                raise AssertionError("rank-nullity violated")

    def duality_suite():
        for a in range(1, 9):
            if delta1(a).matrix != wahl_mu1(a).matrix.transpose():
                raise AssertionError(f"delta1({a}) is not the transpose of mu1")

    def hermite_suite():
        for total in range(0, 9):
            for d in range(total + 1):
                i = total - d
                if not unitriangular(psi_map(d, i)):
                    raise AssertionError(f"psi({d},{i}) fails its certificate")

    def chain_suite():
        # integer identities: equal over Q means equal mod every p
        for g in range(3, g_max + 1):
            J = complex_J(g)
            for i in range(2, g + 1):
                z = compose_symmetrized(J.differentials[i - 1][(0, 0)],
                                        J.differentials[i][(0, 0)],
                                        _j_gens(g, i - 2), g)
                if not z.is_zero():
                    raise AssertionError(f"dJ^2 != 0 at g={g} i={i} QQ")
            for i in range(0, g - 1):
                if not (map_p_map(g, i + 1).matrix
                        @ map_q_map(g, i).matrix).is_zero():
                    raise AssertionError(f"p o q != 0 at g={g} i={i}")
                if not hermite_square_check(g, i):
                    raise AssertionError(f"hermite square g={g} i={i} QQ")

    def betti_suite():
        for g in range(3, g_max + 1):
            for f in (QQ, GF(5), GF(7)):
                bt = betti_table(g, f)
                if bt.duality_ok is False:
                    raise AssertionError(f"duality fails g={g} {f}")
            for i in range(1, g - 1):
                a = oracle.oracle_kij(g, i, 1, QQ) if g <= 6 else None
                if a is not None and a != k_i1(g, i, QQ):
                    raise AssertionError(f"oracle vs delta2 at g={g} i={i}")

    return [("exactla", exactla_suite), ("wahl-duality", duality_suite),
            ("hermite", hermite_suite), ("chain-maps", chain_suite),
            ("betti", betti_suite)]


def cmd_selfcheck(args) -> int:
    if args.g_max < 3:
        raise CliError("need --g-max >= 3")
    # the betti suite runs last: check its guard before any suite runs
    _check_guard(args.g_max, args, DELTA2_G_MAX)
    suites = _selfcheck_suites(args.g_max)
    failures = []
    lines = []
    for name, fn in suites:
        try:
            fn()
            lines.append(f"{name}: PASS")
        except AssertionError as e:
            lines.append(f"{name}: FAIL  {e}")
            failures.append((name, str(e)))
    failed_names = {n for n, _ in failures}
    payload = {"g_max": args.g_max,
               "suites": [{"name": n, "pass": n not in failed_names}
                          for n, _ in suites],
               "failures": [{"suite": n, "error": e} for n, e in failures],
               "version": __version__}
    _emit(payload, args.format, lines,
          [("suite", "pass")] + [(line.split(":")[0], "FAIL" not in line)
                                 for line in lines])
    return EXIT_INVARIANT if failures else EXIT_OK


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="syzygy",
        description="Exact Koszul-module and tangent-developable computations")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, char=True, seed=False, guard=False):
        """The shared flags, each on the subcommands that read it."""
        if char:
            p.add_argument("--char", type=int, default=0,
                           help="field characteristic (0 = rationals)")
        if seed:
            p.add_argument("--seed", type=int, default=0)
        if guard:
            p.add_argument("--override-guard", action="store_true",
                           help="compute past the resource guard on g")
        p.add_argument("--format", choices=("table", "json", "csv"),
                       default="table")

    p = sub.add_parser("betti", help="Betti table of the tangent developable")
    p.add_argument("--g", type=int, required=True)
    common(p, guard=True)
    p.set_defaults(fn=cmd_betti)

    p = sub.add_parser("betti-oracle", help="brute-force syzygies from the parametrization")
    p.add_argument("--g", type=int, required=True)
    common(p, guard=True)
    p.set_defaults(fn=cmd_betti_oracle)

    p = sub.add_parser("weyman", help="graded dimensions of a Weyman module")
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--q", type=str, default="0..3", help="range A..B")
    common(p)
    p.set_defaults(fn=cmd_weyman)

    p = sub.add_parser("koszul-resonance", help="resonance sampling for random K")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--samples", type=int, default=20)
    p.add_argument("--budget", type=int, default=koszul.DEFAULT_POINT_BUDGET)
    common(p, seed=True)
    p.set_defaults(fn=cmd_koszul_resonance)

    p = sub.add_parser("chow", help="Cayley-Chow membership sampling (m = 2n-3)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--samples", type=int, default=100)
    common(p, seed=True)
    p.set_defaults(fn=cmd_chow)

    p = sub.add_parser("hermite", help="verify the reciprocity isomorphism")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--i", type=int, required=True)
    common(p)
    p.set_defaults(fn=cmd_hermite)

    p = sub.add_parser("selfcheck", help="run the package invariant suites")
    p.add_argument("--g-max", type=int, default=6)
    common(p, char=False, guard=True)
    p.set_defaults(fn=cmd_selfcheck)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return EXIT_INVALID if e.code else EXIT_OK
    try:
        return args.fn(args)
    except CliError as e:
        label = "resource guard" if e.code == EXIT_GUARD else "error"
        sys.stderr.write(f"{label}: {e}\n")
        return e.code
    except (ValueError, OverflowError) as e:     # overflow: an integer flag past ssize_t
        sys.stderr.write(f"error: {e}\n")
        return EXIT_INVALID
    except MemoryError:
        sys.stderr.write("error: out of memory; the job needs more than this process may have\n")
        return EXIT_GUARD


if __name__ == "__main__":
    sys.exit(main())
