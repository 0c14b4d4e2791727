"""Span tracer for the benchmark's traced mode.

It times `syzygy` from outside: `Tracer.install` replaces chosen functions
and methods of the package with wrappers that record one span per call
(layer, start, end, parent span, cells handed in, field characteristic,
exception raised), kept in memory and written out when the job exits.
`aggregate` turns the spans of many jobs into the per-layer metrics.

A target that no longer exists is skipped: its layer reports 0 calls and
0 s instead of raising, so later deletions (the Bareiss engines, the
multi-prime probe, the Hermite wrapper) need no change here.  Leaf
helpers called millions of times (`is_partition`, `pieri`, `normalize`)
are deliberately not targets.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time


def _cells(x) -> int:
    """rows x cols of a matrix argument: an ExactMatrix or ndarray (by
    `shape`) or a list of rows."""
    shape = getattr(x, "shape", None)
    if shape is not None and len(shape) == 2:
        return int(shape[0]) * int(shape[1])
    if isinstance(x, list):
        return len(x) * (len(x[0]) if x else 0)
    return 0


def matrix_arg(args):
    """Probe for engines whose first argument is the matrix."""
    return (_cells(args[0]) if args else 0), -1


def matrix_field_args(args):
    """Probe for `rank(m, f)`-style calls: cells and characteristic."""
    cells = _cells(args[0]) if args else 0
    char = getattr(args[1], "characteristic", -1) if len(args) > 1 else -1
    return cells, char


# (layer, owner, attribute, probe).  The owner is a module, or
# "module:Class" for a method.  Several targets may share one layer.
_REPS_FACTORIES = ("lowering", "raising", "d_to_sym", "mul", "comul",
                   "wahl_mu1", "delta1", "comul2", "koszul_k", "nu",
                   "generic_koszul_delta", "sympow_mul")

TARGETS = (
    ("exactla.gf_f64", "syzygy.exactla", "_rank_gf_f64", matrix_arg),
    ("exactla.gf_int64", "syzygy.exactla", "_rank_gf_int64", matrix_arg),
    ("exactla.gf_sparse", "syzygy.exactla", "_rank_gf_sparse", matrix_arg),
    ("exactla.bareiss", "syzygy.exactla", "_rank_bareiss", matrix_arg),
    ("exactla.bareiss_py", "syzygy.exactla", "_rank_bareiss_py", matrix_arg),
    ("exactla.rank", "syzygy.exactla", "rank", matrix_field_args),
    ("exactla.graded_rank", "syzygy.exactla", "graded_rank", matrix_field_args),
    ("exactla.kernel_basis", "syzygy.exactla", "kernel_basis", matrix_field_args),
    ("exactla.to_dense", "syzygy.exactla:ExactMatrix", "to_dense", None),
    ("exactla.matmul", "syzygy.exactla:ExactMatrix", "__matmul__", None),
    ("exactla.matmul", "syzygy.exactla:ExactMatrix", "kron", None),
    ("exactla.matmul", "syzygy.exactla:ExactMatrix", "equals_mod", None),
    ("partitions.e_to_schur", "syzygy.partitions", "e_to_schur", None),
    ("hermite.psi_map", "syzygy.hermite", "psi_map", None),
    ("hermite.compat_check", "syzygy.hermite", "psi_compat_check", None),
    *(("reps.build", "syzygy.reps", name, None) for name in _REPS_FACTORIES),
    ("reps.rank", "syzygy.reps:RepMap", "rank", None),
    ("koszul.is_decomposable", "syzygy.koszul", "is_decomposable", None),
    ("koszul.resonance", "syzygy.koszul", "resonance_trivial", None),
    ("koszul.w_matrix", "syzygy.koszul", "_w_matrix", None),
    ("koszul.quotient_projection", "syzygy.koszul", "_quotient_projection", None),
    ("koszul.w_dim", "syzygy.koszul", "w_dim", None),
    ("tangent.delta2_map", "syzygy.tangent", "delta2_map", None),
    ("tangent.weyman_input", "syzygy.tangent", "weyman_input", None),
    ("tangent.betti_table", "syzygy.tangent", "betti_table", None),
    # the ring's own arithmetic: its graded basis and products reduced in it
    ("oracle.ring_build", "syzygy.oracle:ParamRing", "_build", None),
    ("oracle.ring_build", "syzygy.oracle:ParamRing", "multiply", None),
    ("oracle.wedge_mult", "syzygy.oracle", "_wedge_mult_matrix", None),
    ("oracle.kij", "syzygy.oracle", "oracle_kij", None),
)

# modules whose own lru_caches give `<module>.cache_hit_ratio`
CACHE_MODULES = ("syzygy.partitions", "syzygy.reps", "syzygy.tangent")

# reported metrics of each layer, in output order
LAYER_METRICS = (
    ("exactla.gf_f64", ("calls", "cells", "self_s")),
    ("exactla.gf_int64", ("calls", "cells", "self_s")),
    ("exactla.gf_sparse", ("calls", "cells", "self_s")),
    ("exactla.bareiss", ("calls", "cells", "self_s")),
    ("exactla.bareiss_py", ("calls", "cells", "self_s")),
    ("exactla.rank", ("calls", "cells", "self_s")),
    ("exactla.graded_rank", ("calls", "self_s")),
    ("exactla.kernel_basis", ("calls", "cells", "self_s")),
    ("exactla.to_dense", ("calls", "self_s")),
    ("exactla.matmul", ("calls", "self_s")),
    ("partitions.e_to_schur", ("calls", "self_s")),
    ("hermite.psi_map", ("calls", "self_s")),
    ("hermite.compat_check", ("calls", "self_s")),
    ("reps.build", ("calls", "self_s")),
    ("reps.rank", ("calls", "self_s")),
    ("koszul.is_decomposable", ("calls", "self_s")),
    ("koszul.resonance", ("calls", "self_s")),
    ("koszul.w_matrix", ("calls", "self_s")),
    ("koszul.quotient_projection", ("calls", "self_s")),
    ("koszul.w_dim", ("calls", "self_s")),
    ("tangent.delta2_map", ("calls", "self_s")),
    ("tangent.weyman_input", ("calls", "self_s")),
    ("tangent.betti_table", ("calls", "self_s")),
    ("oracle.ring_build", ("calls", "self_s")),
    ("oracle.wedge_mult", ("calls", "self_s")),
    ("oracle.kij", ("calls", "self_s")),
)

# (name, unit, better) of every metric `aggregate` returns, plus the
# traced-minus-untraced wall time that the harness adds
_UNITS = {"calls": ("count", "lower"), "cells": ("count", "lower"),
          "self_s": ("s", "lower")}
PER_LAYER = (
    *((f"{layer}.{m}", *_UNITS[m]) for layer, ms in LAYER_METRICS for m in ms),
    ("exactla.graded_rank.blocks", "count", "lower"),
    ("exactla.graded_rank.fallbacks", "count", "lower"),
    ("exactla.char0.ranks", "count", "lower"),
    ("exactla.char0.cert_ratio", "ratio", "higher"),
    *((f"{mod.rsplit('.', 1)[1]}.cache_hit_ratio", "ratio", "higher")
      for mod in CACHE_MODULES),
    ("trace.overhead_s", "s", "lower"),
)

# span fields
LAYER, START, END, PARENT, CELLS, CHAR, ERROR = range(7)


class Tracer:
    """Records one span per call of each installed target."""

    def __init__(self, targets=TARGETS, cache_modules=CACHE_MODULES):
        self.targets = targets
        self.cache_modules = cache_modules
        self.layers = []            # layer names; spans refer to them by index
        self.spans = []
        self.missing = []           # "owner.attribute" of absent targets
        self._caches = {}           # module name -> [lru_cache functions]
        self._local = threading.local()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, layer_id, fn, probe):
        spans = self.spans
        stack_of = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = stack_of()
            cells, char = probe(args) if probe else (0, -1)
            span = [layer_id, time.perf_counter(), 0.0,
                    stack[-1] if stack else -1, cells, char, ""]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            except BaseException as e:
                span[ERROR] = type(e).__name__
                raise
            finally:
                span[END] = time.perf_counter()
                stack.pop()
        return traced

    def install(self, package: str = "syzygy"):
        """Wrap every target, in every module of `package` that binds it."""
        for module_name in self.cache_modules:
            module = _import(module_name)
            if module is not None:
                self._caches[module_name] = _own_caches(module)
        for layer, owner, attr, probe in self.targets:
            module_name, _, class_name = owner.partition(":")
            holder = _import(module_name)
            if holder is not None and class_name:
                holder = vars(holder).get(class_name)
            original = vars(holder).get(attr) if holder is not None else None
            if original is None:
                self.missing.append(f"{owner}.{attr}")
                continue
            if layer not in self.layers:
                self.layers.append(layer)
            wrapper = self._wrap(self.layers.index(layer), original, probe)
            if class_name:
                setattr(holder, attr, wrapper)
                continue
            # `from .exactla import rank` copies the binding: rebind all
            for name, module in list(sys.modules.items()):
                if module is None or not (name == package
                                          or name.startswith(package + ".")):
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)

    def cache_stats(self):
        """{module: [hits, misses]} summed over the module's lru_caches."""
        out = {}
        for module_name, fns in self._caches.items():
            infos = [fn.cache_info() for fn in fns]
            out[module_name] = [sum(i.hits for i in infos),
                                sum(i.misses for i in infos)]
        return out

    def dump(self, path: str):
        with open(path, "w") as fh:
            json.dump({"layers": self.layers, "spans": self.spans,
                       "caches": self.cache_stats(),
                       "missing": self.missing}, fh, separators=(",", ":"))


def _import(name: str):
    try:
        return importlib.import_module(name)
    except ImportError:
        return None


def _own_caches(module):
    """lru_cache'd functions defined in `module`, including class-level
    ones such as `@classmethod @lru_cache` factories."""
    found = []
    for value in vars(module).values():
        candidates = [value]
        if isinstance(value, type) and value.__module__ == module.__name__:
            candidates = [getattr(v, "__func__", v) for v in vars(value).values()]
        for fn in candidates:
            if (hasattr(fn, "cache_info")
                    and getattr(fn, "__module__", None) == module.__name__):
                found.append(fn)
    return found


def self_times(spans):
    """Each span's duration minus the part of its interval that its child
    spans cover (children are clipped to the parent and may overlap)."""
    children = {}
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            children.setdefault(s[PARENT], []).append(i)
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        hi = s[START]
        for a, b in sorted((max(spans[c][START], s[START]),
                            min(spans[c][END], s[END])) for c in children.get(i, ())):
            a = max(a, hi)
            if b > a:
                covered += b - a
                hi = b
        out.append(s[END] - s[START] - covered)
    return out


def aggregate(docs):
    """Per-layer metrics summed over the dumped span files of many jobs.

    Every metric of `PER_LAYER` except `trace.overhead_s` is present,
    with 0 for layers that never ran or no longer exist.
    """
    acc = {f"{layer}.{m}": 0 for layer, ms in LAYER_METRICS for m in ms}
    blocks = fallbacks = char0 = settled = 0
    hits = {mod: [0, 0] for mod in CACHE_MODULES}
    for doc in docs:
        names, spans = doc["layers"], doc["spans"]
        for s, self_s in zip(spans, self_times(spans)):
            layer = names[s[LAYER]]
            for m, v in (("calls", 1), ("cells", s[CELLS]), ("self_s", self_s)):
                if f"{layer}.{m}" in acc:
                    acc[f"{layer}.{m}"] += v
        # a char-0 rank is settled by its certificate when no Bareiss
        # span runs beneath it
        bareiss_under = set()
        for s in spans:
            if names[s[LAYER]] in ("exactla.bareiss", "exactla.bareiss_py"):
                p = s[PARENT]
                while p >= 0 and names[spans[p][LAYER]] != "exactla.rank":
                    p = spans[p][PARENT]
                bareiss_under.add(p)
        for i, s in enumerate(spans):
            layer = names[s[LAYER]]
            if layer == "exactla.graded_rank" and s[ERROR] == "ValueError":
                fallbacks += 1
            elif layer == "exactla.rank":
                if s[PARENT] >= 0 and names[spans[s[PARENT]][LAYER]] == "exactla.graded_rank":
                    blocks += 1
                if s[CHAR] == 0:
                    char0 += 1
                    settled += i not in bareiss_under
        for mod, (h, m) in doc["caches"].items():
            if mod in hits:
                hits[mod][0] += h
                hits[mod][1] += m
    acc["exactla.graded_rank.blocks"] = blocks
    acc["exactla.graded_rank.fallbacks"] = fallbacks
    acc["exactla.char0.ranks"] = char0
    acc["exactla.char0.cert_ratio"] = settled / char0 if char0 else 0.0
    for mod, (h, m) in hits.items():
        acc[f"{mod.rsplit('.', 1)[1]}.cache_hit_ratio"] = h / (h + m) if h + m else 0.0
    return acc
