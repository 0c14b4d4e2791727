"""Which state outlives a job: the memoized factories of `syzygy`, the
delta2 maps a Betti table builds, and the memory they leave behind."""

import gc
import importlib
import inspect
import pkgutil
import re
import tracemalloc

import pytest

import syzygy
from syzygy import tangent
from syzygy.exactla import GF, QQ, ExactMatrix
from syzygy.hermite import psi_map
from syzygy.reps import RepMap
from syzygy.tangent import betti_table, weyman_dim

# Every memoized function of the package, with the job that reads it back.
# A cache joins this list only with a measured reader.
KEPT_CACHES = {
    # cheap spaces, which keep the keys of the map caches stable
    "reps.RepSpace.sym", "reps.RepSpace.div", "reps.RepSpace.wedge",
    "reps.RepSpace.free",
    "exactla._prime_below",          # every char-0 rank, from its first prime on
    "reps.nu",                       # every psi, p of the chain and Hermite squares
    "reps.sympow_mul",               # the selfcheck chain and Hermite squares
    "reps.lowering",                 # read again by `raising`
    "reps.generic_koszul_delta",     # koszul, again for every sample
    "hermite.psi_map",               # the maps asked for, re-read by the Hermite squares
    "koszul._chow_kernel",           # chow, once per sample
    "oracle._ring",                  # oracle_kij, once per (i, j)
    "tangent._delta2_dims",          # row 2 reads the ranks of row 1
    "tangent._j_gens",
    "tangent.map_q_map",
}

_CACHE_DECORATOR = re.compile(r"\blru_cache\b|\bfunctools\.cache\b|@cache\b")


def _modules():
    for info in pkgutil.iter_modules(syzygy.__path__):
        yield info.name, importlib.import_module(f"syzygy.{info.name}")


def _caches(module):
    """The memoized functions defined in `module`, at module level or in
    one of its classes, by qualified name."""
    found = set()
    for value in vars(module).values():
        candidates = [value]
        if isinstance(value, type) and value.__module__ == module.__name__:
            candidates = [getattr(v, "__func__", v) for v in vars(value).values()]
        for fn in candidates:
            if hasattr(fn, "cache_info") and fn.__module__ == module.__name__:
                found.add(fn.__qualname__)
    return found


def test_cache_inventory():
    found = set()
    for name, module in _modules():
        mine = _caches(module)
        # a cache that introspection cannot reach (say, in a closure)
        # still shows as a decorator in the source
        decorators = len(_CACHE_DECORATOR.findall(inspect.getsource(module)))
        assert decorators == len(mine), (name, decorators, sorted(mine))
        found |= {f"{name}.{q}" for q in mine}
    assert found == KEPT_CACHES


def _live_delta2_maps(g):
    return [o for o in gc.get_objects()
            if isinstance(o, RepMap) and o.name.startswith(f"delta2({g},")]


def test_betti_table_frees_every_delta2_map():
    tangent._delta2_dims.cache_clear()
    gc.collect()
    tracemalloc.start()
    try:
        bt = betti_table(12, GF(5))
        gc.collect()
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert bt.duality_ok
    assert not _live_delta2_maps(12)
    # what stays: the cached ranks and modules imported on first use
    assert held < 4 * 2**20, held


def test_psi_map_keeps_only_the_map_asked_for():
    # psi(200, 1) is built from every psi(k, 1), k < 200, and keeps none
    # of them: cached, their source labels held 21.7 MB
    psi_map.cache_clear()
    gc.collect()
    tracemalloc.start()
    try:
        psi_map(200, 1)
        gc.collect()
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert psi_map.cache_info().currsize == 1
    assert held < 4 * 2**20, held / 2**20


@pytest.fixture
def built(monkeypatch):
    """The names of the maps that `tangent` builds, from a cold rank cache."""
    names = []

    def spy(source, target, image, name):
        names.append(name)
        return build(source, target, image, name)

    build = tangent._build
    monkeypatch.setattr(tangent, "_build", spy)
    tangent._delta2_dims.cache_clear()
    yield names
    tangent._delta2_dims.cache_clear()


@pytest.mark.parametrize("g, f", [(6, QQ), (8, GF(3)), (9, GF(101))])
def test_betti_table_builds_each_delta2_once(built, g, f):
    betti_table(g, f)
    assert sorted(built) == sorted(f"delta2({g},{i})" for i in range(1, g - 1))


def test_betti_table_builds_nothing_in_characteristic_two(built):
    betti_table(9, GF(2))
    assert built == []


def test_weyman_dim_builds_one_map_per_q(built):
    for q in range(5):
        weyman_dim(5, q, GF(3))
    assert built == [f"delta2({5 + q + 1},4)" for q in range(5)]


@pytest.mark.parametrize("entries, fails", [({(1, 2): 6}, True), ({}, False)])
def test_selfcheck_chain_suite_compares_with_zero(monkeypatch, entries, fails):
    """dJ o dJ is compared with the zero matrix of its shape: an entry 6
    fails over Q, the field the suite checks first."""
    from syzygy import cli

    monkeypatch.setattr(tangent, "compose_symmetrized",
                        lambda outer, inner, gens_out, g: ExactMatrix(2, 3, entries))
    chain = dict(cli._selfcheck_suites(3))["chain-maps"]
    if fails:
        with pytest.raises(AssertionError, match=r"dJ\^2 != 0 at g=3 i=2 Q"):
            chain()
    else:
        chain()


def test_selfcheck_chain_suite_builds_each_delta2_once(built):
    """The chain suite checks integer identities once, over Q: each
    delta2 map of its Hermite squares is built once, not once per field."""
    from syzygy import cli

    dict(cli._selfcheck_suites(5))["chain-maps"]()
    assert sorted(n for n in built if n.startswith("delta2(")) == sorted(
        f"delta2({g},{i})" for g in range(3, 6) for i in range(g - 1))
