"""Tests of the span tracer: wrapping, robustness to deleted targets and
the self-time arithmetic on nested spans."""

import functools
import json
import subprocess
import sys
import types
from pathlib import Path

import pytest

import tracer
from tracer import Tracer, aggregate, self_times

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent


def span(layer, start, end, parent=-1, cells=0, char=-1, error=""):
    return [layer, start, end, parent, cells, char, error]


def test_self_time_subtracts_children():
    spans = [span(0, 0.0, 10.0),
             span(1, 1.0, 4.0, parent=0),
             span(1, 2.0, 3.0, parent=1),     # grandchild: counts against 1 only
             span(1, 5.0, 7.0, parent=0)]
    assert self_times(spans) == pytest.approx([5.0, 2.0, 1.0, 2.0])


def test_self_time_takes_union_of_overlapping_and_clipped_children():
    spans = [span(0, 0.0, 10.0),
             span(1, 1.0, 4.0, parent=0),
             span(1, 3.0, 6.0, parent=0),     # overlaps the first child
             span(1, 9.0, 12.0, parent=0)]    # runs past the parent's end
    assert self_times(spans)[0] == pytest.approx(10.0 - 5.0 - 1.0)


@pytest.fixture
def fake_package():
    """A package `fakepkg` whose `engine` functions mimic exactla's
    dispatch and whose `user` module copies a binding by import."""
    engine = types.ModuleType("fakepkg.engine")

    def rank(m, f):
        return len(m)

    def graded_rank(m, f):
        if not m:
            raise ValueError("not graded")
        return sum(engine.rank([row], f) for row in m)

    @functools.lru_cache(maxsize=None)
    def cached(n):
        return n

    engine.rank, engine.graded_rank, engine.cached = rank, graded_rank, cached
    for fn in (rank, graded_rank, cached):
        fn.__module__ = engine.__name__
    user = types.ModuleType("fakepkg.user")
    user.rank = rank                        # as `from .engine import rank`
    pkg = types.ModuleType("fakepkg")
    pkg.engine, pkg.user = engine, user
    mods = {"fakepkg": pkg, "fakepkg.engine": engine, "fakepkg.user": user}
    sys.modules.update(mods)
    yield engine, user
    for name in mods:
        del sys.modules[name]


def fake_tracer(extra=()):
    field = type("F", (), {"characteristic": 0})
    targets = (("exactla.rank", "fakepkg.engine", "rank", tracer.matrix_field_args),
               ("exactla.graded_rank", "fakepkg.engine", "graded_rank", None),
               ("reps.build", "fakepkg.engine", "cached", None), *extra)
    return Tracer(targets, cache_modules=("fakepkg.engine",)), field


def test_every_binding_is_wrapped(fake_package):
    engine, user = fake_package
    t, field = fake_tracer()
    t.install("fakepkg")
    assert user.rank is engine.rank
    user.rank([[1, 2], [3, 4], [5, 6]], field)
    (s,) = t.spans
    assert t.layers[s[tracer.LAYER]] == "exactla.rank"
    assert s[tracer.CELLS] == 6 and s[tracer.CHAR] == 0


def test_spans_record_parents_errors_and_derived_counts(fake_package, tmp_path):
    engine, _ = fake_package
    t, field = fake_tracer()
    t.install("fakepkg")
    assert engine.graded_rank([[1], [2]], field) == 2
    with pytest.raises(ValueError):
        engine.graded_rank([], field)
    engine.rank([[1]], field)               # the caller's flat fallback
    engine.cached(3)
    engine.cached(3)
    path = tmp_path / "spans.json"
    t.dump(str(path))
    doc = json.loads(path.read_text())
    assert [s[tracer.PARENT] for s in doc["spans"]] == [-1, 0, 0, -1, -1, -1, -1]
    assert doc["caches"] == {"fakepkg.engine": [1, 1]}
    m = aggregate([doc])
    assert m["exactla.graded_rank.calls"] == 2
    assert m["exactla.graded_rank.blocks"] == 2
    assert m["exactla.graded_rank.fallbacks"] == 1
    assert m["exactla.rank.calls"] == 3
    assert m["exactla.char0.ranks"] == 3
    assert m["exactla.char0.cert_ratio"] == 1.0
    assert m["reps.build.calls"] == 2


def test_missing_targets_report_zero(fake_package, tmp_path):
    t, field = fake_tracer(extra=(
        ("exactla.bareiss_py", "fakepkg.engine", "_rank_bareiss_py", None),
        ("hermite.psi_map", "fakepkg.hermite", "psi", None),
        ("oracle.ring_build", "fakepkg.engine:HermiteIso", "_build", None)))
    t.install("fakepkg")
    assert t.missing == ["fakepkg.engine._rank_bareiss_py", "fakepkg.hermite.psi",
                         "fakepkg.engine:HermiteIso._build"]
    fake_package[0].rank([[1]], field)
    path = tmp_path / "spans.json"
    t.dump(str(path))
    m = aggregate([json.loads(path.read_text())])
    names = [name for name, _, _ in tracer.PER_LAYER]
    assert set(m) | {"trace.overhead_s"} == set(names)
    for layer in ("exactla.bareiss_py", "hermite.psi_map", "oracle.ring_build"):
        assert m[f"{layer}.calls"] == 0 and m[f"{layer}.self_s"] == 0
    assert m["exactla.rank.calls"] == 1


def test_launcher_traces_a_real_job(tmp_path):
    env = {"PYTHONPATH": str(ROOT / "src"), "PATH": ""}
    args = ["betti", "--g", "6", "--char", "7", "--format", "json"]
    plain = subprocess.run([sys.executable, "-m", "syzygy.cli", *args],
                           env=env, capture_output=True, timeout=120)
    spans = tmp_path / "spans.json"
    traced = subprocess.run([sys.executable, str(HERE / "launcher.py"),
                             str(spans), "--", *args],
                            env=env, capture_output=True, timeout=120)
    assert traced.returncode == plain.returncode == 0
    assert traced.stdout == plain.stdout
    m = aggregate([json.loads(spans.read_text())])
    assert m["tangent.betti_table.calls"] == 1
    assert m["exactla.gf_f64.calls"] > 0
    assert m["exactla.gf_f64.cells"] > 0
    assert m["exactla.char0.ranks"] == 0


def test_benchmark_json_lists_the_traced_metrics():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] \
        == [tuple(m) for m in tracer.PER_LAYER]
