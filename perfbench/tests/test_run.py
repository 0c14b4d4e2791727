"""Tests of the harness: workload variants, reference lookup and checks."""

import json

import run


def test_every_variant_job_has_a_reference_with_passing_verdicts():
    with open(run.REFERENCE) as fh:
        ref = json.load(fh)["jobs"]
    for workload in run.WORKLOADS:
        for variant in range(run.VARIANT_COUNT[workload]):
            jobs = run.workload_jobs(workload, variant)
            assert jobs == run.workload_jobs(workload, variant)
            for args in jobs:
                entry = ref[run.job_key(args)]
                assert entry["seconds"] > 0
                assert run.verdict_failure(args, entry["stdout"].encode()) is None


def test_strip_version_removes_only_the_version_field():
    out = b'{"g":5,"version":"0.1.0"}\n'
    assert run.strip_version(out) == b'{"g":5}\n'
    assert run.strip_version(b'{"g":5}\n') == b'{"g":5}\n'


def test_verdicts_that_count_as_failures():
    betti = ["betti", "--g", "5", "--char", "3"]
    assert run.verdict_failure(betti, b'{"char":3,"duality_ok":false}') is not None
    assert run.verdict_failure(betti, b'{"char":2,"duality_ok":null}') is None
    assert run.verdict_failure(["hermite"], b'{"pass":false}') is not None
    assert run.verdict_failure(["koszul-resonance"],
                               b'{"counts":{"unknown":1}}') is not None
    assert run.verdict_failure(["selfcheck"],
                               b'{"suites":[{"pass":true}],"failures":[]}') is None
    assert run.verdict_failure(["hermite"], b"not json") is not None


def test_setup_launches_are_spread_evenly_between_the_jobs(monkeypatch):
    order = []
    monkeypatch.setattr(run, "setup_launch",
                        lambda env: order.append("help") or 0.25)

    class Runner:
        env = {}

        def job(self, args, traced):
            order.append(args)
            return {"job": args, "wall_s": 1.0}

    for jobs, count in ((["a", "b", "c"], 2), (list("abcdefghijk"), 1)):
        order.clear()
        setup = []
        passes = run.measured_passes(Runner(), jobs, count, setup)
        assert [[r["job"] for r in p] for p in passes] == [jobs] * count
        assert setup == [0.25] * run.SETUP_LAUNCHES
        # the launches made before each job differ by at most one
        before, n = [], 0
        for item in order:
            if item == "help":
                n += 1
            else:
                before.append(n)
                n = 0
        assert sum(before) == run.SETUP_LAUNCHES
        assert max(before) - min(before) <= 1

    order.clear()
    run.measured_passes(Runner(), ["a"], 3, None)
    assert order == ["a", "a", "a"]
