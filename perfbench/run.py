#!/usr/bin/env python3
"""CLI-job benchmark for `syzygy`.

    python3 perfbench/run.py --workload modp --seed 1 --seconds 45 --trace 0

Runs a workload's fixed list of `syzygy` CLI jobs, one at a time, each in
its own fresh `python -m syzygy.cli ... --format json` process: a closed
loop with one client, paying what a CLI user pays (interpreter and numpy
import, cold caches, then the math).  Every job's stdout must match the
recorded reference byte for byte, apart from the `version` field.

--trace 0 prints the end-to-end metrics; --trace 1 runs the jobs once
untraced and once through `launcher.py`, which times each layer from
outside, and prints the per-layer metrics.  The last stdout line is the
result object; the line before it is the run record.  See README.md.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402

SETUP_LAUNCHES = 12         # `--help` launches; setup_s is their median
TIMEOUT_FACTOR = 3.0        # per-job timeout: factor x reference time + slack
TIMEOUT_SLACK_S = 10.0
RUN_DEADLINE_S = 165.0      # no job starts or runs past this, from start

# p_s of the GF(p_s) Betti jobs: primes in 101..199, all on the float64
# GF(p) engine
MODP_PRIMES = (101, 113, 131, 149, 163, 173, 181, 197)
# CLI --seed values of the resonance jobs.  At n = 6 each sample
# enumerates the points of P(K-perp) up to its first decomposable one (all
# 3906 if there is none), so run time follows the number of points tested.
# Over seeds 1..80 that number ranges from 33,976 to 46,872; every seed
# here tests between 39,916 and 40,367.  At n = 7 every sample is settled
# by one W_4 rank, whatever the seed.
RESONANCE_SEEDS = (35, 21, 43, 1, 6, 75, 48, 71)
HERMITE_CASES = ((6, 6), (5, 7), (7, 5), (6, 7))
# one field per hermite job, every combination of (0, 2, 3, 5, 101); the
# field enters only the final comparison, so every variant costs the same
HERMITE_FIELDS = tuple(itertools.product((0, 2, 3, 5, 101),
                                         repeat=len(HERMITE_CASES)))


def _cli(*args) -> list:
    return [str(a) for a in args] + ["--format", "json"]


def workload_jobs(workload: str, variant: int) -> list:
    """The CLI argument lists of one variant of a workload."""
    if workload == "modp":
        p, s = MODP_PRIMES[variant], RESONANCE_SEEDS[variant]
        return [_cli("betti", "--g", 11, "--char", 3),
                _cli("betti", "--g", 12, "--char", 3),
                _cli("betti", "--g", 11, "--char", p),
                _cli("betti", "--g", 13, "--char", p, "--override-guard"),
                _cli("koszul-resonance", "--n", 6, "--char", 5,
                     "--samples", 12, "--seed", s),
                _cli("koszul-resonance", "--n", 7, "--char", 5,
                     "--samples", 3, "--seed", s)]
    if workload == "exact":
        return [_cli("betti", "--g", g, "--char", 0) for g in (9, 10, 11)] \
            + [_cli("betti-oracle", "--g", g, "--char", 0) for g in (6, 7)] \
            + [_cli("hermite", "--d", d, "--i", i, "--char", char)
               for (d, i), char in zip(HERMITE_CASES, HERMITE_FIELDS[variant])] \
            + [_cli("selfcheck", "--g-max", 7)]
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("modp", "exact")
VARIANT_COUNT = {"modp": len(MODP_PRIMES), "exact": len(HERMITE_FIELDS)}


def job_key(args) -> str:
    return " ".join(args)


_VERSION = re.compile(rb',"version":"[^"]*"')


def strip_version(stdout: bytes) -> bytes:
    return _VERSION.sub(b"", stdout)


def verdict_failure(args, stdout: bytes):
    """The program's own verdict, if it reports a failure, else None."""
    try:
        out = json.loads(stdout)
    except ValueError:
        return "stdout is not JSON"
    cmd = args[0]
    if cmd == "betti" and out.get("char") != 2 and out.get("duality_ok") is not True:
        return "duality_ok is not true"
    if cmd == "hermite" and out.get("pass") is not True:
        return "hermite pass is not true"
    if cmd == "koszul-resonance" and out.get("counts", {}).get("unknown") != 0:
        return "resonance has unknown verdicts"
    if cmd == "selfcheck" and (out.get("failures")
                               or not all(s["pass"] for s in out["suites"])):
        return "selfcheck suite failed"
    return None


def job_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    # the CLI default: betti runs serially unless SYZYGY_THREADS is set
    env.pop("SYZYGY_THREADS", None)
    return env


def run_process(argv, env, timeout: float):
    """Run argv to completion or until `timeout` seconds.  Returns
    (stdout, stderr, exit code, wall seconds, child rusage, timed out)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    chunks = {"out": b"", "err": b""}

    def drain(stream, key):
        chunks[key] = stream.read()

    readers = [threading.Thread(target=drain, args=(proc.stdout, "out")),
               threading.Thread(target=drain, args=(proc.stderr, "err"))]
    for r in readers:
        r.start()
    lock = threading.Lock()
    state = {"reaped": False, "killed": False}

    def kill():
        with lock:
            if not state["reaped"]:
                state["killed"] = True
                proc.kill()

    timer = threading.Timer(max(timeout, 0.0), kill)
    timer.start()
    try:
        # wait4 gives this child's own rusage (max RSS and CPU time)
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:               # interrupted: stop the child first
        timer.cancel()
        proc.kill()
        os.wait4(proc.pid, 0)
        raise
    wall = time.perf_counter() - t0
    with lock:
        state["reaped"] = True
        proc.returncode = os.waitstatus_to_exitcode(status)
    timer.cancel()
    for r in readers:
        r.join()
    proc.stdout.close()
    proc.stderr.close()
    return (chunks["out"], chunks["err"], proc.returncode, wall, usage,
            state["killed"])


class Runner:
    """Runs jobs against the reference, within the run's deadline."""

    def __init__(self, reference: dict, deadline: float, work_dir: Path):
        self.reference = reference
        self.deadline = deadline
        self.work_dir = work_dir
        self.env = job_env()
        self.spans = []             # dumped span files of traced jobs

    def job(self, args, traced: bool) -> dict:
        ref = self.reference["jobs"][job_key(args)]
        timeout = min(TIMEOUT_FACTOR * ref["seconds"] + TIMEOUT_SLACK_S,
                      self.deadline - time.perf_counter())
        rec = {"job": job_key(args), "traced": traced}
        if timeout <= 0:
            return {**rec, "wall_s": 0.0, "rss_mb": 0.0, "cpu_s": 0.0,
                    "exit": None, "ok": False, "reason": "run deadline reached"}
        if traced:
            spans_path = self.work_dir / f"spans-{len(self.spans)}.json"
            argv = [sys.executable, str(HERE / "launcher.py"), str(spans_path),
                    "--", *args]
        else:
            argv = [sys.executable, "-m", "syzygy.cli", *args]
        out, err, code, wall, usage, timed_out = run_process(argv, self.env, timeout)
        reason = None
        if timed_out:
            reason = f"timed out after {timeout:.1f} s"
        elif code != 0:
            reason = f"exit code {code}: {err.decode(errors='replace')[-300:]}"
        elif strip_version(out).decode() != ref["stdout"]:
            reason = "stdout differs from the reference"
        else:
            reason = verdict_failure(args, out)
        if traced and reason is None:
            with open(spans_path) as fh:
                self.spans.append(json.load(fh))
            spans_path.unlink()
        rec.update(wall_s=wall, rss_mb=usage.ru_maxrss / 1024.0,
                   cpu_s=usage.ru_utime + usage.ru_stime, exit=code,
                   ok=reason is None, reason=reason)
        print(f"  {'traced ' if traced else ''}{rec['job']}: {wall:.3f} s, "
              f"{rec['rss_mb']:.0f} MB, cpu {rec['cpu_s']:.2f} s"
              + (f"  FAILED: {reason}" if reason else ""), file=sys.stderr)
        return rec


def setup_launch(env) -> float:
    """Wall time of one fresh `--help` launch: interpreter, import, parser."""
    _, err, code, wall, _, _ = run_process(
        [sys.executable, "-m", "syzygy.cli", "--help"], env, 60.0)
    if code != 0:
        raise RuntimeError(f"`syzygy --help` failed: {err.decode()[-300:]}")
    return wall


def measured_passes(runner, jobs, count: int, setup: list) -> list:
    """`count` untraced passes over `jobs`.  If `setup` is a list, the
    SETUP_LAUNCHES `--help` launches are spread evenly between the jobs
    and their times appended to it, so that setup_s samples the machine
    over the whole run instead of one moment of it."""
    total = count * len(jobs)
    passes = []
    for k in range(count):
        done = []
        for j, args in enumerate(jobs):
            n = k * len(jobs) + j
            if setup is not None:
                for _ in range((n + 1) * SETUP_LAUNCHES // total
                               - n * SETUP_LAUNCHES // total):
                    setup.append(setup_launch(runner.env))
            done.append(runner.job(args, False))
        passes.append(done)
    return passes


_PROBE = r"""
import ctypes, json, platform
import numpy as np
info = {"python": platform.python_version(), "numpy": np.__version__,
        "blas": "unknown", "blas_threads": None}
try:                                    # numpy >= 1.25
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    info["blas"] = f"{blas['name']} {blas.get('version', '')}".strip()
except (TypeError, KeyError):
    pass
# the OpenBLAS library numpy loaded, asked for its thread count
with open("/proc/self/maps") as fh:
    libs = sorted({l.split()[-1] for l in fh if "openblas" in l.lower()})
for lib in libs:
    for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                "openblas_get_num_threads"):
        fn = getattr(ctypes.CDLL(lib), sym, None)
        if fn is not None:
            info["blas_threads"] = fn()
            break
print(json.dumps(info))
"""


def environment(env) -> dict:
    info = {"nproc": len(os.sched_getaffinity(0)),
            "blas_env": {k: v for k, v in env.items()
                         if k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                  "MKL_NUM_THREADS")}}
    out, _, code, _, _, _ = run_process([sys.executable, "-c", _PROBE], env, 60.0)
    if code == 0:
        info.update(json.loads(out))
    info["commit"] = git_commit()
    return info


def git_commit() -> str:
    try:
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True)
    except OSError:
        return "unknown"
    return git.stdout.strip() if git.returncode == 0 else "unknown"


def load_reference(jobs) -> dict:
    with open(REFERENCE) as fh:
        reference = json.load(fh)
    missing = [job_key(a) for a in jobs if job_key(a) not in reference["jobs"]]
    if missing:
        raise RuntimeError(f"no reference output for {missing}")
    return reference


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=45.0,
                    help="measure as many whole passes of the job list as "
                         "fit in this time by the reference times (at least 1)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    start = time.perf_counter()
    # on SIGTERM, unwind so that the running job is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))

    if not (ROOT / "src" / "syzygy" / "cli.py").is_file():
        print(f"error: no syzygy sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    variant = args.seed % VARIANT_COUNT[args.workload]
    jobs = workload_jobs(args.workload, variant)
    try:
        reference = load_reference(jobs)
    except (OSError, ValueError, RuntimeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2

    work_dir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        runner = Runner(reference, start + RUN_DEADLINE_S, work_dir)
        info = environment(runner.env)
        setup = None
        if not args.trace:
            setup_launch(runner.env)    # writes bytecode caches; not timed
            setup = []
        # as many whole passes as fit in --seconds by the reference times,
        # so a run does the same work whatever the program's speed
        pass_s = sum(reference["jobs"][job_key(a)]["seconds"] for a in jobs)
        count = 1 if args.trace else max(1, int(args.seconds // pass_s))
        passes = measured_passes(runner, jobs, count, setup)
        traced = [runner.job(a, True) for a in jobs] if args.trace else []
    except RuntimeError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    records = [r for p in passes for r in p] + traced
    attempted = len(records)
    failed = sum(not r["ok"] for r in records)
    wall = statistics.median(sum(r["wall_s"] for r in p) for p in passes)
    if args.trace:
        layer = tracer.aggregate(runner.spans)
        layer["trace.overhead_s"] = sum(r["wall_s"] for r in traced) - wall
        units = {name: unit for name, unit, _ in tracer.PER_LAYER}
        metrics = {k: {"value": layer[k], "unit": units[k]} for k in units}
    else:
        metrics = {
            "wall_s": {"value": wall, "unit": "s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": max(r["rss_mb"] for r in records),
                            "unit": "MB"},
        }
    record = {"workload": args.workload, "seed": args.seed, "variant": variant,
              "trace": args.trace, "seconds": args.seconds, **info,
              "setup_launches_s": setup, "failed_frac": failed / attempted,
              "jobs": records}
    print(json.dumps({"run_record": record}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
