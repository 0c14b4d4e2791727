#!/usr/bin/env python3
"""Record the reference output of every job of every workload variant.

    python3 perfbench/record.py

Runs each distinct job once, untraced, and writes its stdout (without the
`version` field) and wall time to reference.json.  Run it only at the
commit the benchmark is anchored to: from then on every job must print
exactly this output, and its timeout is derived from this wall time.  A
job whose own verdict fails is not recorded.
"""

import json
import sys

from run import (REFERENCE, VARIANT_COUNT, WORKLOADS, git_commit, job_env,
                 job_key, run_process, strip_version, verdict_failure,
                 workload_jobs)


def main() -> int:
    env = job_env()
    jobs = {}
    for workload in WORKLOADS:
        for variant in range(VARIANT_COUNT[workload]):
            for args in workload_jobs(workload, variant):
                key = job_key(args)
                if key in jobs:
                    continue
                out, err, code, wall, _, timed_out = run_process(
                    [sys.executable, "-m", "syzygy.cli", *args], env, 900.0)
                failure = ("timed out" if timed_out else
                           f"exit code {code}: {err.decode()[-300:]}" if code
                           else verdict_failure(args, out))
                if failure:
                    print(f"error: {key}: {failure}", file=sys.stderr)
                    return 1
                jobs[key] = {"stdout": strip_version(out).decode(),
                             "seconds": round(wall, 3)}
                print(f"{wall:8.2f} s  {key}", file=sys.stderr)
    with open(REFERENCE, "w") as fh:
        json.dump({"commit": git_commit(), "jobs": jobs},
                  fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
