"""Run one `syzygy` CLI job with the span tracer installed.

    python perfbench/launcher.py SPANS.json -- <syzygy cli arguments>

The job's stdout, stderr and exit code are those of `syzygy.cli.main`;
the spans are written to SPANS.json when the job exits.
"""

import sys

from tracer import Tracer


def main(argv) -> int:
    if len(argv) < 2 or argv[1] != "--":
        sys.stderr.write(__doc__)
        return 2
    import syzygy.cli
    tracer = Tracer()
    tracer.install()
    try:
        code = syzygy.cli.main(argv[2:])
    finally:
        sys.stdout.flush()
        tracer.dump(argv[0])
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
