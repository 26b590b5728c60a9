"""qmoments benchmark: one workload, one seed, timed or traced.

Usage, from the repository root:

    python3 perfbench/run.py --workload random-all --seed 3 --seconds 35 --trace 0

The program is imported from ``src/`` of the checkout this file sits in;
without it the benchmark exits with code 2.  ``--trace 0`` repeats
closed-loop passes with nothing wrapped, each in a fresh child process, and
reports the end-to-end metrics in reference seconds (wall seconds scaled by
a host-speed probe taken around every suite call); ``--trace 1`` alternates
plain passes with traced passes over the same inputs and reports the
per-layer metrics.  Every report is checked against
``perfbench/expected/<workload>.json``; on any mismatch the run reports no
timings and exits with code 1.  The last line of standard output is one JSON
object; the lines above it give every metric by name with its unit.  A record
of the run (and, when traced, its spans) is written to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def _fail(message: str) -> None:
    print(f"benchmark: {message}", file=sys.stderr)
    sys.exit(2)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "qmoments" / "__init__.py").is_file():
        _fail(f"no program source at {SRC / 'qmoments'}")
    sys.path[:0] = [str(SRC), str(HERE)]
    import qmoments

    if Path(qmoments.__file__).resolve().parent != (SRC / "qmoments").resolve():
        _fail(f"imported qmoments from {qmoments.__file__}, not {SRC}")
    import bench
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    return bench.main(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
