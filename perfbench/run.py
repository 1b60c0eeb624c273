"""Benchmark of the fs -> rrw -> ae -> evaluate chain, driven through the CLI.

    python3 perfbench/run.py --workload {distill,compress,wide} --seed N \
        --seconds S --trace {0,1}

Run it from the repository root: the program is imported from ``src``.
With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics (wall_s, cpu_s, peak_rss_mb, setup_s); with
``--trace 1`` it holds the per-layer metrics of one traced round.  Every
metric is also printed by name with its unit before that line.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import signal
import sys
from pathlib import Path

import harness
from layers import UNITS, per_layer
from workloads import WORKLOADS

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "midistill" / "__init__.py").is_file():
        print(f"no src/midistill under {root}: run from the repository root",
              file=sys.stderr)
        return 2
    workdir = root / ".perfbench" / f"{args.workload}-{os.getpid()}"
    result = harness.run(root, WORKLOADS[args.workload], args.seed, args.seconds,
                         bool(args.trace), workdir)

    if args.trace:
        overhead = result.traced_wall_s - result.rounds[0].wall_s
        values, absent = per_layer(result.trace, root / "src", overhead)
        units = UNITS
        if absent:
            print("absent (target no longer exists, reads 0): " + ", ".join(absent))
    else:
        values, units = harness.end_to_end(result), END_TO_END_UNITS
    for name, value in values.items():
        print(f"{name:32s} {value:>16.6f} {units[name]}")
    for failure in result.failures:
        print(f"FAILED: {failure}")
    print("round wall_s: " + " ".join(f"{r.wall_s:.3f}" for r in result.rounds))
    print(f"operations {result.attempted}, failed {len(result.failures)}")
    print(json.dumps({
        "correct": not any(f.startswith(harness.CHECK_PREFIX) for f in result.failures),
        "attempted": result.attempted,
        "failed": len(result.failures),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))
    if not result.failures:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # another run may still use it
            workdir.parent.rmdir()
    return 0


if __name__ == "__main__":
    # a terminated run unwinds, so the child it waits for is killed too
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    sys.exit(main())
