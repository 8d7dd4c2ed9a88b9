"""Run one benchmark workload and print its result.

    python3 perfbench/run.py --workload cold|warm|churn --seed N \\
        --seconds S --trace 0|1

Run from the root of a checkout: the program is imported from ``src/``
(pure Python, nothing to build).  The last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  The line before it is the run record (seed,
sizes, machine, calibration time), and a readable summary goes to
standard error.  The exit status is 1 when any op failed or returned a
wrong answer, and 2 when the program to measure is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Units of the end-to-end metrics, as declared in BENCHMARK.json.
END_TO_END_UNITS = {
    "p50_ms": "ms",
    "p90_ms": "ms",
    "ops_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
}


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("cold", "warm", "churn"))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return parser.parse_args(argv)


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program to measure under {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    from perfbench import spans, workloads

    # A terminated run still stops its server and removes its files.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))
    work = ROOT / ".perfbench" / f"run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "tmp").mkdir(parents=True)
    # Keep SQLite's and Python's temporary files inside the checkout too;
    # the server subprocess inherits these.
    os.environ["TMPDIR"] = os.environ["SQLITE_TMPDIR"] = str(work / "tmp")
    try:
        outcome = workloads.run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    units = END_TO_END_UNITS if not args.trace else dict(spans.PER_LAYER)
    summary = " ".join(
        f"{name}={value:.6g}" for name, value in outcome.summary.items())
    print(f"{args.workload} seed={args.seed}: {summary}", file=sys.stderr)
    print(json.dumps({"record": outcome.record}))
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": outcome.metrics[name], "unit": unit}
            for name, unit in units.items()
        },
    }))
    return 0 if outcome.failed == 0 else 1


if __name__ == "__main__":
    # Import the package from the checkout, never this directory.
    sys.path[0:1] = [str(ROOT / "src"), str(ROOT)]
    sys.exit(main(sys.argv[1:]))
