"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload swim-day --seed 0 --seconds 15 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced execution.  Every metric is printed by name and unit;
the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
non-zero when a correctness check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_args(argv):
    """The benchmark's command line."""
    from perfbench.harness import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def report_lines(result) -> list:
    """Human-readable lines: every metric by name and unit."""
    mode = "traced" if result.traced else "untraced"
    lines = [f"# {result.workload} seed={result.seed} ({mode})"]
    for name, (value, unit) in {**result.metrics, **result.extra}.items():
        lines.append(f"{name:32s} {_fmt(value):>14s} {unit}")
    if result.layer_self:
        wall = sum(result.layer_self.values())
        lines.append("# self time by layer (share of traced wall)")
        for name, value in sorted(result.layer_self.items(), key=lambda kv: -kv[1]):
            lines.append(f"{name:32s} {value:14.4f} s  {100 * value / wall:5.1f}%")
    lines.append(f"failed/attempted {result.failed}/{result.attempted}")
    for failure in result.failures:
        lines.append(f"CHECK FAILED: {failure}")
    return lines


def main(argv=None) -> int:
    """Entry point; returns the process exit code."""
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for path in (ROOT / "src", ROOT):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    # the measured path is the monolithic in-process HiGHS default
    os.environ.pop("REPRO_WORKERS", None)
    os.environ.pop("REPRO_SHARDS", None)

    from perfbench.harness import run_traced, run_untraced

    args = parse_args(argv)
    if args.trace:
        result = run_traced(args.workload, args.seed)
    else:
        result = run_untraced(args.workload, args.seed, args.seconds)
    for line in report_lines(result):
        print(line)
    print(json.dumps(result.summary()))
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
