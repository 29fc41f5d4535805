"""Record what the benchmark checks against and where its time goes.

Usage, from the repository root::

    python3 perfbench/record.py [--seeds 64] [--shares]

Writes ``perfbench/fingerprints.json``: for each size and workload, the
digest (:func:`perfbench.inputs.digest`) of the inputs of every seed below
``--seeds`` (``full``) or below 4 (``tiny``).  Re-record only when a change
to the inputs is intended, and say so: a recorded digest that no longer
matches fails every run of that workload.

With ``--shares``, also runs each workload traced on seed 0 and writes each
layer's share of the traced wall time into ``perfbench/workloads.json``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

TINY_SEEDS = 4


def main(argv=None) -> int:
    """Entry point."""
    for path in (ROOT / "src", ROOT):
        sys.path.insert(0, str(path))
    from perfbench.harness import FINGERPRINTS, WORKLOADS
    from perfbench.inputs import digest, generate

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=64)
    parser.add_argument("--shares", action="store_true")
    args = parser.parse_args(argv)
    table: dict = {}
    for size, seeds in (("full", args.seeds), ("tiny", TINY_SEEDS)):
        for workload in WORKLOADS:
            row = table.setdefault(size, {}).setdefault(workload, {})
            for seed in range(seeds):
                row[str(seed)] = digest(generate(workload, seed, size))
            print(f"{size} {workload}: {seeds} seeds", file=sys.stderr)
    FINGERPRINTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    if args.shares:
        record_shares(WORKLOADS)
    return 0


def record_shares(workloads) -> None:
    """Write each layer's self-time share of a traced seed-0 run."""
    from perfbench.harness import BENCH_DIR, run_traced

    path = BENCH_DIR / "workloads.json"
    doc = json.loads(path.read_text(encoding="utf-8"))
    for workload in workloads:
        result = run_traced(workload, 0)
        if not result.correct:
            raise SystemExit(f"{workload}: {result.failures}")
        wall = result.metrics["trace.wall_s"][0]
        doc[workload]["traced_share"] = {
            layer: round(value / wall, 4)
            for layer, value in sorted(result.layer_self.items(), key=lambda kv: -kv[1])
        }
        doc[workload]["traced_wall_s"] = round(wall, 3)
        print(f"{workload}: traced {wall:.2f} s", file=sys.stderr)
    path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    sys.exit(main())
