"""``python -m repro bench`` — the epoch-LP pipeline benchmark.

Times four things on a deterministic epoch-loop scenario (the Figure 8
testbed shape: paper machines, two long jobs sized to span several epochs):

* **warm simplex** — the epoch loop on the from-scratch simplex, which
  warm-starts every epoch from the previous basis.  A recording backend
  keeps each epoch's assembled model and its warm solve time;
* **cold re-solves** — every kept model solved again by a fresh
  ``SimplexBackend()`` and by ``HighsBackend()``.  Comparing solves of
  identical models is what keeps the gates sound: two epoch *loops* on
  different backends drift apart once alternative optima feed later
  epochs' inputs;
* **HiGHS loop** — the production backend's epoch loop wall (reported,
  not gated);
* **sweep throughput** — a small figure-5 grid run serially and through
  the process-pool path (reported, not gated: single-core CI boxes show
  no speedup by construction);
* **scaling sweep** (``--scaling``) — epoch solve time and simulator
  event throughput at 20/100/500/1000 machines, appended as one
  ``repro.bench-history/1`` row per size (reported, not gated).

The regression gate requires the warm solves to take no longer than the
cold simplex re-solves, every kept model's warm objective to agree with
both cold re-solves within ``REL_TOL``, and the parallel sweep to equal
the serial one.
Results are written as JSON (schema ``repro.bench/1``, documented in the
README's Benchmarks section) and mirrored into ``bench.*`` gauges when a
metrics registry is active.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.cluster.builder import ClusterBuilder, build_paper_testbed, paper_topology
from repro.cluster.ec2 import ec2_instance
from repro.core.epoch import EpochController
from repro.obs.registry import current_registry
from repro.workload.job import DataObject, Job, Workload

#: warm and cold solves of one model must agree to this relative tolerance
REL_TOL = 1e-7

#: JSON schema identifier written into every benchmark file
SCHEMA = "repro.bench/1"

#: JSONL schema identifier for the append-only history file
HISTORY_SCHEMA = "repro.bench-history/1"

#: machine counts of the ``--scaling`` sweep
SCALING_MACHINES = (20, 100, 500, 1000)


def history_row(doc: dict) -> dict:
    """Flatten a ``repro.bench/1`` document into one history JSONL row.

    The row carries a real UTC timestamp plus the headline numbers, so an
    append-only ``BENCH_history.jsonl`` charts performance over time
    without retaining full documents.
    """
    import datetime

    return {
        "schema": HISTORY_SCHEMA,
        "ts": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"
        ),
        "kind": "bench",
        "quick": doc["quick"],
        "machines": doc["scenario"]["machines"],
        "epochs": doc["cold"]["epochs"],
        "cold_solve_s": doc["cold"]["solve_s"],
        "incremental_solve_s": doc["incremental"]["solve_s"],
        "speedup": doc["speedup"],
        "highs_cold_wall_s": doc["highs"]["cold_wall_s"],
        "highs_solve_s": doc["highs"]["solve_s"],
        "sweep_serial_points_per_s": doc["sweep"]["serial_points_per_s"],
        "sweep_parallel_points_per_s": doc["sweep"]["parallel_points_per_s"],
        "gate_ok": doc["gate"]["ok"],
    }


def scaling_history_rows(doc: dict) -> list:
    """One ``kind: "scaling"`` history row per cluster size measured.

    Scaling runs chart a curve rather than a headline number, so each
    size gets its own timestamped row alongside the main ``kind: "bench"``
    row — consumers filter on ``kind``.
    """
    import datetime

    ts = datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds")
    return [
        {"schema": HISTORY_SCHEMA, "ts": ts, "kind": "scaling", **row}
        for row in doc.get("scaling") or ()
    ]


def append_history(doc: dict, path) -> dict:
    """Append the document's history row(s) to the JSONL file at ``path``.

    Always appends the flattened headline row; when the document carries a
    scaling sweep, one ``kind: "scaling"`` row per cluster size follows.
    """
    row = history_row(doc)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(row, separators=(",", ":")) + "\n")
        for extra in scaling_history_rows(doc):
            fh.write(json.dumps(extra, separators=(",", ":")) + "\n")
    return row


def build_scenario(quick: bool = False) -> Tuple[object, Workload, float, dict]:
    """The benchmark scenario: ``(cluster, workload, epoch_length, meta)``.

    Two jobs sized so the workload spans several epochs of the paper
    testbed — each epoch's LP is structurally identical to the last, which
    is exactly the shape simplex warm starts exploit.
    """
    machines = 12 if quick else 20
    epochs_target = 8 if quick else 10
    epoch_length = 60.0
    cluster = build_paper_testbed(machines, c1_medium_fraction=0.5, seed=0)
    capacity = float(np.sum(cluster.throughput_vector())) * epoch_length
    total_cpu = capacity * epochs_target * 0.9
    jobs, data = [], []
    for i in range(2):
        size_mb = 200.0
        cpu = total_cpu / 2
        data.append(
            DataObject(
                data_id=i,
                name=f"d{i}",
                size_mb=size_mb,
                origin_store=i % cluster.num_stores,
            )
        )
        jobs.append(
            Job(job_id=i, name=f"j{i}", tcp=cpu / size_mb, data_ids=[i], num_tasks=32)
        )
    meta = {
        "machines": machines,
        "jobs": len(jobs),
        "epoch_length_s": epoch_length,
        "epochs_target": epochs_target,
    }
    return cluster, Workload(jobs=jobs, data=data), epoch_length, meta


def _block_testbed(machines: int, n_stores: int, seed: int = 0):
    """A paper-style testbed whose data stores sit on only ``n_stores`` nodes.

    ``build_paper_testbed`` co-locates a store with *every* machine, which
    makes the online model's transfer-variable count grow with
    ``machines**2`` — fine at testbed sizes, needlessly huge for the
    scaling profile.  Concentrating the stores keeps the model at
    ``O(stores * machines)``.
    """
    rng = np.random.default_rng(seed)
    builder = ClusterBuilder(topology=paper_topology())
    zones = builder.topology.zone_names()
    kinds = ["c1.medium"] * (machines // 2) + ["m1.medium"] * (machines - machines // 2)
    rng.shuffle(kinds)
    for i, kind in enumerate(kinds):
        it = ec2_instance(kind)
        builder.add_machine(
            name=f"{it.name}-{i:03d}",
            ecu=it.ecu,
            cpu_cost=it.cpu_cost_per_ecu_second(float(rng.uniform())),
            zone=zones[i % len(zones)],
            map_slots=max(1, it.cpus * 2),
            reduce_slots=max(1, it.cpus),
            memory_gb=it.memory_gb,
            instance_type=it.name,
            with_store=(i < n_stores),
            store_capacity_mb=it.storage_gb * 1024,
        )
    return builder.build()


def build_block_scenario(
    machines: int, n_jobs: int = 8, epochs_target: int = 3, util: float = 0.9
) -> Tuple[object, Workload, float, dict]:
    """A block-structured epoch scenario at ``machines`` nodes.

    ``n_jobs`` jobs each read their own data object, so the epoch LP has
    one block per job coupled only through machine capacity.  Total work
    is ``util`` of cluster capacity over ``epochs_target`` epochs.
    """
    epoch_length = 60.0
    cluster = _block_testbed(machines, n_stores=n_jobs)
    capacity = float(np.sum(cluster.throughput_vector())) * epoch_length
    total_cpu = capacity * epochs_target * util
    jobs, data = [], []
    for i in range(n_jobs):
        size_mb = 200.0
        data.append(
            DataObject(
                data_id=i,
                name=f"d{i}",
                size_mb=size_mb,
                origin_store=i % cluster.num_stores,
            )
        )
        jobs.append(
            Job(
                job_id=i,
                name=f"j{i}",
                tcp=(total_cpu / n_jobs) / size_mb,
                data_ids=[i],
                num_tasks=32,
            )
        )
    meta = {
        "machines": machines,
        "jobs": n_jobs,
        "stores": n_jobs,
        "epoch_length_s": epoch_length,
        "epochs_target": epochs_target,
        "utilization": util,
    }
    return cluster, Workload(jobs=jobs, data=data), epoch_length, meta


def _timed_epoch_loop(cluster, workload, epoch_length, backend):
    """Run the epoch loop once; returns (wall_s, objectives, controller)."""
    controller = EpochController(
        cluster, epoch_length, backend=backend, keep_solutions=True
    )
    t0 = time.perf_counter()
    result = controller.run(workload)
    wall = time.perf_counter() - t0
    objectives = [r.solution.objective for r in result.reports]
    return wall, objectives, controller


class _RecordingBackend:
    """Delegates warm solves, keeping each model, its objective and time."""

    supports_warm_start = True

    def __init__(self, inner) -> None:
        self.inner = inner
        self.name = inner.name
        self.models: list = []
        self.objectives: list = []
        self.solve_s: list = []

    def solve_assembled(self, asm, warm=None):  # lint: ok=AST005
        """Time one solve; the inner backend does the lpprof recording."""
        t0 = time.perf_counter()
        result = self.inner.solve_assembled(asm, warm=warm)
        self.solve_s.append(time.perf_counter() - t0)
        self.models.append(asm)
        self.objectives.append(result.objective)
        return result


def _resolve(backend, models) -> Tuple[float, list]:
    """Solve each model cold; returns (total solve seconds, objectives)."""
    total, objectives = 0.0, []
    for asm in models:
        t0 = time.perf_counter()
        objectives.append(backend.solve_assembled(asm).objective)
        total += time.perf_counter() - t0
    return total, objectives


def _agreement(ref: Sequence[float], other: Sequence[float]) -> dict:
    """Per-model relative objective deltas and whether all are within
    ``REL_TOL`` (a NaN from a failed solve disagrees)."""
    deltas = [abs(a - b) / max(1.0, abs(a)) for a, b in zip(ref, other)]
    return {
        "rel_objective_deltas": deltas,
        "max_rel_objective_delta": max(deltas, default=0.0),
        "ok": all(d <= REL_TOL for d in deltas),
    }


def _bench_simplex(cluster, workload, epoch_length) -> dict:
    """Warm simplex epoch loop, its models re-solved cold on both backends."""
    from repro.lp.scipy_backend import HighsBackend
    from repro.lp.simplex import SimplexBackend

    recorder = _RecordingBackend(SimplexBackend())
    loop_wall, _, controller = _timed_epoch_loop(
        cluster, workload, epoch_length, recorder
    )
    warm_s = sum(recorder.solve_s)
    cold_s, cold_obj = _resolve(SimplexBackend(), recorder.models)
    highs_s, highs_obj = _resolve(HighsBackend(), recorder.models)
    highs_loop_wall, _, _ = _timed_epoch_loop(
        cluster, workload, epoch_length, HighsBackend()
    )
    epochs = len(recorder.models)
    return {
        "cold": {"solve_s": cold_s, "epochs": epochs},
        "incremental": {
            "solve_s": warm_s,
            "loop_wall_s": loop_wall,
            "epochs": epochs,
            "stats": controller.warm_context.stats(),
        },
        "speedup": cold_s / warm_s if warm_s > 0 else float("inf"),
        "equivalence": {
            **_agreement(cold_obj, recorder.objectives),
            "tolerance": REL_TOL,
        },
        "highs": {
            "cold_wall_s": highs_loop_wall,
            "solve_s": highs_s,
            **_agreement(highs_obj, recorder.objectives),
        },
    }


def _bench_sweep(quick: bool, workers: Optional[int]) -> dict:
    """Figure-5 grid throughput, serial vs the process-pool path."""
    from repro.experiments.fig5_simulated_savings import run
    from repro.experiments.parallel import resolve_workers

    sizes = ((50, 4, 4), (100, 5, 5)) if quick else ((100, 5, 5), (200, 10, 10))
    seeds = (0, 1)
    t0 = time.perf_counter()
    serial = run(sizes=sizes, seeds=seeds, workers=0)
    serial_wall = time.perf_counter() - t0
    n = resolve_workers(workers)
    pool_workers = n if n > 1 else 2
    t0 = time.perf_counter()
    parallel = run(sizes=sizes, seeds=seeds, workers=pool_workers)
    parallel_wall = time.perf_counter() - t0
    match = bool(
        np.allclose(serial.reductions, parallel.reductions, rtol=0, atol=0)
    )
    points = len(sizes) * len(seeds)
    return {
        "points": points,
        "workers": pool_workers,
        "serial_wall_s": serial_wall,
        "parallel_wall_s": parallel_wall,
        "serial_points_per_s": points / serial_wall if serial_wall > 0 else 0.0,
        "parallel_points_per_s": points / parallel_wall if parallel_wall > 0 else 0.0,
        "results_identical": match,
    }


def _bench_scaling(sizes: Sequence[int] = SCALING_MACHINES) -> list:
    """Epoch solve time and simulator event throughput per cluster size.

    Each size runs the block scenario's epoch loop on the production
    HiGHS backend, then the block-level Hadoop simulator under LiPS, and
    reports seconds per epoch solve plus simulator events per wall second.
    """
    from repro.hadoop.sim import HadoopSimulator, SimConfig
    from repro.lp.scipy_backend import HighsBackend
    from repro.schedulers.lips import LipsScheduler

    rows = []
    for machines in sizes:
        cluster, workload, epoch_length, _meta = build_block_scenario(
            machines, n_jobs=8, epochs_target=2
        )
        solve_wall, objectives, _ = _timed_epoch_loop(
            cluster, workload, epoch_length, HighsBackend()
        )
        sim = HadoopSimulator(
            cluster,
            workload,
            LipsScheduler(epoch_length=epoch_length, backend=HighsBackend()),
            SimConfig(placement_seed=0, speculative=False),
        )
        t0 = time.perf_counter()
        sim.run()
        sim_wall = time.perf_counter() - t0
        events = sim.events.processed
        rows.append(
            {
                "machines": machines,
                "epochs": len(objectives),
                "epoch_solve_s": solve_wall / max(1, len(objectives)),
                "solve_wall_s": solve_wall,
                "sim_wall_s": sim_wall,
                "events": events,
                "events_per_s": events / sim_wall if sim_wall > 0 else 0.0,
            }
        )
    return rows


def run_bench(
    quick: bool = False,
    workers: Optional[int] = None,
    scaling: bool = False,
) -> dict:
    """Run the full benchmark; returns the ``repro.bench/1`` document.

    ``scaling`` adds the ungated multi-size sweep.
    """
    cluster, workload, epoch_length, meta = build_scenario(quick)
    simplex = _bench_simplex(cluster, workload, epoch_length)
    sweep = _bench_sweep(quick, workers)
    scaling_rows = _bench_scaling() if scaling else None
    gate_checks = {
        "incremental_not_slower": bool(
            simplex["incremental"]["solve_s"] <= simplex["cold"]["solve_s"]
        ),
        "objectives_match": simplex["equivalence"]["ok"],
        "highs_objectives_match": simplex["highs"]["ok"],
        "sweep_results_identical": sweep["results_identical"],
    }
    doc = {
        "schema": SCHEMA,
        "quick": quick,
        "scenario": meta,
        **simplex,
        "sweep": sweep,
        "scaling": scaling_rows,
        "gate": {"ok": all(gate_checks.values()), "checks": gate_checks},
    }
    registry = current_registry()
    if registry is not None:
        registry.gauge(
            "bench.cold_solve_s", help="cold simplex re-solves of the loop's models"
        ).set(simplex["cold"]["solve_s"])
        registry.gauge(
            "bench.incremental_solve_s", help="warm simplex solves in the epoch loop"
        ).set(simplex["incremental"]["solve_s"])
        registry.gauge("bench.speedup", help="cold/warm solve-time ratio").set(
            simplex["speedup"]
        )
    return doc


def build_bench_parser() -> argparse.ArgumentParser:
    """Parser for the ``python -m repro bench`` subcommand."""
    parser = argparse.ArgumentParser(
        prog="repro bench",
        description="Benchmark the warm-started simplex epoch loop against "
        "cold simplex and HiGHS re-solves of the same models, and the "
        "parallel sweep path against serial.  Writes a repro.bench/1 "
        "JSON document and exits 1 when the regression gate fails.",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="smoke-test sizes (12 machines, ~8 epochs) for CI",
    )
    parser.add_argument(
        "--out",
        metavar="PATH",
        default="BENCH_epoch.json",
        help="output JSON path (default BENCH_epoch.json)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="process-pool size for the sweep-throughput section "
        "(default: REPRO_WORKERS, else 2)",
    )
    parser.add_argument(
        "--scaling",
        action="store_true",
        help="run the 20/100/500/1000-machine scaling sweep (epoch solve "
        "time + simulator events/s) and append one history row per size",
    )
    parser.add_argument(
        "--history",
        metavar="PATH",
        default="BENCH_history.jsonl",
        help="append a timestamped repro.bench-history/1 row to this JSONL "
        "file (default BENCH_history.jsonl; --no-history disables)",
    )
    parser.add_argument(
        "--no-history",
        action="store_true",
        help="skip the history append",
    )
    parser.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help="write a structured JSONL trace of the benchmarked epoch "
        "loops to PATH",
    )
    parser.add_argument(
        "--metrics",
        metavar="PATH",
        default=None,
        help="write a JSON metrics-registry dump (bench.* gauges included) "
        "to PATH",
    )
    return parser


def main(argv: Sequence[str]) -> int:
    """Entry point for ``python -m repro bench``."""
    import contextlib

    args = build_bench_parser().parse_args(list(argv))
    with contextlib.ExitStack() as stack:
        if args.trace:
            from repro.obs.trace import Tracer, use_tracer

            try:
                tracer = stack.enter_context(Tracer.to_path(args.trace))
            except OSError as exc:
                print(f"cannot write trace {args.trace!r}: {exc}", file=sys.stderr)
                return 2
            stack.enter_context(use_tracer(tracer))
        registry = None
        if args.metrics:
            from repro.obs.registry import MetricsRegistry, use_registry

            registry = MetricsRegistry()
            stack.enter_context(use_registry(registry))
        doc = run_bench(
            quick=args.quick,
            workers=args.workers,
            scaling=args.scaling,
        )
        if registry is not None:
            registry.write_json(args.metrics)
            print(f"wrote {args.metrics}")
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    if not args.no_history:
        append_history(doc, args.history)
        print(f"appended {args.history}")
    eq = doc["equivalence"]
    print(
        f"simplex epoch loop ({doc['scenario']['machines']} machines, "
        f"{doc['cold']['epochs']} epochs): "
        f"warm solves {doc['incremental']['solve_s']:.2f}s, "
        f"cold re-solves {doc['cold']['solve_s']:.2f}s "
        f"({doc['speedup']:.2f}x), "
        f"max rel obj delta {eq['max_rel_objective_delta']:.2e}"
    )
    print(
        f"highs: loop {doc['highs']['cold_wall_s']:.2f}s, "
        f"re-solves {doc['highs']['solve_s']:.2f}s, "
        f"max rel obj delta vs warm {doc['highs']['max_rel_objective_delta']:.2e}"
    )
    print(
        f"sweep: {doc['sweep']['points']} points, "
        f"serial {doc['sweep']['serial_wall_s']:.2f}s, "
        f"parallel[{doc['sweep']['workers']}] "
        f"{doc['sweep']['parallel_wall_s']:.2f}s"
    )
    for row in doc.get("scaling") or ():
        print(
            f"scaling[{row['machines']:>4} machines]: "
            f"epoch solve {row['epoch_solve_s']:.3f}s, "
            f"{row['events']} events at {row['events_per_s']:.0f} ev/s"
        )
    print(f"wrote {args.out}")
    if not doc["gate"]["ok"]:
        failed = [k for k, v in doc["gate"]["checks"].items() if not v]
        print(f"bench gate FAILED: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0
