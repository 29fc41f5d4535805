"""Command-line entry point: regenerate any paper table or figure.

Usage::

    python -m repro tables            # Tables I, III, IV
    python -m repro fig1              # break-even curves
    python -m repro fig5 --full       # paper-scale simulated savings
    python -m repro fig6 fig7         # 20-node cost / exec-time sweep
    python -m repro all               # everything (reduced sizes)
    python -m repro fig8 --trace t.jsonl   # + structured JSONL trace
    python -m repro report t.jsonl    # per-epoch / per-solve tables
    python -m repro lint              # static analysis: code + LP models
    python -m repro bench --quick     # warm vs cold epoch-LP benchmark
    python -m repro serve --sim       # crash-tolerant service soak
    python -m repro serve --sim --live-port 8377   # + live HTTP telemetry
    python -m repro top http://127.0.0.1:8377      # live dashboard
    python -m repro fig5 --workers 4  # fan sweeps over worker processes

``--full`` switches to the paper's full experiment sizes (equivalent to
``REPRO_FULL=1`` for the benchmark suite).  ``--trace``/``--metrics``
stream observability data from every simulation the experiments run (see
:mod:`repro.obs`).
"""

from __future__ import annotations

import argparse
import contextlib
import sys
from typing import Callable, Dict, List, Optional, Sequence


def _run_tables(full: bool, csv_dir=None) -> None:
    from repro.experiments import tables

    tables.main([], full=full, csv_dir=csv_dir)


def _run_fig1(full: bool, csv_dir=None) -> None:
    from repro.experiments import fig1_breakeven

    fig1_breakeven.main()


def _run_fig5(full: bool, csv_dir=None) -> None:
    from repro.experiments.export import export_all
    from repro.experiments.fig5_simulated_savings import PAPER_SIZES, SMALL_SIZES, run
    from repro.experiments.report import format_table

    res = run(sizes=PAPER_SIZES if full else SMALL_SIZES)
    rows = [
        (f"J:{j} S:{s} M:{m}", f"{lp:.4f}", f"{d:.4f}", f"{100*r:.1f}%")
        for (j, s, m), lp, d, r in zip(res.sizes, res.lp_costs, res.default_costs, res.reductions)
    ]
    print(
        format_table(
            ["problem size", "LiPS $", "default $", "cost reduction"],
            rows,
            title="Figure 5 — cost reduction vs problem size",
        )
    )
    if csv_dir:
        for p in export_all(csv_dir, fig5=res):
            print(f"wrote {p}")


def _run_fig6(full: bool, csv_dir=None) -> None:
    from repro.experiments import fig6_cost_reduction

    fig6_cost_reduction.main()


def _run_fig7(full: bool, csv_dir=None) -> None:
    from repro.experiments import fig7_exec_time

    fig7_exec_time.main()


def _run_fig8(full: bool, csv_dir=None) -> None:
    from repro.experiments import fig8_epoch_tradeoff

    fig8_epoch_tradeoff.main()


def _run_fig9(full: bool, csv_dir=None) -> None:
    from repro.experiments.fig9_100node_cost import fig9_rows, fig10_rows, run
    from repro.experiments.report import format_table

    params = {} if full else dict(num_nodes=40, num_jobs=120, duration_s=6 * 3600.0)
    res = run(**params)
    print(
        format_table(
            ["setting", "default $", "delay $", "LiPS $", "vs default", "vs delay"],
            fig9_rows(res),
            title="Figure 9 — total dollar cost",
        )
    )
    print()
    print(
        format_table(
            ["setting", "default s", "delay s", "LiPS s", "LiPS vs delay"],
            fig10_rows(res),
            title="Figure 10 — total job execution time",
        )
    )
    if csv_dir:
        from repro.experiments.export import export_all

        for p in export_all(csv_dir, fig9=res):
            print(f"wrote {p}")


def _run_fig10(full: bool, csv_dir=None) -> None:
    _run_fig9(full, csv_dir)


def _run_fig11(full: bool, csv_dir=None) -> None:
    from repro.experiments import fig11_cpu_breakdown

    fig11_cpu_breakdown.main()


def _run_fairness(full: bool, csv_dir=None) -> None:
    from repro.experiments import exp_fairness

    exp_fairness.main()


def _run_check(full: bool, csv_dir=None) -> int:
    from repro.experiments import check

    return check.main()


def _run_interference(full: bool, csv_dir=None) -> None:
    from repro.experiments import exp_interference

    exp_interference.main()


def _run_frontier(full: bool, csv_dir=None) -> None:
    from repro.experiments import exp_deadline

    if csv_dir:
        from repro.experiments.export import export_all

        frontier = exp_deadline.run()
        for p in export_all(csv_dir, frontier=frontier):
            print(f"wrote {p}")
    exp_deadline.main()


#: experiment runners; a nonzero return (a failed ``check`` claim) becomes
#: the process exit code
COMMANDS: Dict[str, Callable[..., Optional[int]]] = {
    "tables": _run_tables,
    "fig1": _run_fig1,
    "fig5": _run_fig5,
    "fig6": _run_fig6,
    "fig7": _run_fig7,
    "fig8": _run_fig8,
    "fig9": _run_fig9,
    "fig10": _run_fig10,
    "fig11": _run_fig11,
    "fairness": _run_fairness,
    "frontier": _run_frontier,
    "interference": _run_interference,
    "check": _run_check,
}


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse parser for ``python -m repro``."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate the LiPS paper's tables and figures.",
    )
    parser.add_argument(
        "experiments",
        nargs="+",
        metavar="EXPERIMENT",
        help=f"one or more of: {', '.join(COMMANDS)}, or 'all'",
    )
    parser.add_argument(
        "--full",
        action="store_true",
        help="run at the paper's full experiment sizes (slower)",
    )
    parser.add_argument(
        "--csv",
        metavar="DIR",
        default=None,
        help="also write result CSVs to DIR (supported: tables, fig5, fig9/fig10, frontier)",
    )
    parser.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help="write a structured JSONL trace of every simulation to PATH "
        "(inspect with 'python -m repro report PATH')",
    )
    parser.add_argument(
        "--metrics",
        metavar="PATH",
        default=None,
        help="write a JSON metrics-registry dump of every simulation to PATH",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="fan experiment sweeps out over N worker processes "
        "(equivalent to REPRO_WORKERS=N; 0/1 = serial, the default)",
    )
    add_live_port_flag(parser)
    add_solver_flags(parser)
    return parser


def add_live_port_flag(parser: argparse.ArgumentParser) -> None:
    """Attach the shared --live-port flag (see repro.obs.live)."""
    parser.add_argument(
        "--live-port",
        type=int,
        default=None,
        metavar="PORT",
        help="serve live telemetry (/metrics, /healthz, /slo, /trace, "
        "/statusz) on 127.0.0.1:PORT while running; 0 picks a free port "
        "(printed).  Watch with 'python -m repro top'",
    )


def start_live_plane(stack: contextlib.ExitStack, port: int):
    """Start the live telemetry endpoint; returns the plane (server managed
    by ``stack``).  Prints the bound URL so ``repro top`` can be pointed at
    it even when ``port`` was 0."""
    from repro.obs.live import LiveTelemetryPlane, LiveTelemetryServer

    plane = LiveTelemetryPlane()
    server = stack.enter_context(LiveTelemetryServer(plane, port=port))
    print(f"live telemetry on {server.url}")
    return plane


def add_solver_flags(parser: argparse.ArgumentParser) -> None:
    """Attach the shared LP-resilience flags (see repro.resilience)."""
    group = parser.add_argument_group("solver resilience")
    group.add_argument(
        "--solver-timeout",
        type=float,
        metavar="SECONDS",
        default=None,
        help="per-solve wall-clock budget; a timed-out solve is retried, "
        "then handed to the next backend",
    )
    group.add_argument(
        "--solver-retries",
        type=int,
        metavar="N",
        default=None,
        help="perturbed re-attempts per backend on numerical failure or "
        "timeout (default 2 when resilience is enabled)",
    )
    group.add_argument(
        "--solver-fallback",
        action="store_true",
        help="fall back from HiGHS to the from-scratch simplex backend "
        "when a solve fails",
    )


def install_resilient_solver(args) -> Optional[object]:
    """Honour the solver-resilience flags by swapping the default backend.

    Returns the previous default backend when a swap happened (restore it
    with :func:`repro.lp.set_default_backend`), else ``None``.
    """
    if (
        args.solver_timeout is None
        and args.solver_retries is None
        and not args.solver_fallback
    ):
        return None
    from repro.lp import HighsBackend, SimplexBackend, set_default_backend
    from repro.resilience import ResilientSolver

    backends: List[object] = [HighsBackend()]
    if args.solver_fallback:
        backends.append(SimplexBackend())
    solver = ResilientSolver(
        backends,
        timeout_s=args.solver_timeout,
        max_retries=2 if args.solver_retries is None else args.solver_retries,
    )
    return set_default_backend(solver)


def build_report_parser() -> argparse.ArgumentParser:
    """Parser for the ``python -m repro report`` subcommand."""
    parser = argparse.ArgumentParser(
        prog="repro report",
        description="Render per-epoch/per-machine/per-solve tables from a "
        "JSONL trace written with --trace.",
    )
    parser.add_argument("path", metavar="TRACE", help="JSONL trace file")
    parser.add_argument(
        "--limit",
        type=int,
        default=40,
        metavar="N",
        help="max rows in the LP solve table (default 40)",
    )
    parser.add_argument(
        "--chrome",
        metavar="OUT",
        default=None,
        help="also convert the trace to Chrome trace-event JSON at OUT "
        "(load in chrome://tracing or https://ui.perfetto.dev)",
    )
    return parser


def _run_report(argv: Sequence[str]) -> int:
    import json

    from repro.obs.export import load_jsonl, write_chrome_trace
    from repro.obs.report import render

    args = build_report_parser().parse_args(argv)
    try:
        print(render(args.path, limit=args.limit))
        if args.chrome:
            write_chrome_trace(load_jsonl(args.path), args.chrome)
            print(f"wrote {args.chrome}")
    except OSError as exc:
        print(f"cannot read trace {args.path!r}: {exc}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(f"not a JSONL trace: {args.path!r} ({exc})", file=sys.stderr)
        return 2
    return 0


def build_lint_parser() -> argparse.ArgumentParser:
    """Parser for the ``python -m repro lint`` subcommand."""
    parser = argparse.ArgumentParser(
        prog="repro lint",
        description="Static analysis: repo-specific AST rules over source "
        "trees plus a structural linter over the paper's LP models "
        "(no solver runs).  Exits 1 when any finding is reported.",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        metavar="PATH",
        help="files/directories for the AST pass (default: the installed "
        "repro package source)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format (default text)",
    )
    parser.add_argument(
        "--no-models",
        action="store_true",
        help="skip the LP model lint (AST pass only)",
    )
    parser.add_argument(
        "--flow",
        action="store_true",
        help="run the whole-program flow analyzer (determinism / "
        "concurrency / units passes) instead of the per-module rules",
    )
    parser.add_argument(
        "--entry",
        action="append",
        metavar="SPEC",
        help="entry-point spec for --flow reachability (dotted suffix, e.g. "
        "HadoopSimulator.run); repeatable, defaults to the simulation/solve "
        "roots",
    )
    parser.add_argument(
        "--baseline",
        metavar="FILE",
        default="FLOW_BASELINE.json",
        help="flow baseline file (default FLOW_BASELINE.json in the current "
        "directory; a missing file is an empty baseline)",
    )
    parser.add_argument(
        "--write-baseline",
        action="store_true",
        help="with --flow: write current findings to the baseline file "
        "(reasons stubbed for human review) instead of reporting them",
    )
    return parser


def _run_lint_flow(args) -> int:
    from pathlib import Path

    from repro.lint import render_text
    from repro.lint.flow import analyze_paths, write_baseline
    from repro.lint.flow.baseline import BaselineError
    from repro.lint.flow.engine import DEFAULT_ENTRY_POINTS
    from repro.lint.runner import default_source_paths

    paths = [Path(p) for p in args.paths] if args.paths else default_source_paths()
    entries = tuple(args.entry) if args.entry else DEFAULT_ENTRY_POINTS
    baseline = Path(args.baseline)
    if args.write_baseline:
        report = analyze_paths(paths, entry_points=entries)
        count = write_baseline(report.findings, baseline)
        print(f"wrote {count} entr(y/ies) to {baseline} — fill in the reasons")
        return 0
    try:
        report = analyze_paths(paths, entry_points=entries, baseline=baseline)
    except BaselineError as exc:
        print(f"bad baseline: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        print(report.to_json())
    else:
        if report.findings:
            print(render_text(report.findings))
        for entry in report.stale:
            print(
                f"stale baseline entry: {entry.rule} {entry.path} "
                f"{entry.symbol or '<any>'} — matched nothing, delete it"
            )
        print(f"flow: {report.summary()}")
    return 0 if report.ok else 1


def _run_lint(argv: Sequence[str]) -> int:
    from pathlib import Path

    from repro.lint import findings_to_json, lint_paths, lint_repo_models, render_text
    from repro.lint.runner import default_source_paths

    args = build_lint_parser().parse_args(argv)
    if args.flow:
        return _run_lint_flow(args)
    paths = [Path(p) for p in args.paths] if args.paths else default_source_paths()
    findings = lint_paths(paths)
    if not args.no_models:
        findings.extend(lint_repo_models())
    print(findings_to_json(findings) if args.format == "json" else render_text(findings))
    return 1 if findings else 0


def build_chaos_parser() -> argparse.ArgumentParser:
    """Parser for the ``python -m repro chaos`` subcommand."""
    parser = argparse.ArgumentParser(
        prog="repro chaos",
        description="Chaos soak: run seeded fault storms (machine outages, "
        "stragglers, inter-AZ partitions, store read errors, optional "
        "solver sabotage) against the simulator and the online epoch "
        "controller, then check post-run invariants.  Exits 1 on any "
        "violation.",
    )
    parser.add_argument(
        "--seeds",
        type=int,
        nargs="+",
        default=[0, 1, 2],
        metavar="SEED",
        help="seeds to soak (default: 0 1 2); each seed fully determines "
        "its cluster, workload and fault plan",
    )
    parser.add_argument("--machines", type=int, default=6, help="cluster size (default 6)")
    parser.add_argument("--jobs", type=int, default=6, help="workload size (default 6)")
    parser.add_argument(
        "--epoch", type=float, default=120.0, metavar="SECONDS", help="epoch length"
    )
    parser.add_argument(
        "--horizon",
        type=float,
        default=3000.0,
        metavar="SECONDS",
        help="span chaos windows are drawn inside (default 3000)",
    )
    parser.add_argument(
        "--mttf",
        type=float,
        default=3000.0,
        metavar="SECONDS",
        help="mean time to machine failure; 0 disables outages (default 3000)",
    )
    parser.add_argument(
        "--force-primary-failure",
        action="store_true",
        help="make every primary-backend solve fail (exercises the "
        "fallback chain end to end)",
    )
    parser.add_argument(
        "--force-all-failure",
        action="store_true",
        help="make the whole backend chain fail (exercises degraded-mode "
        "greedy epochs)",
    )
    parser.add_argument(
        "--solver-timeout",
        type=float,
        metavar="SECONDS",
        default=None,
        help="per-solve wall-clock budget inside the soak's solver chain",
    )
    parser.add_argument(
        "--solver-retries",
        type=int,
        metavar="N",
        default=1,
        help="perturbed re-attempts per backend (default 1)",
    )
    parser.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help="write a structured JSONL trace of every soaked run to PATH",
    )
    parser.add_argument(
        "--metrics",
        metavar="PATH",
        default=None,
        help="write a JSON metrics-registry dump of the soak to PATH",
    )
    return parser


def _run_chaos(argv: Sequence[str]) -> int:
    from repro.experiments.report import format_table
    from repro.resilience import ChaosSoakConfig, run_chaos_soak, soak_summary

    args = build_chaos_parser().parse_args(argv)
    force = "none"
    if args.force_all_failure:
        force = "all"
    elif args.force_primary_failure:
        force = "primary"
    config = ChaosSoakConfig(
        seeds=tuple(args.seeds),
        num_machines=args.machines,
        num_jobs=args.jobs,
        epoch_length=args.epoch,
        horizon_s=args.horizon,
        force=force,
        mean_time_to_failure_s=args.mttf,
        solver_timeout_s=args.solver_timeout,
        solver_retries=args.solver_retries,
    )
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
        outcomes = run_chaos_soak(config)
        if registry is not None:
            registry.write_json(args.metrics)
            print(f"wrote {args.metrics}")
    rows = [
        (
            str(o.seed),
            str(o.faults_planned),
            f"{o.chaos_faults_injected:.0f}",
            f"{o.solver_failures:.0f}",
            f"{o.solver_fallbacks:.0f}",
            f"{o.epochs_degraded:.0f}",
            f"{o.makespan:.0f}",
            "OK" if o.ok else f"{len(o.violations)} VIOLATIONS",
        )
        for o in outcomes
    ]
    print(
        format_table(
            ["seed", "planned", "injected", "solver fail", "fallbacks",
             "degraded", "makespan s", "invariants"],
            rows,
            title=f"chaos soak — force={force}",
        )
    )
    for o in outcomes:
        for v in o.violations:
            print(f"seed {o.seed}: {v}", file=sys.stderr)
    summary = soak_summary(outcomes)
    print(
        f"{int(summary['seeds'])} seeds, "
        f"{summary['chaos_faults_injected']:.0f} faults injected, "
        f"{int(summary['violations'])} invariant violations"
    )
    return 0 if all(o.ok for o in outcomes) else 1


def build_serve_parser() -> argparse.ArgumentParser:
    """Parser for the ``python -m repro serve`` subcommand."""
    parser = argparse.ArgumentParser(
        prog="repro serve",
        description="Service-mode soak: run the crash-tolerant scheduling "
        "service (admission control, health watchdog, WAL + snapshots) "
        "against hours of simulated multi-submitter arrivals with chaos "
        "windows and mid-run kill/recover cycles, then gate on the serve "
        "invariant oracle and byte-identical ledger recovery.  Exits 1 on "
        "any violation.",
    )
    parser.add_argument(
        "--sim",
        action="store_true",
        help="run in simulated time (required: the only clock this "
        "reproduction has)",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI-sized soak: smaller cluster/workload, same >=2h sim-time "
        "gate (sim time is cheap; LP solves are what cost wall time)",
    )
    parser.add_argument("--seed", type=int, default=0, help="soak seed (default 0)")
    parser.add_argument(
        "--hours",
        type=float,
        default=None,
        metavar="H",
        help="simulated soak horizon in hours (default 2.5)",
    )
    parser.add_argument(
        "--min-hours",
        type=float,
        default=2.0,
        metavar="H",
        help="sim-time floor the soak must sustain (default 2.0)",
    )
    parser.add_argument(
        "--machines", type=int, default=None, help="cluster size (default 6; quick 4)"
    )
    parser.add_argument(
        "--submitters",
        type=int,
        default=None,
        help="concurrent submitters feeding the merged arrival stream "
        "(default 3; quick 2)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="jobs per submitter (default 24; quick 10)",
    )
    parser.add_argument(
        "--epoch", type=float, default=60.0, metavar="SECONDS", help="epoch length"
    )
    parser.add_argument(
        "--kill",
        type=int,
        nargs="+",
        default=None,
        metavar="TICK",
        help="kill the victim run after these cumulative scheduler ticks "
        "(default: one kill at tick 12; quick: tick 8)",
    )
    parser.add_argument(
        "--no-chaos",
        action="store_true",
        help="disable the chaos plan (no solver-fail or LP-lag windows)",
    )
    parser.add_argument(
        "--deadline",
        type=float,
        default=0.75,
        metavar="SECONDS",
        help="per-epoch LP deadline the watchdog enforces (default 0.75)",
    )
    parser.add_argument(
        "--workdir",
        metavar="DIR",
        default=None,
        help="directory for WAL, snapshots and traces (default: a fresh "
        "temporary directory)",
    )
    parser.add_argument(
        "--metrics",
        metavar="PATH",
        default=None,
        help="write a JSON metrics-registry dump of the soak to PATH",
    )
    add_live_port_flag(parser)
    return parser


def _run_serve(argv: Sequence[str]) -> int:
    import tempfile
    from pathlib import Path

    from repro.experiments.report import format_table
    from repro.serve import ServeSoakConfig, run_serve_soak

    args = build_serve_parser().parse_args(argv)
    if not args.sim:
        print(
            "repro serve only supports simulated time: pass --sim "
            "(there is no real cluster behind this reproduction)",
            file=sys.stderr,
        )
        return 2
    quick = args.quick
    config = ServeSoakConfig(
        seed=args.seed,
        num_machines=args.machines if args.machines is not None else (4 if quick else 6),
        num_submitters=args.submitters
        if args.submitters is not None
        else (2 if quick else 3),
        jobs_per_submitter=args.jobs if args.jobs is not None else (10 if quick else 24),
        sim_hours=args.hours if args.hours is not None else (2.25 if quick else 2.5),
        epoch_length=args.epoch,
        kill_after_epochs=tuple(args.kill)
        if args.kill is not None
        else ((8,) if quick else (12,)),
        chaos=not args.no_chaos,
        epoch_deadline_s=args.deadline,
    )
    if args.workdir is not None:
        work_dir = Path(args.workdir)
    else:
        work_dir = Path(tempfile.mkdtemp(prefix="repro-serve-"))
    with contextlib.ExitStack() as stack:
        registry = None
        if args.metrics:
            from repro.obs.registry import MetricsRegistry, use_registry

            registry = MetricsRegistry()
            stack.enter_context(use_registry(registry))
        plane = None
        if args.live_port is not None:
            from repro.obs.live import TelemetryError

            try:
                plane = start_live_plane(stack, args.live_port)
            except TelemetryError as exc:
                print(str(exc), file=sys.stderr)
                return 2
        outcome = run_serve_soak(
            config, work_dir, min_sim_hours=args.min_hours, plane=plane
        )
        if registry is not None:
            registry.write_json(args.metrics)
            print(f"wrote {args.metrics}")
    rows = [
        ("sim time", f"{outcome.sim_time_s / 3600.0:.2f} h ({outcome.epochs} epochs)"),
        ("kill/recover cycles", str(outcome.kills)),
        (
            "jobs",
            f"{outcome.submitted} submitted, {outcome.admitted} admitted, "
            f"{outcome.shed} shed, {outcome.completed} completed",
        ),
        (
            "watchdog",
            f"{outcome.deadline_misses} deadline misses, "
            f"{outcome.degraded_epochs} degraded epochs, "
            f"{outcome.transitions} transitions",
        ),
        (
            "recovery",
            f"{outcome.snapshots} snapshots, {outcome.replayed_records} WAL "
            f"records replayed, max drift {outcome.max_replay_drift:.1e}",
        ),
        (
            "ledger",
            "byte-identical to reference"
            if outcome.ledger_identical
            else "DIFFERS from reference",
        ),
        *(
            [(
                "live plane",
                f"{outcome.rolling_reconciliations} rolling reconciliations, "
                f"max residual {outcome.max_rolling_residual:.1e}, "
                f"tap dropped {outcome.tap_dropped}",
            )]
            if args.live_port is not None
            else []
        ),
        ("total cost", f"${outcome.total_cost:.4f}"),
        ("makespan", f"{outcome.makespan:.0f} s"),
        (
            "invariants",
            "OK" if outcome.ok else f"{len(outcome.violations)} VIOLATIONS",
        ),
    ]
    print(
        format_table(
            ["stat", "value"],
            rows,
            title=f"serve soak — seed {outcome.seed}, workdir {work_dir}",
        )
    )
    for violation in outcome.violations:
        print(f"VIOLATION: {violation}", file=sys.stderr)
    return 0 if outcome.ok else 1


def build_diff_parser() -> argparse.ArgumentParser:
    """Parser for the ``python -m repro diff`` subcommand."""
    parser = argparse.ArgumentParser(
        prog="repro diff",
        description="Compare two JSONL traces (written with --trace) for "
        "cost, makespan, critical-path and LP-iteration regressions.  "
        "Exits 1 when a gated stat grew past its threshold.",
    )
    parser.add_argument(
        "base", nargs="?", metavar="BASE", help="baseline trace (JSONL)"
    )
    parser.add_argument(
        "candidate", nargs="?", metavar="CANDIDATE", help="candidate trace (JSONL)"
    )
    parser.add_argument(
        "--threshold-cost",
        type=float,
        metavar="FRAC",
        default=None,
        help="relative total-cost increase gate (default 0.05)",
    )
    parser.add_argument(
        "--threshold-makespan",
        type=float,
        metavar="FRAC",
        default=None,
        help="relative makespan increase gate (default 0.10)",
    )
    parser.add_argument(
        "--threshold-lp-iterations",
        type=float,
        metavar="FRAC",
        default=None,
        help="relative LP-iteration increase gate (default 0.50)",
    )
    parser.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help="also write the comparison as JSON to PATH",
    )
    parser.add_argument(
        "--emit-smoke-traces",
        metavar="DIR",
        default=None,
        help="instead of diffing, write the CI smoke trio (base/same/slow "
        "traces of a tiny deterministic scenario) into DIR",
    )
    return parser


def _run_diff(argv: Sequence[str]) -> int:
    import json

    from repro.obs.diff import diff_traces, emit_smoke_traces
    from repro.obs.export import load_jsonl

    args = build_diff_parser().parse_args(argv)
    if args.emit_smoke_traces:
        for path in emit_smoke_traces(args.emit_smoke_traces).values():
            print(f"wrote {path}")
        return 0
    if not args.base or not args.candidate:
        print("diff needs BASE and CANDIDATE traces (or --emit-smoke-traces)",
              file=sys.stderr)
        return 2
    thresholds = {}
    if args.threshold_cost is not None:
        thresholds["total_cost"] = args.threshold_cost
    if args.threshold_makespan is not None:
        thresholds["makespan"] = args.threshold_makespan
    if args.threshold_lp_iterations is not None:
        thresholds["lp_iterations"] = args.threshold_lp_iterations
    try:
        base = load_jsonl(args.base)
        candidate = load_jsonl(args.candidate)
    except OSError as exc:
        print(f"cannot read trace: {exc}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(f"not a JSONL trace ({exc})", file=sys.stderr)
        return 2
    result = diff_traces(base, candidate, thresholds=thresholds)
    print(f"base:      {args.base}")
    print(f"candidate: {args.candidate}")
    print(result.render())
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(result.to_dict(), fh, indent=2)
        print(f"wrote {args.json}")
    return 0 if result.ok else 1


def build_top_parser() -> argparse.ArgumentParser:
    """Parser for the ``python -m repro top`` subcommand."""
    parser = argparse.ArgumentParser(
        prog="repro top",
        description="Live dashboard over a running --live-port endpoint: "
        "service state, epochs/s, cost/s, backlog, SLO budget meters and "
        "solve-latency quantiles, refreshed in place.",
    )
    parser.add_argument(
        "url",
        nargs="?",
        default="http://127.0.0.1:8377",
        metavar="URL",
        help="telemetry endpoint base URL (default http://127.0.0.1:8377)",
    )
    parser.add_argument(
        "--interval",
        type=float,
        default=1.0,
        metavar="SECONDS",
        help="refresh interval (default 1.0)",
    )
    parser.add_argument(
        "--iterations",
        type=int,
        default=None,
        metavar="N",
        help="stop after N frames (default: run until Ctrl-C)",
    )
    parser.add_argument(
        "--no-clear",
        action="store_true",
        help="append frames instead of clearing the screen (logs, CI)",
    )
    return parser


def _run_top(argv: Sequence[str]) -> int:
    from repro.obs.top import run_top

    args = build_top_parser().parse_args(argv)
    return run_top(
        args.url,
        interval=args.interval,
        iterations=args.iterations,
        clear=not args.no_clear,
    )


#: Subcommands with their own flags (dispatched on ``argv[0]`` before the
#: experiment parser, so they never collide with experiment names).  New
#: subcommands register here instead of special-casing :func:`main`.
def _run_bench(argv: Sequence[str]) -> int:
    from repro.perf.bench import main as bench_main

    return bench_main(argv)


SUBCOMMANDS: Dict[str, Callable[[Sequence[str]], int]] = {
    "report": _run_report,
    "lint": _run_lint,
    "chaos": _run_chaos,
    "bench": _run_bench,
    "diff": _run_diff,
    "serve": _run_serve,
    "top": _run_top,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] in SUBCOMMANDS:
        return SUBCOMMANDS[argv[0]](list(argv[1:]))
    args = build_parser().parse_args(argv)
    wanted: List[str] = []
    for name in args.experiments:
        if name == "all":
            wanted.extend(COMMANDS)
        elif name in COMMANDS:
            wanted.append(name)
        else:
            print(
                f"unknown experiment {name!r}; choose from: "
                f"{', '.join(COMMANDS)}, all, {', '.join(SUBCOMMANDS)}",
                file=sys.stderr,
            )
            return 2
    with contextlib.ExitStack() as stack:
        if args.workers is not None:
            import os

            previous = os.environ.get("REPRO_WORKERS")
            os.environ["REPRO_WORKERS"] = str(args.workers)
            stack.callback(
                lambda: os.environ.pop("REPRO_WORKERS", None)
                if previous is None
                else os.environ.__setitem__("REPRO_WORKERS", previous)
            )
        previous_backend = install_resilient_solver(args)
        if previous_backend is not None:
            from repro.lp import set_default_backend

            stack.callback(set_default_backend, previous_backend)
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
        if args.live_port is not None:
            from repro.obs.live import TelemetryError
            from repro.obs.registry import MetricsRegistry, use_registry
            from repro.obs.trace import Tracer, use_tracer

            try:
                plane = start_live_plane(stack, args.live_port)
            except TelemetryError as exc:
                print(str(exc), file=sys.stderr)
                return 2
            if registry is None:
                # no --metrics: scrape a plane-owned ambient registry
                registry_for_plane = MetricsRegistry()
                stack.enter_context(use_registry(registry_for_plane))
                plane.registry = registry_for_plane
            else:
                plane.registry = registry
            if args.trace:
                # the --trace tracer is already ambient; feed its records
                from repro.obs.trace import current_tracer

                plane.attach_tracer(current_tracer())
            else:
                # no --trace: a tap-only tracer (nothing kept, nothing
                # written) so the live trace tail still has a feed
                tap_tracer = stack.enter_context(Tracer.tap_only())
                stack.enter_context(use_tracer(tap_tracer))
                plane.attach_tracer(tap_tracer)
        seen = set()
        code = 0
        for name in wanted:
            if name in seen:
                continue
            seen.add(name)
            code = COMMANDS[name](args.full, args.csv) or code
            print()
        if registry is not None:
            registry.write_json(args.metrics)
            print(f"wrote {args.metrics}")
    return code


if __name__ == "__main__":  # pragma: no cover - module execution path
    raise SystemExit(main())
