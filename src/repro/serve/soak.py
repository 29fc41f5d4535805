"""The serve soak: hours of sim time, sustained arrivals, chaos, kills.

One soak seed fully determines a cluster, a merged multi-submitter arrival
stream, and a chaos plan mapped onto the service's failure surface:

* machine-outage windows become *solver-fail* windows (the LP backend
  returns a failed result while the window covers the epoch clock — the
  controller falls back to the greedy degraded path);
* straggler windows become *LP-lag* windows (a fixed synthetic lag is added
  to the measured solve wall time, deterministically blowing the epoch
  deadline — no sleeping, replay-safe).

Both are keyed on the *service sim clock*, never on solve counts or wall
time, which is what makes a killed-and-recovered run re-execute the exact
fault sequence (the replay-determinism contract in
:mod:`repro.serve.service`).

The soak runs the same schedule twice: an uninterrupted *reference* run,
and a *victim* run that is killed mid-flight (WAL abandoned where it fell)
and recovered, once per entry in ``kill_after_epochs``.  Gates, each
reported as an :class:`~repro.resilience.invariants.InvariantViolation`:

* the victim's final ledger must be byte-identical to the reference's
  (JSON-serialised record streams compared as strings);
* the serve invariant oracle must pass on both runs;
* the concatenated victim trace (pre-kill + post-recovery suffix) must pass
  the ``repro diff`` stat gate against the reference trace;
* sim time must reach the configured floor with at least one kill/recover
  cycle, and injected lag must have engaged the watchdog.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cluster.storage import BLOCK_MB
from repro.lp.result import LPResult, LPStatus
from repro.lp.scipy_backend import HighsBackend
from repro.obs import lpprof
from repro.obs.diff import diff_traces
from repro.obs.registry import MetricsRegistry, current_registry, use_registry
from repro.obs.trace import Tracer, use_tracer
from repro.resilience.chaos import ChaosPlan, random_chaos_plan
from repro.resilience.invariants import InvariantViolation
from repro.resilience.soak import build_soak_cluster
from repro.serve.health import HealthConfig, ServiceState
from repro.serve.invariants import check_service_invariants
from repro.serve.journal import ledger_to_dicts
from repro.serve.service import SchedulingService, ServiceConfig
from repro.workload.arrivals import MergedArrivals, PoissonArrivals
from repro.workload.job import DataObject, Job

Window = Tuple[float, float]


@dataclass(frozen=True)
class ServeSoakConfig:
    """Shape of one serve soak (a pure function of ``seed``)."""

    seed: int = 0
    num_machines: int = 6
    num_submitters: int = 3
    jobs_per_submitter: int = 24
    #: soak horizon; arrivals are spread over ~90% of it
    sim_hours: float = 2.5
    epoch_length: float = 60.0
    checkpoint_every: int = 8
    max_pending: int = 64
    #: admission token bucket (0 disables rate limiting)
    rate_per_s: float = 0.0
    burst: float = 8.0
    #: kill the victim run after these cumulative scheduler ticks
    kill_after_epochs: Tuple[int, ...] = (12,)
    chaos: bool = True
    #: synthetic LP lag inside straggler-derived windows (seconds)
    lag_s: float = 10.0
    epoch_deadline_s: float = 0.75
    #: per-record fsync of the WAL (off: flush-only, fine for sim soaks)
    wal_fsync: bool = False

    @property
    def horizon_s(self) -> float:
        """Soak horizon in simulated seconds."""
        return self.sim_hours * 3600.0

    def service_config(self) -> ServiceConfig:
        """The service knobs this soak drives."""
        return ServiceConfig(
            epoch_length=self.epoch_length,
            max_pending=self.max_pending,
            rate_per_s=self.rate_per_s,
            burst=self.burst,
            checkpoint_every=self.checkpoint_every,
            health=HealthConfig(epoch_deadline_s=self.epoch_deadline_s),
            wal_fsync=self.wal_fsync,
            # abort loudly if the queue ever stops draining, instead of
            # grinding through the global 1e6-epoch default
            max_epochs=int(self.horizon_s / self.epoch_length) * 50,
        )


@dataclass
class ServeSoakOutcome:
    """Everything one soak produced, with gate verdicts as violations."""

    seed: int
    violations: List[InvariantViolation] = field(default_factory=list)
    sim_time_s: float = 0.0
    epochs: int = 0
    kills: int = 0
    submitted: int = 0
    admitted: int = 0
    shed: int = 0
    completed: int = 0
    deadline_misses: int = 0
    #: live-plane accounting (all zero when no plane was attached)
    rolling_reconciliations: int = 0
    max_rolling_residual: float = 0.0
    tap_dropped: int = 0
    degraded_epochs: int = 0
    transitions: int = 0
    snapshots: int = 0
    replayed_records: int = 0
    max_replay_drift: float = 0.0
    ledger_identical: bool = False
    total_cost: float = 0.0
    makespan: float = 0.0

    @property
    def ok(self) -> bool:
        """True when every gate held."""
        return not self.violations


class WindowedChaosBackend:
    """An LP backend that fails solves purely as a function of sim time.

    The epoch controller wraps each epoch's solves in
    ``lpprof.scope(epoch=i)``; this backend reads that scope, maps the
    epoch index to its start time, and returns a failed result while a
    fail window covers it (the controller's degraded path takes over).
    Because the schedule is keyed on the epoch clock — not on solve counts
    or wall time — an original run and its crash-recovery replay inject
    identical faults.  Solves outside any epoch scope pass through.
    """

    def __init__(
        self, inner, fail_windows: Sequence[Window], epoch_length: float
    ) -> None:
        self.inner = inner
        self.fail_windows = list(fail_windows)
        self.epoch_length = epoch_length
        self.faults_injected = 0
        self.name = f"windowed-chaos({getattr(inner, 'name', type(inner).__name__)})"

    def _blocked(self) -> bool:
        epoch = lpprof.current_scope().get("epoch")
        if epoch is None:
            return False
        now = epoch * self.epoch_length
        return any(start <= now < end for start, end in self.fail_windows)

    def solve(self, lp) -> LPResult:
        """Assemble-and-solve path, same windows as solve_assembled."""
        result = self.solve_assembled(lp.assemble())
        if result.x is not None:
            result.by_name = lp.value_map(result.x)
        return result

    def solve_assembled(self, asm) -> LPResult:  # lint: ok=AST005
        """Fail while a window covers the epoch clock; else delegate."""
        if self._blocked():
            self.faults_injected += 1
            registry = current_registry()
            if registry is not None:
                registry.counter(
                    "chaos_faults_injected_total", help="chaos faults injected by kind"
                ).inc(kind="solver-window")
            return LPResult(
                status=LPStatus.NUMERICAL,
                objective=float("nan"),
                x=None,
                backend=self.name,
                message="windowed chaos fault",
            )
        return self.inner.solve_assembled(asm)


def derive_service_chaos(plan: ChaosPlan, horizon_s: float) -> Tuple[List[Window], List[Window]]:
    """Map a cluster chaos plan onto the service's failure surface.

    Returns ``(fail_windows, lag_windows)``: machine outages become
    solver-fail windows, stragglers become LP-lag windows.  Open-ended
    outages close at the horizon.
    """
    fail_windows = [
        (e.fail_time, e.recover_time if e.recover_time is not None else horizon_s)
        for e in plan.failures.events
    ]
    lag_windows = [(s.start, s.end) for s in plan.stragglers]
    return fail_windows, lag_windows


def make_lag_injector(
    lag_windows: Sequence[Window], lag_s: float, epoch_length: float
) -> Callable[[int], float]:
    """Epoch-indexed synthetic lag: ``lag_s`` while a window covers the
    epoch's start time, else 0 — deterministic, so replay-safe."""
    windows = list(lag_windows)

    def injector(epoch: int) -> float:
        now = epoch * epoch_length
        return lag_s if any(start <= now < end for start, end in windows) else 0.0

    return injector


def build_serve_schedule(
    config: ServeSoakConfig, num_stores: int, rng: np.random.Generator
) -> Tuple[List[Tuple[float, Job]], Dict[int, DataObject]]:
    """Merged multi-submitter arrival schedule, a pure function of the rng.

    Each submitter gets a private Poisson process; job ids partition by
    submitter so the merge is collision-free.  Arrival times are stamped
    onto the jobs (PoissonArrivals draws fresh times).
    """
    sources = []
    data_by_job: Dict[int, DataObject] = {}
    span = config.horizon_s * 0.9
    for submitter in range(config.num_submitters):
        jobs: List[Job] = []
        for k in range(config.jobs_per_submitter):
            job_id = submitter * config.jobs_per_submitter + k
            size_mb = float(rng.uniform(2.0, 5.0)) * BLOCK_MB
            cpu_total = float(rng.uniform(100.0, 400.0))
            obj = DataObject(
                data_id=job_id,
                name=f"serve-d{job_id}",
                size_mb=size_mb,
                origin_store=int(rng.integers(0, num_stores)),
            )
            data_by_job[job_id] = obj
            jobs.append(
                Job(
                    job_id=job_id,
                    name=f"serve-job-{job_id}",
                    tcp=cpu_total / size_mb,
                    data_ids=[job_id],
                    num_tasks=obj.num_blocks,
                )
            )
        rate = config.jobs_per_submitter / span
        sources.append(
            PoissonArrivals(
                jobs, rate_per_s=rate, seed=config.seed * 1009 + submitter
            )
        )
    merged = MergedArrivals(sources)
    schedule = [
        (t, dataclasses.replace(job, arrival_time=float(t))) for t, job in merged
    ]
    return schedule, data_by_job


def drive_service(
    service: SchedulingService,
    schedule: Sequence[Tuple[float, Job]],
    data_by_job: Dict[int, DataObject],
    start_index: int = 0,
    stop_after_ticks: Optional[int] = None,
) -> int:
    """Pump arrivals and scheduler ticks until drained (or a tick budget).

    Returns the next unoffered schedule index (``len(schedule)`` when every
    arrival was offered).  Resuming after recovery passes
    ``service.admission.submitted`` as ``start_index`` — every offer is
    journaled, so the counter *is* the resume cursor.
    """
    i = start_index
    while True:
        if stop_after_ticks is not None and service.epochs_ticked >= stop_after_ticks:
            return i
        now = service.clock
        while i < len(schedule) and schedule[i][0] <= now:
            job = schedule[i][1]
            service.submit(job, data_by_job.get(job.job_id))
            i += 1
        if service.backlog == 0:
            if i >= len(schedule):
                return i
            service.advance_to(schedule[i][0])
            continue
        service.tick()


def _build_service(
    config: ServeSoakConfig,
    cluster,
    fail_windows: Sequence[Window],
    lag_windows: Sequence[Window],
    wal_dir: Optional[Path],
    tracer=None,
    recovering: bool = False,
    plane=None,
):
    """One service instance wired to epoch-clock-keyed chaos."""
    backend = WindowedChaosBackend(HighsBackend(), fail_windows, config.epoch_length)
    lag = make_lag_injector(lag_windows, config.lag_s, config.epoch_length)
    if recovering:
        service, stats = SchedulingService.recover(
            cluster,
            config.service_config(),
            wal_dir,
            backend=backend,
            lag_injector=lag,
            tracer=tracer,
        )
        if plane is not None:
            service.attach_plane(plane)
        return service, stats
    service = SchedulingService(
        cluster,
        config.service_config(),
        wal_dir=wal_dir,
        backend=backend,
        lag_injector=lag,
        tracer=tracer,
    )
    if plane is not None:
        service.attach_plane(plane)
    service.start()
    return service, None


def run_serve_soak(
    config: ServeSoakConfig,
    work_dir: Path,
    min_sim_hours: float = 2.0,
    plane=None,
) -> ServeSoakOutcome:
    """Run one full soak (reference + killed/recovered victim) in ``work_dir``.

    Passing a :class:`~repro.obs.live.LiveTelemetryPlane` attaches it to
    every service instance (including recovered ones): the soak then also
    gates on the live invariants — every-epoch rolling-ledger
    reconciliation staying inside tolerance and ``trace_tap_dropped == 0``.
    """
    work_dir = Path(work_dir)
    work_dir.mkdir(parents=True, exist_ok=True)
    outcome = ServeSoakOutcome(seed=config.seed)
    ambient = current_registry()
    rolling_ledgers = []

    rng = np.random.default_rng(config.seed)
    cluster = build_soak_cluster(config.num_machines, rng)
    schedule, data_by_job = build_serve_schedule(config, cluster.num_stores, rng)
    if config.chaos:
        plan = random_chaos_plan(cluster, config.horizon_s, rng, mean_time_to_failure_s=config.horizon_s)
        fail_windows, lag_windows = derive_service_chaos(plan, config.horizon_s)
    else:
        fail_windows, lag_windows = [], []

    # -- reference run: uninterrupted, no persistence ------------------------
    ref_trace = work_dir / "trace-reference.jsonl"
    ref_registry = MetricsRegistry()
    if plane is not None:
        plane.registry = ref_registry
    with use_registry(ref_registry):
        with Tracer.to_path(ref_trace) as tracer, use_tracer(tracer):
            service, _ = _build_service(
                config, cluster, fail_windows, lag_windows, wal_dir=None,
                tracer=tracer, plane=plane,
            )
            drive_service(service, schedule, data_by_job)
            rolling_ledgers.append(service.controller.rolling_ledger)
            ref_sim_time = service.clock
            ref_admission = service.admission
            ref_health = service.health
            ref_degraded = service.controller.degraded_epochs
            outcome.violations.extend(check_service_invariants(service))
            ref_result = service.result()
    ref_ledger_json = json.dumps(ledger_to_dicts(ref_result.ledger))
    misses = ref_registry.counter("epoch_deadline_misses_total").total()
    outcome.deadline_misses = int(misses)
    outcome.degraded_epochs = ref_degraded
    outcome.transitions = len(ref_health.transitions)
    outcome.sim_time_s = ref_sim_time
    outcome.epochs = ref_result.num_epochs
    outcome.total_cost = ref_result.total_cost
    outcome.makespan = ref_result.makespan
    outcome.submitted = ref_admission.submitted
    outcome.admitted = ref_admission.admitted
    outcome.shed = ref_admission.shed_total
    outcome.completed = len(ref_result.job_completion)
    if ambient is not None:
        ambient.merge_from(ref_registry, run="reference")

    # -- victim run: killed per kill_after_epochs, then recovered ------------
    wal_dir = work_dir / "wal"
    victim_registry = MetricsRegistry()
    if plane is not None:
        plane.registry = victim_registry
    kill_points = sorted(config.kill_after_epochs)
    victim_trace_parts: List[Path] = []
    with use_registry(victim_registry):
        part = work_dir / "trace-victim-0.jsonl"
        victim_trace_parts.append(part)
        with Tracer.to_path(part) as tracer, use_tracer(tracer):
            service, _ = _build_service(
                config, cluster, fail_windows, lag_windows, wal_dir=wal_dir,
                tracer=tracer, plane=plane,
            )
            drive_service(
                service,
                schedule,
                data_by_job,
                stop_after_ticks=kill_points[0] if kill_points else None,
            )
            rolling_ledgers.append(service.controller.rolling_ledger)
        victim_result = None
        for n, _kill in enumerate(kill_points):
            # simulated crash: abandon the service object; only release the fd
            if service.wal is not None:
                service.wal.close()
            outcome.kills += 1
            part = work_dir / f"trace-victim-{n + 1}.jsonl"
            victim_trace_parts.append(part)
            with Tracer.to_path(part) as tracer, use_tracer(tracer):
                service, stats = _build_service(
                    config,
                    cluster,
                    fail_windows,
                    lag_windows,
                    wal_dir=wal_dir,
                    tracer=tracer,
                    recovering=True,
                    plane=plane,
                )
                rolling_ledgers.append(service.controller.rolling_ledger)
                outcome.replayed_records += stats.records_replayed
                outcome.max_replay_drift = max(
                    outcome.max_replay_drift, stats.max_cost_drift
                )
                next_stop = kill_points[n + 1] if n + 1 < len(kill_points) else None
                drive_service(
                    service,
                    schedule,
                    data_by_job,
                    start_index=service.admission.submitted,
                    stop_after_ticks=next_stop,
                )
                if next_stop is None:
                    for violation in check_service_invariants(service):
                        outcome.violations.append(
                            InvariantViolation(
                                violation.name, f"victim run: {violation.detail}"
                            )
                        )
                    victim_result = service.result()
    if ambient is not None:
        ambient.merge_from(victim_registry, run="victim")
    outcome.snapshots = len(list(wal_dir.glob("snapshot-*.json")))

    # -- gates ---------------------------------------------------------------
    if victim_result is not None:
        victim_ledger_json = json.dumps(ledger_to_dicts(victim_result.ledger))
        outcome.ledger_identical = victim_ledger_json == ref_ledger_json
        if not outcome.ledger_identical:
            drift = abs(victim_result.total_cost - ref_result.total_cost)
            outcome.violations.append(
                InvariantViolation(
                    "ledger_recovery",
                    f"recovered ledger differs from reference (total drift {drift:.3e})",
                )
            )
        if victim_result.job_completion != ref_result.job_completion:
            outcome.violations.append(
                InvariantViolation(
                    "completion_recovery",
                    "recovered per-job completion times differ from reference",
                )
            )
        victim_records: List[dict] = []
        for part in victim_trace_parts:
            victim_records.extend(
                json.loads(line)
                for line in part.read_text().splitlines()
                if line.strip()
            )
        ref_records = [
            json.loads(line)
            for line in ref_trace.read_text().splitlines()
            if line.strip()
        ]
        diff = diff_traces(ref_records, victim_records)
        if not diff.ok:
            stats_txt = ", ".join(e.stat for e in diff.regressions)
            outcome.violations.append(
                InvariantViolation(
                    "trace_recovery", f"repro-diff gate regressed: {stats_txt}"
                )
            )
    elif kill_points:
        outcome.violations.append(
            InvariantViolation("kill_recover", "victim run never reached completion")
        )
    if outcome.sim_time_s < min_sim_hours * 3600.0:
        outcome.violations.append(
            InvariantViolation(
                "sim_time",
                f"soak covered {outcome.sim_time_s / 3600.0:.2f}h sim time "
                f"< required {min_sim_hours:.2f}h",
            )
        )
    if config.kill_after_epochs and outcome.kills == 0:
        outcome.violations.append(
            InvariantViolation("kill_recover", "no kill/recover cycle executed")
        )
    if (
        lag_windows
        and outcome.deadline_misses >= config.service_config().health.miss_threshold
        and not any(
            t.dst is ServiceState.DEGRADED for t in ref_health.transitions
        )
    ):
        outcome.violations.append(
            InvariantViolation(
                "watchdog_engagement",
                f"{outcome.deadline_misses} deadline misses but no DEGRADED transition",
            )
        )
    # -- live-plane gates ----------------------------------------------------
    if plane is not None:
        for rolling in rolling_ledgers:
            if rolling is None:
                continue
            outcome.rolling_reconciliations += rolling.reconciliations
            outcome.max_rolling_residual = max(
                outcome.max_rolling_residual, rolling.max_residual
            )
            if rolling.drift_events:
                outcome.violations.append(
                    InvariantViolation(
                        "rolling_ledger",
                        f"{rolling.drift_events} reconciliations drifted past "
                        f"{rolling.tol:g} (max residual {rolling.max_residual:.3e})",
                    )
                )
        if outcome.rolling_reconciliations == 0:
            outcome.violations.append(
                InvariantViolation(
                    "rolling_ledger", "plane attached but no reconciliation ever ran"
                )
            )
        outcome.tap_dropped = plane.tap.dropped
        if plane.tap.dropped:
            outcome.violations.append(
                InvariantViolation(
                    "trace_tap",
                    f"{plane.tap.dropped} trace records evicted past a live "
                    f"subscriber (tap too small or reader too slow)",
                )
            )
    return outcome
