"""Set up, run, time and check one benchmark workload.

A run without tracing repeats *set up, execute* on the seed's inputs until
the measuring time is spent, and reports the end-to-end metrics: host times
at the reference host speed (:mod:`perfbench.hostspeed`), averaged over the
repetitions.  A traced run executes once without tracing and once with
:class:`perfbench.layers.LayerTrace` wrapped round the program's public
calls, checks that both produce the same simulated outputs, and reports the
per-layer metrics in raw host time.  Every execution is checked; a failed check makes the run
report ``correct: false``.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.epoch import EpochController
from repro.hadoop.sim import HadoopSimulator, SimConfig
from repro.obs import lpprof
from repro.obs.ledger import DollarLedger, LedgerMismatch
from repro.schedulers import DelayScheduler, LipsScheduler
from repro.serve.invariants import check_service_invariants
from repro.serve.journal import REC_EPOCH, read_wal
from repro.serve.service import SchedulingService, ServiceConfig
from repro.serve.soak import drive_service

from perfbench import inputs as inp
from perfbench.hostspeed import HostSpeed
from perfbench.layers import LayerTrace

BENCH_DIR = Path(__file__).resolve().parent
#: spans and service journals go here, inside the checkout
OUT_DIR = BENCH_DIR.parent / ".perfbench_out"
FINGERPRINTS = BENCH_DIR / "fingerprints.json"

WORKLOADS = ("swim-day", "swim-day-delay", "block-1000", "serve-day")

#: tick samples a full-size serve-day run pools, so that ten lie beyond p99
MIN_TICKS = 1000
#: set-ups per run at least (setup_s is their median)
MIN_SETUPS = 5
#: a run stops repeating after this long whatever its measuring time
MAX_RUN_S = 100.0
#: relative slack of the self-time reconciliation (float summation only)
RECONCILE_TOL = 1e-9


@dataclass
class Prepared:
    """One workload's inputs and the program object built from them."""

    workload: str
    seed: int
    inputs: inp.Inputs
    program: object
    setup_s: float
    wal_dir: Optional[Path] = None


@dataclass
class Outcome:
    """What one execution produced: simulated outputs, host times, checks."""

    workload: str
    cost_usd: float
    makespan_s: float
    #: simulator events, controller epochs, or service ticks
    events: int
    tasks: int
    jobs: int
    jobs_completed: int
    #: raw host seconds of the execution
    wall_s: float
    #: host seconds at the reference speed (see perfbench.hostspeed)
    wall_norm_s: float = 0.0
    #: mean job response time (arrival to completion), simulated seconds
    job_time_s: float = 0.0
    #: per-step host seconds at the reference speed (untraced only)
    steps: List[float] = field(default_factory=list)
    lp_statuses: List[str] = field(default_factory=list)
    #: the program's own LP solve count
    lp_solves_program: int = 0
    degraded: int = 0
    #: serve-day only
    offers: int = 0
    shed: int = 0
    lp_epochs: int = 0
    missed: int = 0
    backlog_max: int = 0
    journal_bytes: int = 0
    moved_mb: float = 0.0
    plan: Dict[str, int] = field(default_factory=dict)
    #: kept for the checks, dropped afterwards
    ledger: object = None
    violations: List[str] = field(default_factory=list)

    @property
    def nonoptimal(self) -> int:
        """LP solves that did not end optimal."""
        return sum(1 for s in self.lp_statuses if s != "optimal")

    @property
    def attempted(self) -> int:
        """Jobs offered plus LP epochs planned."""
        if self.workload == "serve-day":
            return self.offers + self.lp_epochs
        return self.jobs + len(self.lp_statuses)

    @property
    def failed(self) -> int:
        """Jobs lost plus epochs that degraded or did not solve optimally
        (serve-day: shed offers plus LP epochs that missed or degraded)."""
        if self.workload == "serve-day":
            return self.shed + self.missed
        return (self.jobs - self.jobs_completed) + self.degraded + self.nonoptimal

    def signature(self) -> tuple:
        """The simulated outputs that must not depend on timing or tracing."""
        return (self.cost_usd, self.makespan_s, self.job_time_s, self.events, self.tasks)


# -- set-up ------------------------------------------------------------------
def setup(workload: str, seed: int, size: str = "full") -> Prepared:
    """Generate the inputs and build the program object, timed."""
    wal_dir = None
    if workload == "serve-day":
        wal_dir = OUT_DIR / f"wal-{workload}-{seed}-{os.getpid()}"
        shutil.rmtree(wal_dir, ignore_errors=True)
    t0 = time.perf_counter()
    data = inp.generate(workload, seed, size)
    shape = inp.SHAPES[size][inp.FAMILY[workload]]
    if workload == "swim-day":
        program: object = HadoopSimulator(
            data.cluster,
            data.workload,
            LipsScheduler(epoch_length=shape.epoch_s),
            SimConfig(placement_seed=seed, speculative=False),
        )
    elif workload == "swim-day-delay":
        program = HadoopSimulator(
            data.cluster,
            data.workload,
            DelayScheduler(),
            SimConfig(placement_seed=seed, speculative=True),
        )
    elif workload == "block-1000":
        program = EpochController(data.cluster, shape.epoch_s)
    else:
        program = SchedulingService(data.cluster, ServiceConfig(), wal_dir=wal_dir)
        program.start()
    setup_s = time.perf_counter() - t0
    return Prepared(workload, seed, data, program, setup_s, wal_dir)


# -- execution ---------------------------------------------------------------
def _timed_run(
    run: Callable[[], object], trace: Optional[LayerTrace], owner: object, step: str
) -> Tuple[object, float, float, List[float]]:
    """Run ``run()`` once; returns (result, raw wall, wall at reference speed,
    step times at reference speed).

    Untraced, every ``owner.step`` call is timed and the host speed is
    sampled between steps (:mod:`perfbench.hostspeed`); probe time is left
    out of every figure.  Traced, the host speed is sampled only before and
    after, and no step times are returned.
    """
    if trace is not None:
        speed = HostSpeed()
        result = trace.root(run)
        speed.mark()
        return result, speed.raw_s, speed.normalized_s, []
    raw_steps: List[Tuple[float, int]] = []
    speed = HostSpeed()
    fn = getattr(owner, step)
    clock = time.perf_counter

    def timed(*args, **kwargs):
        speed.maybe_mark()
        segment = speed.segment
        t0 = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            raw_steps.append((clock() - t0, segment))

    setattr(owner, step, timed)
    result = run()
    speed.mark()
    steps = [speed.normalize(seconds, segment) for seconds, segment in raw_steps]
    return result, speed.raw_s, speed.normalized_s, steps


def _instrument_sim(sim: HadoopSimulator, trace: LayerTrace, plan: Dict[str, int]) -> None:
    trace.patch(sim.events, "step", "hadoop.events")
    for name in ("select_task", "select_reduce_task"):
        trace.patch(sim.scheduler, name, "schedulers.select", hit="launches")
    for name in (
        "has_pending_tasks",
        "all_complete",
        "speculation_candidate",
        "new_attempt",
        "finish_attempt",
        "submit",
    ):
        trace.patch(sim.jobtracker, name, "hadoop.jobtracker")
    for tracker in sim.trackers:
        trace.patch(tracker, "launch", "hadoop.tasktracker")
        trace.patch(tracker, "complete", "hadoop.tasktracker")
    trace.patch(sim, "move_block", "hadoop.transfer.move")
    trace.patch(sim.network, "read_time", "hadoop.transfer.read")
    if sim.scheduler.epoch_length:
        scheduler = sim.scheduler

        def tally(_result) -> None:
            for key, value in getattr(scheduler, "last_plan_stats", {}).items():
                plan[key] = plan.get(key, 0) + value

        trace.patch(scheduler, "on_epoch", "schedulers.epoch", span=True, after=tally)


def _instrument_controller(controller: EpochController, trace: LayerTrace) -> None:
    trace.patch(controller, "step", "core.step", span=True)
    trace.patch(controller, "submit", "core.submit")


def _instrument_service(service: SchedulingService, trace: LayerTrace) -> None:
    trace.patch(service, "submit", "serve.submit", span=True)
    trace.patch(service, "tick", "serve.tick", span=True)
    trace.patch(service, "checkpoint", "serve.snapshot", span=True)
    trace.patch(service, "advance_to", "serve.advance")
    trace.patch(service.admission, "offer", "serve.admission")
    trace.patch(service.health, "observe_epoch", "serve.health")
    trace.patch(service.wal, "append", "serve.journal", span=True)
    _instrument_controller(service.controller, trace)


def execute(prep: Prepared, trace: Optional[LayerTrace] = None) -> Outcome:
    """Run the prepared program to completion once."""
    records: List[object] = []

    def collect(record) -> None:
        records.append(record)

    collector: Callable = trace.lp_collector if trace is not None else collect
    plan: Dict[str, int] = {}
    program = prep.program
    data = prep.inputs

    if prep.workload in ("swim-day", "swim-day-delay"):
        if trace is not None:
            _instrument_sim(program, trace, plan)
        with lpprof.collect(collector):
            result, wall, norm, steps = _timed_run(program.run, trace, program.events, "step")
        metrics = result.metrics
        jobs = data.workload.num_jobs
        out = Outcome(
            prep.workload,
            cost_usd=float(metrics.total_cost),
            makespan_s=float(metrics.makespan),
            events=program.events.processed,
            tasks=result.num_tasks,
            jobs=jobs,
            jobs_completed=sum(1 for j in program.jobtracker.jobs.values() if j.is_complete),
            wall_s=wall,
            lp_solves_program=metrics.lp_solves,
            degraded=metrics.epochs_degraded,
            moved_mb=float(metrics.moved_mb),
            ledger=metrics.ledger,
        )
        out.job_time_s = statistics.fmean(metrics.job_durations.values())
        if result.num_tasks != sum(j.num_tasks for j in data.workload.jobs):
            out.violations.append(
                f"simulator ran {result.num_tasks} tasks, inputs hold "
                f"{sum(j.num_tasks for j in data.workload.jobs)}"
            )
    elif prep.workload == "block-1000":
        if trace is not None:
            _instrument_controller(program, trace)
        with lpprof.collect(collector):
            result, wall, norm, steps = _timed_run(
                lambda: program.run(data.workload), trace, program, "step"
            )
        out = _epoch_outcome(prep, result, wall)
        out.degraded = program.degraded_epochs
    else:
        service = program
        wal_start = service.wal.path.stat().st_size
        if trace is not None:
            _instrument_service(service, trace)
        with lpprof.collect(collector):
            _, wall, norm, steps = _timed_run(
                lambda: drive_service(service, data.schedule, data.data_by_job),
                trace,
                service,
                "tick",
            )
        violations = [f"{v.name}: {v.detail}" for v in check_service_invariants(service)]
        ticks = service.epochs_ticked
        result = service.result()
        out = _epoch_outcome(prep, result, wall)
        out.events = ticks
        out.violations.extend(violations)
        out.degraded = service.controller.degraded_epochs
        out.offers = service.admission.submitted
        out.shed = service.admission.shed_total
        out.journal_bytes = service.wal.path.stat().st_size - wal_start
        for rec in read_wal(service.wal.path):
            if rec["type"] == REC_EPOCH and rec["used_lp"]:
                out.lp_epochs += 1
                out.missed += bool(rec["missed"] or rec["degraded"])
    out.wall_norm_s = norm
    out.steps = steps
    out.plan = plan
    out.lp_statuses = [r.status for r in (trace.lp_records if trace is not None else records)]
    return out


def _epoch_outcome(prep: Prepared, result, wall: float) -> Outcome:
    """Outputs of an epoch-controller run (block-1000 and serve-day)."""
    by_id = {job.job_id: job for job in prep.inputs.jobs}
    done = result.job_completion
    return Outcome(
        prep.workload,
        cost_usd=float(result.total_cost),
        makespan_s=float(result.makespan),
        events=len(result.reports),
        tasks=sum(by_id[j].num_tasks + by_id[j].num_reduces for j in done),
        jobs=len(by_id),
        jobs_completed=len(done),
        wall_s=wall,
        lp_solves_program=sum(r.lp_solves for r in result.reports),
        backlog_max=max((r.num_queued for r in result.reports), default=0),
        ledger=result.ledger,
        job_time_s=statistics.fmean(done.values()) if done else 0.0,
    )


# -- checks ------------------------------------------------------------------
def check_outcome(out: Outcome) -> List[str]:
    """Everything one execution must satisfy; returns the failures."""
    failures = list(out.violations)
    if out.jobs_completed != out.jobs:
        failures.append(f"{out.jobs - out.jobs_completed} of {out.jobs} jobs did not complete")
    try:
        DollarLedger.from_cost_ledger(out.ledger).reconcile(out.cost_usd)
    except LedgerMismatch as exc:
        failures.append(f"dollar ledger does not reconcile: {exc}")
    if len(out.lp_statuses) != out.lp_solves_program:
        failures.append(
            f"benchmark saw {len(out.lp_statuses)} LP solves, the program "
            f"counted {out.lp_solves_program}"
        )
    if out.cost_usd <= 0 or out.makespan_s <= 0 or out.tasks <= 0:
        failures.append("empty run: cost, makespan and tasks must be positive")
    return failures


def compare_outcomes(ref: Outcome, other: Outcome, what: str) -> List[str]:
    """Simulated outputs must repeat exactly."""
    if ref.signature() == other.signature():
        return []
    names = ("cost_usd", "makespan_s", "job_time_s", "events", "tasks")
    diffs = [
        f"{n} {a!r} != {b!r}"
        for n, a, b in zip(names, ref.signature(), other.signature())
        if a != b
    ]
    return [f"{what} changed the simulated outputs: " + ", ".join(diffs)]


def check_reconciled(trace: LayerTrace) -> List[str]:
    """Layer self times plus unattributed_s must sum to the traced wall."""
    total = sum(trace.layer_self().values()) + trace.unattributed_s
    if abs(total - trace.wall_s) > RECONCILE_TOL * max(1.0, trace.wall_s):
        return [f"layer self times sum to {total!r}, traced wall is {trace.wall_s!r}"]
    return []


def recorded_digest(workload: str, seed: int, size: str) -> Optional[str]:
    """The fingerprint recorded for (workload, seed, size), if any."""
    if not FINGERPRINTS.exists():
        return None
    table = json.loads(FINGERPRINTS.read_text(encoding="utf-8"))
    return table.get(size, {}).get(workload, {}).get(str(seed))


def check_inputs(prep: Prepared, size: str) -> List[str]:
    """The generators must still produce the recorded inputs.

    A seed with no recorded fingerprint is still checked indirectly: the
    inputs of the first recorded seed are regenerated and compared.
    """
    want = recorded_digest(prep.workload, prep.seed, size)
    got = inp.digest(prep.inputs)
    if want is None:
        table = json.loads(FINGERPRINTS.read_text(encoding="utf-8"))
        recorded = table.get(size, {}).get(prep.workload, {})
        if not recorded:
            return [f"no input fingerprints recorded for {prep.workload} ({size})"]
        ref_seed = min(recorded, key=int)
        want = recorded[ref_seed]
        got = inp.digest(inp.generate(prep.workload, int(ref_seed), size))
        what = f"seed {ref_seed} (reference for unrecorded seed {prep.seed})"
    else:
        what = f"seed {prep.seed}"
    if got != want:
        return [f"{prep.workload} inputs for {what} changed: digest {got} != recorded {want}"]
    return []


# -- metrics -----------------------------------------------------------------
def percentile(samples: List[float], q: int) -> float:
    """The q-th percentile (inclusive linear interpolation)."""
    if len(samples) == 1:
        return samples[0]
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


def peak_rss_mb() -> float:
    """High-water resident set size of this process, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class RunResult:
    """What one benchmark invocation reports."""

    workload: str
    seed: int
    traced: bool
    metrics: Dict[str, tuple] = field(default_factory=dict)  # name -> (value, unit)
    extra: Dict[str, tuple] = field(default_factory=dict)  # printed, not in JSON
    attempted: int = 0
    failed: int = 0
    failures: List[str] = field(default_factory=list)
    #: traced runs: self seconds per layer, with the root's as unattributed
    layer_self: Dict[str, float] = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        """True when every check held."""
        return not self.failures

    def summary(self) -> dict:
        """The JSON object the benchmark prints last."""
        return {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in self.metrics.items()},
        }


def _finish(prep: Prepared, out: Outcome, result: RunResult) -> None:
    result.failures.extend(check_outcome(out))
    result.attempted += out.attempted
    result.failed += out.failed
    out.ledger = None
    if prep.wal_dir is not None:
        shutil.rmtree(prep.wal_dir, ignore_errors=True)


def _timed_setup(workload: str, seed: int, size: str) -> Tuple[Prepared, float]:
    """Set up once; returns the set-up time at the reference speed."""
    speed = HostSpeed()
    prep = setup(workload, seed, size)
    speed.mark()
    return prep, speed.normalize(prep.setup_s, 0)


def run_untraced(workload: str, seed: int, seconds: float, size: str = "full") -> RunResult:
    """Repeat set-up and execution for ``seconds``; end-to-end metrics.

    Host times are at the reference host speed (:mod:`perfbench.hostspeed`)
    and averaged over the whole measuring time: ``wall_s`` is the mean
    repetition, the step percentiles pool every step of every repetition
    and ``setup_s`` is the median set-up.  serve-day repeats until it has
    pooled :data:`MIN_TICKS` ticks, so that ten lie beyond its p99.
    """
    result = RunResult(workload, seed, traced=False)
    setups: List[float] = []
    walls: List[float] = []
    raw_walls: List[float] = []
    steps: List[float] = []
    ref: Optional[Outcome] = None
    start = time.perf_counter()
    while True:
        prep, setup_s = _timed_setup(workload, seed, size)
        setups.append(setup_s)
        if ref is None:
            result.failures.extend(check_inputs(prep, size))
        out = execute(prep)
        _finish(prep, out, result)
        walls.append(out.wall_norm_s)
        raw_walls.append(out.wall_s)
        steps.extend(out.steps)
        if ref is None:
            ref = out
        else:
            result.failures.extend(compare_outcomes(ref, out, "repeating the run"))
        del prep, out
        gc.collect()
        elapsed = time.perf_counter() - start
        enough = workload != "serve-day" or size != "full" or len(steps) >= MIN_TICKS
        if (elapsed >= seconds and enough) or elapsed >= MAX_RUN_S:
            break
    while len(setups) < MIN_SETUPS:
        prep, setup_s = _timed_setup(workload, seed, size)
        setups.append(setup_s)
        if prep.wal_dir is not None:
            prep.program.wal.close()
            shutil.rmtree(prep.wal_dir, ignore_errors=True)
        del prep
    wall = statistics.fmean(walls)
    m = result.metrics
    m["setup_s"] = (statistics.median(setups), "s")
    m["wall_s"] = (wall, "s")
    m["tasks_per_s"] = (ref.tasks / wall, "tasks/s")
    m["step_p50_ms"] = (1000.0 * statistics.median(steps), "ms")
    m["step_p99_ms"] = (1000.0 * percentile(steps, 99), "ms")
    m["cost_usd"] = (ref.cost_usd, "usd")
    m["job_time_s"] = (ref.job_time_s, "s")
    m["peak_rss_mb"] = (peak_rss_mb(), "MB")
    x = result.extra
    x["makespan_s"] = (ref.makespan_s, "s")
    x["repetitions"] = (len(walls), "count")
    x["wall_s_raw"] = (statistics.fmean(raw_walls), "s")
    x["host_slowness"] = (statistics.fmean(raw_walls) / wall, "ratio")
    x["step_samples"] = (len(steps), "count")
    x["tasks"] = (ref.tasks, "tasks")
    if workload == "block-1000":
        x["epoch_solve_p50_s"] = (statistics.median(steps), "s")
    if workload == "serve-day":
        x["tick_p50_ms"] = m["step_p50_ms"]
        x["tick_p99_ms"] = m["step_p99_ms"]
    x["failed_ratio"] = (result.failed / max(1, result.attempted), "failed/attempted")
    return result


def run_traced(workload: str, seed: int, size: str = "full") -> RunResult:
    """One untraced and one traced execution; per-layer metrics."""
    result = RunResult(workload, seed, traced=True)
    prep = setup(workload, seed, size)
    result.failures.extend(check_inputs(prep, size))
    plain = execute(prep)
    _finish(prep, plain, result)
    del prep
    gc.collect()

    prep = setup(workload, seed, size)
    trace = LayerTrace(run_id=f"{workload}-seed{seed}-traced")
    out = execute(prep, trace)
    _finish(prep, out, result)
    result.failures.extend(compare_outcomes(plain, out, "tracing"))
    result.failures.extend(check_reconciled(trace))
    trace.write_spans(OUT_DIR / f"{workload}-seed{seed}-spans.jsonl")

    result.layer_self = dict(trace.layer_self())
    result.layer_self["unattributed"] = trace.unattributed_s
    result.metrics = layer_metrics(prep, plain, out, trace)
    return result


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    prep: Prepared, plain: Outcome, out: Outcome, trace: LayerTrace
) -> Dict[str, tuple]:
    """The per-layer metrics of one traced execution."""
    t = trace
    sim = prep.workload in ("swim-day", "swim-day-delay")
    lp_walls = [r.wall_seconds for r in t.lp_records]
    offers = t.calls("schedulers.select")
    launches = t.counts.get("launches", 0)
    planned = out.plan.get("planned", 0)
    parked = out.plan.get("parked", 0)
    events = out.events if sim else 0
    m: Dict[str, tuple] = {
        "hadoop.events.count": (events, "count"),
        "hadoop.events.per_s": (_ratio(events, plain.wall_norm_s), "1/s"),
        "hadoop.events.self_s": (t.self_s("hadoop.events"), "s"),
        "hadoop.offer.calls": (offers, "count"),
        "hadoop.offer.launches": (launches, "count"),
        "hadoop.offer.useful_ratio": (_ratio(launches, offers), "ratio"),
        "schedulers.select.busy_s": (t.busy("schedulers.select"), "s"),
        "hadoop.jobtracker.calls": (t.calls("hadoop.jobtracker"), "count"),
        "hadoop.jobtracker.busy_s": (t.busy("hadoop.jobtracker"), "s"),
        "hadoop.tasktracker.calls": (t.calls("hadoop.tasktracker"), "count"),
        "hadoop.tasktracker.busy_s": (t.busy("hadoop.tasktracker"), "s"),
        "hadoop.transfer.moves": (t.calls("hadoop.transfer.move"), "count"),
        "hadoop.transfer.moved_mb": (out.moved_mb, "MB"),
        "hadoop.transfer.busy_s": (t.busy("hadoop.transfer.move", "hadoop.transfer.read"), "s"),
        "schedulers.epoch.calls": (t.calls("schedulers.epoch"), "count"),
        "schedulers.epoch.self_s": (t.self_s("schedulers.epoch"), "s"),
        "schedulers.plan.tasks": (planned + parked, "count"),
        "schedulers.plan.parked_ratio": (_ratio(parked, planned + parked), "ratio"),
        "lp.solves": (len(lp_walls), "count"),
        "lp.solve_s": (sum(lp_walls), "s"),
        "lp.solve_p50_s": (statistics.median(lp_walls) if lp_walls else 0.0, "s"),
        "lp.iterations": (sum(r.iterations for r in t.lp_records), "count"),
        "lp.cols_max": (max((r.cols for r in t.lp_records), default=0), "count"),
        "lp.nnz_max": (max((r.nnz for r in t.lp_records), default=0), "count"),
        "lp.nonoptimal": (out.nonoptimal, "count"),
        "core.step.calls": (t.calls("core.step"), "count"),
        "core.step.self_s": (t.self_s("core.step"), "s"),
        "core.degraded_epochs": (out.degraded, "count"),
        "cluster.build_s": (prep.inputs.cluster_build_s, "s"),
        "cluster.network_bytes": (inp.network_bytes(prep.inputs.cluster), "bytes"),
        "workload.generate_s": (prep.inputs.workload_generate_s, "s"),
        "serve.submit.calls": (t.calls("serve.submit"), "count"),
        "serve.submit.busy_s": (t.busy("serve.submit"), "s"),
        "serve.admission.busy_s": (t.busy("serve.admission"), "s"),
        "serve.health.busy_s": (t.busy("serve.health"), "s"),
        "serve.journal.appends": (t.calls("serve.journal"), "count"),
        "serve.journal.bytes": (out.journal_bytes, "bytes"),
        "serve.journal.busy_s": (t.busy("serve.journal"), "s"),
        "serve.snapshot.count": (t.calls("serve.snapshot"), "count"),
        "serve.snapshot.busy_s": (t.busy("serve.snapshot"), "s"),
        "serve.tick.calls": (t.calls("serve.tick"), "count"),
        "serve.tick.self_s": (t.self_s("serve.tick"), "s"),
        "serve.lp_epochs": (out.lp_epochs, "count"),
        "serve.shed_ratio": (_ratio(out.shed, out.offers), "ratio"),
        "serve.deadline_miss_ratio": (_ratio(out.missed, out.lp_epochs), "ratio"),
        "serve.backlog_max": (out.backlog_max if prep.workload == "serve-day" else 0, "jobs"),
        "trace.wall_s": (t.wall_s, "s"),
        "trace.untraced_wall_s": (plain.wall_s, "s"),
        "trace.spans": (len(t.spans), "count"),
        "unattributed_s": (t.unattributed_s, "s"),
        "trace_overhead_ratio": (_ratio(out.wall_norm_s, plain.wall_norm_s), "ratio"),
    }
    return m
