"""The top-level Hadoop simulator.

Wires together the event queue, HDFS, TaskTrackers, the JobTracker and a
pluggable scheduler, then replays a workload:

1. data objects are pre-populated into HDFS (random block placement by
   default, like the paper's shuffled baseline);
2. jobs arrive at their ``arrival_time`` and expand into block-level tasks;
3. whenever a slot is free on a tracker the scheduler's ``offer_interest``
   names, the scheduler is offered it; accepted assignments run for
   ``read_time + cpu/ecu`` seconds and charge dollar costs;
4. optional speculative execution duplicates straggler attempts (disabled
   for LiPS, as in the paper);
5. the run ends when every job completes; metrics summarise cost, makespan
   and locality.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional

from repro.cluster.builder import Cluster
from repro.hadoop.events import EventQueue
from repro.hadoop.failures import FailurePlan

if TYPE_CHECKING:  # typing-only: repro.resilience imports back into hadoop
    from repro.resilience.chaos import ChaosPlan
from repro.hadoop.hdfs import CapacityAwarePlacement, HDFS, PlacementPolicy, RandomPlacement
from repro.hadoop.history import KILLED, SUCCESS, AttemptRecord, JobHistory
from repro.hadoop.interference import InterferenceModel
from repro.hadoop.jobtracker import JobState, JobTracker
from repro.hadoop.metrics import SimMetrics
from repro.hadoop.tasktracker import TaskAttempt, TaskTracker
from repro.hadoop.transfer import NetworkSimulator
from repro.obs import lpprof
from repro.obs.ledger import DollarLedger, emit_run_summary
from repro.obs.registry import current_registry
from repro.obs.trace import current_tracer
from repro.schedulers.base import Assignment, TaskScheduler
from repro.workload.job import Workload


@dataclass
class SimConfig:
    """Simulator knobs.

    ``heartbeat_s`` is the TaskTracker heartbeat period — idle slots retry
    at this cadence (this is also what lets the delay scheduler's waiting
    pay off).  ``speculative`` enables straggler duplication (the paper
    keeps it off for LiPS and notes it raises the baselines' dollar cost).
    """

    replication: int = 3
    heartbeat_s: float = 3.0
    speculative: bool = False
    speculation_min_elapsed: float = 60.0
    placement_seed: int = 0
    populate: str = "random"  # "random" | "origin" | "capacity"
    max_events: int = 50_000_000
    #: abort if tasks are pending but nothing has launched or completed for
    #: this many simulated seconds (catches schedulers that never assign)
    starvation_timeout_s: float = 6 * 3600.0
    #: optional co-location slowdown model (None = no interference)
    interference: Optional["InterferenceModel"] = None
    #: record one AttemptRecord per finished/killed attempt (job history)
    record_history: bool = False
    #: trace emitter (repro.obs.trace).  None falls back to the ambient
    #: tracer — the null tracer unless the CLI installed one via --trace.
    tracer: Optional[object] = None

    def __post_init__(self) -> None:
        if self.heartbeat_s <= 0:
            raise ValueError("heartbeat_s must be positive")
        if self.populate not in ("random", "origin", "capacity"):
            raise ValueError("populate must be 'random', 'origin' or 'capacity'")


class _OriginPlacement(PlacementPolicy):
    """Places every block at its data object's origin store."""

    def __init__(self, workload: Workload) -> None:
        self.origin = {d.data_id: d.origin_store for d in workload.data}

    def choose(self, cluster, block, replication, rng, used_mb):
        return [self.origin[block.data_id]]


@dataclass
class SimResult:
    """Everything a benchmark needs from one run."""

    metrics: SimMetrics
    scheduler_name: str
    num_jobs: int
    num_tasks: int

    @property
    def total_cost(self) -> float:
        """Total dollars of the run."""
        return self.metrics.total_cost

    @property
    def makespan(self) -> float:
        """Run makespan in simulated seconds."""
        return self.metrics.makespan


class HadoopSimulator:
    """One simulated Hadoop cluster run."""

    def __init__(
        self,
        cluster: Cluster,
        workload: Workload,
        scheduler: TaskScheduler,
        config: Optional[SimConfig] = None,
        failures: Optional["FailurePlan"] = None,
        chaos: Optional["ChaosPlan"] = None,
    ) -> None:
        self.cluster = cluster
        self.workload = workload
        self.scheduler = scheduler
        self.config = config or SimConfig()
        self.failures = failures
        if failures is not None:
            failures.validate(cluster.num_machines)
        self.chaos = chaos
        if chaos is not None:
            chaos.validate(cluster)
        self.tracer = (
            self.config.tracer if self.config.tracer is not None else current_tracer()
        )
        self.events = EventQueue(tracer=self.tracer)
        if self.config.populate == "origin":
            policy: PlacementPolicy = _OriginPlacement(workload)
        elif self.config.populate == "capacity":
            policy = CapacityAwarePlacement()
        else:
            policy = RandomPlacement()
        self.hdfs = HDFS(
            cluster,
            replication=self.config.replication,
            policy=policy,
            seed=self.config.placement_seed,
        )
        self.jobtracker = JobTracker(self.hdfs, tracer=self.tracer)
        self.trackers: List[TaskTracker] = [
            TaskTracker(m, tracer=self.tracer) for m in cluster.machines
        ]
        self.network = NetworkSimulator(cluster, tracer=self.tracer)
        self.metrics = SimMetrics()
        self.history = JobHistory() if self.config.record_history else None
        self._heartbeat_scheduled = False
        self._last_progress = 0.0
        self._epoch_index = 0
        #: causal identity of the in-flight epoch / most recent LP solve /
        #: most recent placement move (None on untraced runs) — plan-driven
        #: schedulers read these to link their planned attempts
        self.current_epoch_span: Optional[int] = None
        self.last_lp_span: Optional[int] = None
        self.last_move_span: Optional[int] = None

    @property
    def now(self) -> float:
        """Current simulation time."""
        return self.events.now

    # -- setup ------------------------------------------------------------
    def _populate(self) -> None:
        self.hdfs.populate(self.workload.data)

    def _submit_all(self) -> None:
        for job in self.workload.jobs_by_arrival():
            self.events.schedule(job.arrival_time, self._make_arrival(job), priority=-1)

    def _make_arrival(self, job):
        def arrive() -> None:
            state = self.jobtracker.submit(job, self.workload, self.now)
            self._last_progress = self.now
            self.scheduler.on_job_added(state, self.now)
            self._offer_all_idle()
            self._ensure_heartbeat()

        return arrive

    # -- slot offering -------------------------------------------------------
    def _offer_all_idle(self) -> None:
        self._offer_map_slots()
        self._offer_reduce_slots()

    def _offer_map_slots(self, only: Optional[TaskTracker] = None) -> None:
        """Fill free map slots, in machine-id order, on every tracker (or just
        ``only``) that the scheduler wants offered — see
        :meth:`TaskScheduler.offer_interest`; under speculation, on all."""
        interest = None if self.config.speculative else self.scheduler.offer_interest()
        if only is not None:
            trackers = [only] if interest is None or only.machine_id in interest else []
        else:
            trackers = self.trackers if interest is None else [self.trackers[m] for m in interest]
        for tracker in trackers:
            while tracker.has_free_slot:
                if not self._offer_slot(tracker):
                    break

    def _offer_reduce_slots(self) -> None:
        # cheap short-circuit: most runs are map-only, and this fires on
        # every heartbeat for every tracker — without it, 100 trackers x
        # 30k heartbeats x a full queue scan each dominates the wall clock
        if not any(j.reduce_pending for j in self.jobtracker.queue):
            return
        for tracker in self.trackers:
            while tracker.has_free_reduce_slot:
                assignment = self.scheduler.select_reduce_task(tracker, self.now)
                if assignment is None:
                    break
                self._launch_reduce(tracker, assignment)

    def _offer_slot(self, tracker: TaskTracker) -> bool:
        """Offer one free slot; returns True if a task launched."""
        assignment = self.scheduler.select_task(tracker, self.now)
        if assignment is None and self.config.speculative:
            assignment = self._speculative_assignment(tracker)
        if assignment is None:
            return False
        self._launch(tracker, assignment)
        return True

    def _speculative_assignment(self, tracker: TaskTracker) -> Optional[Assignment]:
        cand = self.jobtracker.speculation_candidate(
            self.now, min_elapsed=self.config.speculation_min_elapsed
        )
        if cand is None:
            return None
        job, task, _primary = cand
        source = self._best_source(task, tracker)
        return Assignment(job=job, task=task, source_store=source, speculative=True)

    def _interference_factor(self, tracker: TaskTracker) -> float:
        """Wall-time stretch for a new attempt given current co-runners."""
        model = self.config.interference
        if model is None:
            return 1.0
        running = list(tracker.running.values()) + list(tracker.reduce_running.values())
        co_io = sum(1 for a in running if not a.read_is_local)
        return model.slowdown(len(running), co_io)

    def _best_source(self, task, tracker: TaskTracker) -> Optional[int]:
        """Cheapest-then-fastest *online* replica for a read by ``tracker``."""
        candidates = [s for s in task.candidate_stores if self.store_online(s)]
        if not candidates:
            return None
        ms = self.cluster.network.ms_cost
        bw = self.cluster.network.bandwidth
        return min(
            candidates,
            key=lambda s: (ms[tracker.machine_id, s], -bw[tracker.machine_id, s]),
        )

    # -- launching/completion ---------------------------------------------------
    def _launch(self, tracker: TaskTracker, assignment: Assignment) -> None:
        task = assignment.task
        job = assignment.job
        speculative = assignment.speculative
        if not speculative:
            job.take_pending(task)

        source = assignment.source_store
        read_s = 0.0
        local = True
        if task.input_mb > 0:
            if source is None:
                raise RuntimeError(f"task {task.key} needs a source store")
            read_s = self.network.read_time(tracker.machine_id, source, task.input_mb)
            store = self.cluster.stores[source]
            local = store.colocated_machine == tracker.machine_id
            if not local:
                self.network.flow_started(tracker.machine_id, now=self.now)
        compute_s = task.cpu_seconds / tracker.machine.slot_ecu
        compute_s *= self._interference_factor(tracker)
        compute_s *= self._chaos_factor(tracker)
        attempt = self.jobtracker.new_attempt(
            job,
            task,
            tracker,
            source,
            self.now,
            read_s,
            compute_s,
            speculative=speculative,
        )
        attempt.read_is_local = local
        if self.tracer.enabled:
            attempt.span_id = self.tracer.new_span_id()
            if assignment.links is not None:
                attempt.parent_span = assignment.links.epoch
                attempt.links = assignment.links.link_ids()
        tracker.launch(attempt)
        self._last_progress = self.now
        if speculative:
            self.metrics.speculative_attempts += 1
        if self._chaos_read_blocked(tracker, task, source):
            # the read is doomed: it burns its transfer time, then fails
            attempt.finish_event = self.events.schedule(
                self.now + read_s, lambda: self._chaos_read_failed(tracker, attempt, job)
            )
            return
        attempt.finish_event = self.events.schedule(
            self.now + attempt.duration, lambda: self._complete(tracker, attempt, job)
        )

    def _launch_reduce(self, tracker: TaskTracker, assignment: Assignment) -> None:
        """Start a reduce attempt: fetch shuffle segments, then reduce."""
        task = assignment.task
        job = assignment.job
        job.reduce_pending.remove(task)
        mm_bw = self.cluster.network.mm_bandwidth
        read_s = sum(
            mb / mm_bw[src, tracker.machine_id]
            for src, mb in task.shuffle_sources.items()
        )
        if task.shuffle_sources:
            read_s += self.network.per_flow_latency_s
        compute_s = task.cpu_seconds / tracker.machine.slot_ecu
        compute_s *= self._interference_factor(tracker)
        compute_s *= self._chaos_factor(tracker)
        attempt = self.jobtracker.new_attempt(
            job, task, tracker, None, self.now, read_s, compute_s
        )
        attempt.read_is_local = True  # shuffle locality tracked separately
        if self.tracer.enabled:
            attempt.span_id = self.tracer.new_span_id()
            if assignment.links is not None:
                attempt.parent_span = assignment.links.epoch
                attempt.links = assignment.links.link_ids()
        tracker.launch(attempt)
        self._last_progress = self.now
        attempt.finish_event = self.events.schedule(
            self.now + attempt.duration, lambda: self._complete(tracker, attempt, job)
        )

    def _complete(self, tracker: TaskTracker, attempt: TaskAttempt, job: JobState) -> None:
        task = attempt.task
        machine = tracker.machine
        if not attempt.read_is_local and task.input_mb > 0:
            self.network.flow_finished(tracker.machine_id, now=self.now)
        tracker.complete(attempt)

        # -- charge the attempt's real dollar cost --
        self.metrics.ledger.charge_cpu(
            machine.execution_cost(task.cpu_seconds),
            job_id=job.job_id,
            machine_id=machine.machine_id,
            span_id=attempt.span_id,
        )
        if task.is_reduce:
            mm = self.cluster.network.mm_cost
            for src, mb in task.shuffle_sources.items():
                price = mm[src, machine.machine_id]
                if price > 0:
                    self.metrics.ledger.charge_runtime_transfer(
                        mb * price,
                        job_id=job.job_id,
                        machine_id=machine.machine_id,
                        detail="shuffle",
                        span_id=attempt.span_id,
                    )
            self.metrics.shuffle_mb += task.input_mb
            if self.tracer.enabled and task.input_mb > 0:
                self.tracer.event(
                    "transfer",
                    "shuffle",
                    attempt.start_time,
                    job=job.job_id,
                    machine=machine.machine_id,
                    mb=task.input_mb,
                    tier="shuffle",
                    sources=len(task.shuffle_sources),
                )
        if task.input_mb > 0 and attempt.source_store is not None:
            price = self.cluster.network.ms_cost[machine.machine_id, attempt.source_store]
            if price > 0:
                self.metrics.ledger.charge_runtime_transfer(
                    task.input_mb * price,
                    job_id=job.job_id,
                    machine_id=machine.machine_id,
                    store_id=attempt.source_store,
                    span_id=attempt.span_id,
                )
            store = self.cluster.stores[attempt.source_store]
            if attempt.read_is_local:
                tier = "local"
                self.metrics.local_read_mb += task.input_mb
            elif store.zone == machine.zone:
                tier = "zone"
                self.metrics.zone_read_mb += task.input_mb
            else:
                tier = "remote"
                self.metrics.remote_read_mb += task.input_mb
            if self.tracer.enabled:
                self.tracer.event(
                    "transfer",
                    "read",
                    attempt.start_time,
                    job=job.job_id,
                    machine=machine.machine_id,
                    store=attempt.source_store,
                    mb=task.input_mb,
                    tier=tier,
                    read_s=attempt.read_seconds,
                )

        if task.is_reduce:
            self.metrics.reduces_run += 1
        else:
            self.metrics.tasks_run += 1
        if self.history is not None:
            self.history.add(
                AttemptRecord(
                    job_id=job.job_id,
                    task_index=task.task_index,
                    machine_id=machine.machine_id,
                    start_time=attempt.start_time,
                    finish_time=self.now,
                    read_seconds=attempt.read_seconds,
                    compute_seconds=attempt.compute_seconds,
                    outcome=SUCCESS,
                    is_reduce=task.is_reduce,
                    speculative=attempt.speculative,
                    source_store=attempt.source_store,
                )
            )
        self.metrics.machine_cpu_seconds[machine.machine_id] = (
            self.metrics.machine_cpu_seconds.get(machine.machine_id, 0.0) + task.cpu_seconds
        )
        self.metrics.machine_wall_busy[machine.machine_id] = (
            self.metrics.machine_wall_busy.get(machine.machine_id, 0.0) + attempt.duration
        )
        self.metrics.machine_last_finish[machine.machine_id] = self.now

        if task.key not in job.completed:
            if not task.is_reduce and job.job.num_reduces > 0:
                job.map_output_mb[machine.machine_id] = (
                    job.map_output_mb.get(machine.machine_id, 0.0)
                    + task.input_mb * job.job.shuffle_ratio
                )
            siblings = self.jobtracker.finish_attempt(job, attempt, self.now)
            for sib in siblings:
                self._kill(sib, job)
            self.scheduler.on_task_complete(job, task, self.now)
            if (
                not task.is_reduce
                and job.job.num_reduces > 0
                and job.maps_complete
                and not job.reduce_tasks
            ):
                self.jobtracker.create_reduces(job)
                self._offer_reduce_slots()
            if job.is_complete:
                self.metrics.job_durations[job.job_id] = job.duration or 0.0
                self.scheduler.on_job_complete(job, self.now)
        else:
            # a sibling already finished this task; nothing more to record
            self.jobtracker.drop_attempt(job, attempt)

        self._offer_map_slots(tracker)  # freed slot: offer immediately

    def _kill(self, attempt: TaskAttempt, job: JobState, detail: str = "killed-speculative") -> None:
        """Kill a running attempt, billing its partial burn."""
        tracker = self.trackers[attempt.machine_id]
        tracker.kill(attempt)
        self.jobtracker.drop_attempt(job, attempt)
        self.metrics.killed_attempts += 1
        if self.tracer.enabled:
            self.tracer.event(
                "task",
                "kill",
                self.now,
                job=job.job_id,
                task=attempt.task.task_index,
                attempt=attempt.attempt_id,
                machine=attempt.machine_id,
                speculative=attempt.speculative,
                detail=detail,
            )
        elapsed = max(0.0, self.now - attempt.start_time - attempt.read_seconds)
        burned = min(attempt.task.cpu_seconds, elapsed * tracker.machine.slot_ecu)
        if burned > 0:
            self.metrics.ledger.charge_cpu(
                tracker.machine.execution_cost(burned),
                job_id=job.job_id,
                machine_id=tracker.machine_id,
                detail=detail,
                span_id=attempt.span_id,
            )
        if attempt.task.input_mb > 0 and attempt.source_store is not None:
            price = self.cluster.network.ms_cost[tracker.machine_id, attempt.source_store]
            if price > 0:
                self.metrics.ledger.charge_runtime_transfer(
                    attempt.task.input_mb * price,
                    job_id=job.job_id,
                    machine_id=tracker.machine_id,
                    store_id=attempt.source_store,
                    detail=detail,
                    span_id=attempt.span_id,
                )
        if not attempt.read_is_local:
            self.network.flow_finished(tracker.machine_id, now=self.now)
        if self.history is not None:
            self.history.add(
                AttemptRecord(
                    job_id=job.job_id,
                    task_index=attempt.task.task_index,
                    machine_id=tracker.machine_id,
                    start_time=attempt.start_time,
                    finish_time=self.now,
                    read_seconds=attempt.read_seconds,
                    compute_seconds=attempt.compute_seconds,
                    outcome=KILLED,
                    is_reduce=attempt.task.is_reduce,
                    speculative=attempt.speculative,
                    source_store=attempt.source_store,
                    detail=detail,
                )
            )

    # -- failure injection --------------------------------------------------
    def store_online(self, store_id: int) -> bool:
        """A co-located store is reachable iff its machine is alive."""
        store = self.cluster.stores[store_id]
        if store.colocated_machine is None:
            return True
        return self.trackers[store.colocated_machine].alive

    def _schedule_failures(self) -> None:
        plans = []
        if self.failures is not None:
            plans.append((self.failures, False))
        if self.chaos is not None and len(self.chaos.failures):
            plans.append((self.chaos.failures, True))
        for plan, from_chaos in plans:
            for ev in plan.events:
                self.events.schedule(
                    ev.fail_time,
                    lambda ev=ev, c=from_chaos: self._fail_machine(ev.machine_id, chaos=c),
                    priority=-3,
                )
                if ev.recover_time is not None:
                    self.events.schedule(
                        ev.recover_time,
                        lambda ev=ev: self._recover_machine(ev.machine_id),
                        priority=-3,
                    )

    # -- chaos injection ----------------------------------------------------
    def _count_chaos_fault(self, kind: str) -> None:
        """Account one injected chaos fault (run metrics + ambient registry)."""
        self.metrics.chaos_faults_injected += 1
        registry = current_registry()
        if registry is not None:
            registry.counter(
                "chaos_faults_injected_total", help="chaos faults injected by kind"
            ).inc(kind=kind)
        if self.tracer.enabled:
            self.tracer.event("chaos", "inject", self.now, kind=kind)

    def _chaos_factor(self, tracker: TaskTracker) -> float:
        """Straggler wall-time stretch for an attempt launching now."""
        if self.chaos is None:
            return 1.0
        factor = self.chaos.compute_factor(tracker.machine_id, self.now)
        if factor > 1.0:
            self._count_chaos_fault("straggler")
        return factor

    def _chaos_read_blocked(self, tracker: TaskTracker, task, source: Optional[int]) -> bool:
        """True when chaos dooms this attempt's input read (partition/store fault)."""
        if self.chaos is None or task.input_mb <= 0 or source is None:
            return False
        return self.chaos.read_blocked(
            tracker.machine.zone, self.cluster.stores[source].zone, source, self.now
        )

    def _chaos_read_failed(self, tracker: TaskTracker, attempt: TaskAttempt, job: JobState) -> None:
        """A doomed read just failed: bill the burn, re-queue with backoff."""
        task = attempt.task
        self._count_chaos_fault("read_error")
        self._kill(attempt, job, detail="chaos-read-error")
        self.metrics.failed_attempts += 1
        if task.key not in job.completed and task.key not in job.running:
            # back off past the fault window's hot edge, then retry wherever
            # the scheduler next places it
            task.earliest_start = max(
                task.earliest_start, self.now + self.chaos.next_backoff()
            )
            if task.is_reduce:
                if task not in job.reduce_pending:
                    job.reduce_pending.append(task)
            elif task not in job.pending:
                job.pending.append(task)
        self._offer_map_slots(tracker)

    def _fail_machine(self, machine_id: int, chaos: bool = False) -> None:
        tracker = self.trackers[machine_id]
        if not tracker.alive:
            return
        tracker.alive = False
        self.metrics.machine_failures += 1
        if chaos:
            self._count_chaos_fault("machine")
        victims = list(tracker.running.values()) + list(tracker.reduce_running.values())
        if self.tracer.enabled:
            self.tracer.event(
                "machine", "fail", self.now, machine=machine_id, victims=len(victims)
            )
        for attempt in victims:
            job = self.jobtracker.jobs[attempt.task.job_id]
            self._kill(attempt, job, detail="machine-failure")
            # already-completed siblings keep the task done; otherwise re-queue
            if attempt.task.key not in job.completed:
                if attempt.task.is_reduce:
                    if attempt.task not in job.reduce_pending:
                        job.reduce_pending.append(attempt.task)
                elif attempt.task not in job.pending:
                    job.pending.append(attempt.task)
            self.metrics.failed_attempts += 1
        self.scheduler.on_machine_failed(machine_id, self.now)
        self._offer_all_idle()  # survivors may take over immediately

    def _recover_machine(self, machine_id: int) -> None:
        tracker = self.trackers[machine_id]
        if tracker.alive:
            return
        tracker.alive = True
        if self.tracer.enabled:
            self.tracer.event("machine", "recover", self.now, machine=machine_id)
        self.scheduler.on_machine_recovered(machine_id, self.now)
        self._offer_all_idle()

    # -- heartbeats --------------------------------------------------------------
    def _ensure_heartbeat(self) -> None:
        if self._heartbeat_scheduled:
            return
        self._heartbeat_scheduled = True
        self.events.schedule_in(self.config.heartbeat_s, self._heartbeat, priority=5)

    def _heartbeat(self) -> None:
        self._heartbeat_scheduled = False
        if self.jobtracker.all_complete() and not self._arrivals_outstanding():
            return
        if self.jobtracker.has_pending_tasks():
            self._offer_all_idle()
            running = any(t.running for t in self.trackers)
            if (
                not running
                and self.now - self._last_progress > self.config.starvation_timeout_s
            ):
                raise RuntimeError(
                    f"scheduler starvation: tasks pending but nothing launched "
                    f"since t={self._last_progress:.0f}s (now {self.now:.0f}s)"
                )
        self._ensure_heartbeat()

    def _arrivals_outstanding(self) -> bool:
        return len(self.jobtracker.jobs) < self.workload.num_jobs

    # -- data movement (used by LiPS) ------------------------------------------
    def move_block(self, block, to_store: int, job_id: Optional[int] = None) -> float:
        """Move a block between stores; charges cost, returns completion time.

        On traced runs the move is a first-class span (``transfer/move``)
        parented to the in-flight epoch; :attr:`last_move_span` exposes its
        id so the planner can link the waiting task to it.
        """
        self.last_move_span = None
        src_candidates = list(block.replicas)
        if to_store in src_candidates:
            return self.now
        src = min(
            src_candidates,
            key=lambda s: self.cluster.network.ss_cost[s, to_store],
        )
        price = self.cluster.network.ss_cost[src, to_store]
        moved = self.hdfs.move_block(block, to_store)
        move_s = self.network.store_move_time(src, to_store, moved)
        if self.tracer.enabled and moved > 0:
            self.last_move_span = self.tracer.new_span_id()
        if moved > 0 and price > 0:
            self.metrics.ledger.charge_placement_transfer(
                moved * price,
                store_id=to_store,
                detail=f"block{block.block_id}",
                job_id=job_id,
                span_id=self.last_move_span,
            )
        self.metrics.moved_mb += moved
        if self.tracer.enabled and moved > 0:
            src_zone = self.cluster.stores[src].zone
            dst_zone = self.cluster.stores[to_store].zone
            causal = {}
            if self.current_epoch_span is not None:
                causal["parent"] = self.current_epoch_span
            self.tracer.span(
                "transfer",
                "move",
                self.now,
                move_s,
                block=block.block_id,
                job=job_id,
                src=src,
                dest=to_store,
                mb=moved,
                tier="zone" if src_zone == dst_zone else "remote",
                span_id=self.last_move_span,
                **causal,
            )
        return self.now + move_s

    # -- LP solve accounting -----------------------------------------------------
    def _on_lp_solve(self, rec) -> None:
        """lpprof collector: every backend solve during the run lands here.

        This is the *shared* LP accounting path — any scheduler (or model
        it delegates to) that solves an LP is counted, not just LiPS.
        """
        self.metrics.lp_solves += 1
        self.metrics.lp_solve_seconds += rec.wall_seconds
        self.metrics.registry.histogram(
            "lp_solve_duration_seconds", help="wall seconds per LP backend solve"
        ).observe(rec.wall_seconds, model=rec.name, backend=rec.backend)
        if self.tracer.enabled:
            self.last_lp_span = self.tracer.new_span_id()
            causal = {}
            if self.current_epoch_span is not None:
                causal["parent"] = self.current_epoch_span
            self.tracer.lp_solve(
                rec, ts=self.now, span_id=self.last_lp_span, **causal
            )

    # -- run ----------------------------------------------------------------------
    def run(self) -> SimResult:
        """Execute the whole workload; returns metrics."""
        self._populate()
        self._submit_all()
        self._schedule_failures()
        self.scheduler.bind(self)
        if self.scheduler.epoch_length:
            self._schedule_epoch(first=True)
        self._ensure_heartbeat()
        with lpprof.collect(self._on_lp_solve):
            self.events.run(max_events=self.config.max_events)
        if not self.jobtracker.all_complete():
            incomplete = [j.job.name for j in self.jobtracker.queue]
            raise RuntimeError(
                f"simulation drained with {len(incomplete)} incomplete jobs: "
                f"{incomplete[:5]}"
            )
        self.metrics.makespan = self.jobtracker.makespan()
        if self.tracer.enabled:
            dollars = DollarLedger.from_cost_ledger(self.metrics.ledger)
            dollars.reconcile(self.metrics.total_cost)
            dollars.emit(self.tracer, self.metrics.makespan)
            emit_run_summary(
                self.tracer,
                ts=self.metrics.makespan,
                scheduler=self.scheduler.name,
                total_cost=self.metrics.total_cost,
                makespan=self.metrics.makespan,
                tasks_run=self.metrics.tasks_run,
                reduces_run=self.metrics.reduces_run,
                moved_mb=self.metrics.moved_mb,
                lp_solves=self.metrics.lp_solves,
                lp_wall_s=self.metrics.lp_solve_seconds,
            )
        registry = current_registry()
        if registry is not None:
            self.metrics.publish(registry, scheduler=self.scheduler.name)
        return SimResult(
            metrics=self.metrics,
            scheduler_name=self.scheduler.name,
            num_jobs=self.workload.num_jobs,
            num_tasks=sum(len(j.tasks) for j in self.jobtracker.jobs.values()),
        )

    def _schedule_epoch(self, first: bool = False) -> None:
        """Fire the scheduler's epoch hook, re-reading ``epoch_length`` each
        time so adaptive schedulers can retune their own cadence."""
        e = self.scheduler.epoch_length
        assert e is not None and e > 0

        def fire() -> None:
            if not self.tracer.enabled:
                self.scheduler.on_epoch(self.now)
            else:
                index = self._epoch_index
                self._epoch_index += 1
                start = self.now
                queued = sum(
                    len(j.pending) + len(j.reduce_pending) for j in self.jobtracker.queue
                )
                cost0 = self.metrics.total_cost
                moved0 = self.metrics.moved_mb
                solves0 = self.metrics.lp_solves
                lp_wall0 = self.metrics.lp_solve_seconds
                self.current_epoch_span = self.tracer.new_span_id()
                with lpprof.scope(epoch=index, scheduler=self.scheduler.name):
                    self.scheduler.on_epoch(self.now)
                stats = getattr(self.scheduler, "last_plan_stats", None) or {}
                self.tracer.span(
                    "epoch",
                    "scheduler-epoch",
                    start,
                    self.scheduler.epoch_length or e,
                    index=index,
                    queued=queued,
                    cost_delta=self.metrics.total_cost - cost0,
                    moved_mb=self.metrics.moved_mb - moved0,
                    lp_solves=self.metrics.lp_solves - solves0,
                    lp_wall_s=self.metrics.lp_solve_seconds - lp_wall0,
                    span_id=self.current_epoch_span,
                    **stats,
                )
                self.current_epoch_span = None
                self.last_lp_span = None
                self.last_move_span = None
            self._offer_all_idle()
            if not self.jobtracker.all_complete() or self._arrivals_outstanding():
                self._schedule_epoch()

        self.events.schedule(self.now if first else self.now + e, fire, priority=-2)
