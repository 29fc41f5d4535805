"""The JobTracker: job queue, task bookkeeping and speculative execution.

Holds one :class:`JobState` per submitted job, expands jobs into block-level
:class:`~repro.hadoop.tasktracker.SimTask` map tasks (one map per HDFS block,
exactly the Table IV arithmetic: 100 GB / 64 MB + 8 Pi tasks = 1608 maps),
and mediates between free slots and the pluggable scheduler.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from repro.hadoop.hdfs import HDFS
from repro.hadoop.tasktracker import SimTask, TaskAttempt, TaskTracker
from repro.obs.trace import NULL_TRACER
from repro.workload.job import Job, Workload


@dataclass
class JobState:
    """Runtime state of one job."""

    job: Job
    tasks: List[SimTask]
    pending: List[SimTask] = field(default_factory=list)
    running: Dict[tuple, List[TaskAttempt]] = field(default_factory=dict)
    completed: Set[tuple] = field(default_factory=set)
    submit_time: float = 0.0
    finish_time: Optional[float] = None
    #: delay-scheduler bookkeeping: when the job started waiting for locality
    wait_started: Optional[float] = None
    locality_level_allowed: int = 0  # 0=node, 1=zone, 2=any
    #: reduce phase (created once all maps finish)
    reduce_tasks: List[SimTask] = field(default_factory=list)
    reduce_pending: List[SimTask] = field(default_factory=list)
    #: map-output MB accumulated per machine (shuffle sources)
    map_output_mb: Dict[int, float] = field(default_factory=dict)
    #: completion counters kept by finish_attempt — O(1) is_complete checks
    completed_maps: int = 0
    completed_reduces: int = 0
    #: trace identity of the job's submit event (traced runs only)
    span_id: Optional[int] = None

    @property
    def job_id(self) -> int:
        """The underlying job's id."""
        return self.job.job_id

    @property
    def maps_complete(self) -> bool:
        """True once every map task has completed."""
        return self.completed_maps == len(self.tasks)

    @property
    def is_complete(self) -> bool:
        """True once maps and (created) reduces all finished."""
        if not self.maps_complete:
            return False
        if self.job.num_reduces > 0 and not self.reduce_tasks:
            return False  # reduces not even created yet
        return self.completed_reduces == len(self.reduce_tasks)

    @property
    def num_pending(self) -> int:
        """Pending map tasks not yet launched."""
        return len(self.pending)

    @property
    def num_running(self) -> int:
        """Running attempts (all phases, speculative included)."""
        return sum(len(v) for v in self.running.values())

    @property
    def duration(self) -> Optional[float]:
        """Submit-to-finish seconds, None while running."""
        if self.finish_time is None:
            return None
        return self.finish_time - self.submit_time

    def take_pending(self, task: SimTask) -> None:
        """Remove a task from the pending queue at launch."""
        self.pending.remove(task)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"JobState({self.job.name!r}, pending={self.num_pending}, "
            f"running={self.num_running}, done={len(self.completed)}/{len(self.tasks)})"
        )


def expand_job(job: Job, workload: Workload, hdfs: HDFS) -> List[SimTask]:
    """Expand a job into block-granular map tasks.

    Input-bearing jobs get one task per HDFS block of their data objects
    (candidate stores = the block's replica set).  Input-less jobs get
    ``num_tasks`` equal CPU slices.
    """
    tasks: List[SimTask] = []
    if not job.data_ids:
        per_task = job.cpu_seconds_noinput / job.num_tasks
        for t in range(job.num_tasks):
            tasks.append(
                SimTask(
                    job_id=job.job_id,
                    task_index=t,
                    input_mb=0.0,
                    cpu_seconds=per_task,
                )
            )
        return tasks
    index = 0
    extra_cpu = job.cpu_seconds_noinput
    total_blocks = sum(len(hdfs.blocks_of(d)) for d in job.data_ids)
    for d in job.data_ids:
        for block in hdfs.blocks_of(d):
            # partial accesses scan only read_fraction of each block
            read_mb = block.size_mb * job.read_fraction
            cpu = job.tcp * read_mb
            if total_blocks:
                cpu += extra_cpu / total_blocks
            tasks.append(
                SimTask(
                    job_id=job.job_id,
                    task_index=index,
                    input_mb=read_mb,
                    cpu_seconds=cpu,
                    block_id=block.block_id,
                    data_id=d,
                    candidate_stores=list(block.replicas),
                )
            )
            index += 1
    return tasks


class JobTracker:
    """Job registry and attempt lifecycle."""

    def __init__(self, hdfs: HDFS, tracer=None) -> None:
        self.hdfs = hdfs
        self.jobs: Dict[int, JobState] = {}
        #: incomplete jobs only, FIFO by submit; finish_attempt drops a job
        #: the moment it completes, so per-heartbeat scans skip finished work
        self.queue: List[JobState] = []
        self._attempt_ids = itertools.count()
        #: trace emitter for job lifecycle (the simulator installs its own)
        self.tracer = tracer if tracer is not None else NULL_TRACER

    # -- job lifecycle ---------------------------------------------------------
    def submit(self, job: Job, workload: Workload, now: float) -> JobState:
        """Register a job, expanding it into block-level tasks."""
        if job.job_id in self.jobs:
            raise ValueError(f"job {job.job_id} already submitted")
        tasks = expand_job(job, workload, self.hdfs)
        state = JobState(job=job, tasks=tasks, pending=list(tasks), submit_time=now)
        self.jobs[job.job_id] = state
        if not state.is_complete:  # a job with no tasks is done on arrival
            self.queue.append(state)
        if self.tracer.enabled:
            state.span_id = self.tracer.new_span_id()
            self.tracer.event(
                "job",
                "submit",
                now,
                job=job.job_id,
                job_name=job.name,
                tasks=len(tasks),
                reduces=job.num_reduces,
                span_id=state.span_id,
            )
        return state

    def has_pending_tasks(self) -> bool:
        """True while any map or reduce awaits launch."""
        return any(j.pending or j.reduce_pending for j in self.queue)

    def create_reduces(self, job: JobState) -> List[SimTask]:
        """Materialise a job's reduce tasks once every map has finished.

        Each reducer pulls an equal share of the map output, with sources
        proportional to where the maps actually produced it.
        """
        if job.reduce_tasks or job.job.num_reduces == 0:
            return []
        if not job.maps_complete:
            raise RuntimeError(f"job {job.job.name!r}: maps not complete")
        total_output = sum(job.map_output_mb.values())
        n = job.job.num_reduces
        per_reduce = total_output / n if n else 0.0
        base_index = len(job.tasks)
        for r in range(n):
            sources = {
                m: mb / n for m, mb in job.map_output_mb.items() if mb > 0
            }
            task = SimTask(
                job_id=job.job_id,
                task_index=base_index + r,
                input_mb=per_reduce,
                cpu_seconds=job.job.reduce_cpu_per_mb * per_reduce,
                is_reduce=True,
                shuffle_sources=sources,
            )
            job.reduce_tasks.append(task)
            job.reduce_pending.append(task)
        return job.reduce_tasks

    # -- attempts ---------------------------------------------------------------
    def new_attempt(
        self,
        job: JobState,
        task: SimTask,
        tracker: TaskTracker,
        source_store: Optional[int],
        start_time: float,
        read_seconds: float,
        compute_seconds: float,
        speculative: bool = False,
    ) -> TaskAttempt:
        """Create and register a task attempt."""
        attempt = TaskAttempt(
            attempt_id=next(self._attempt_ids),
            task=task,
            machine_id=tracker.machine_id,
            source_store=source_store,
            start_time=start_time,
            read_seconds=read_seconds,
            compute_seconds=compute_seconds,
            speculative=speculative,
        )
        job.running.setdefault(task.key, []).append(attempt)
        return attempt

    def finish_attempt(self, job: JobState, attempt: TaskAttempt, now: float) -> List[TaskAttempt]:
        """Mark a successful attempt; returns sibling attempts to kill."""
        siblings = [
            a
            for a in job.running.pop(attempt.task.key, [])
            if a.attempt_id != attempt.attempt_id
        ]
        if attempt.task.key not in job.completed:
            job.completed.add(attempt.task.key)
            if attempt.task.is_reduce:
                job.completed_reduces += 1
            else:
                job.completed_maps += 1
        if job.is_complete and job.finish_time is None:
            job.finish_time = now
            self.queue = [j for j in self.queue if j is not job]
            if self.tracer.enabled:
                self.tracer.span(
                    "job",
                    "run",
                    job.submit_time,
                    now - job.submit_time,
                    job=job.job_id,
                    job_name=job.job.name,
                    tasks=len(job.tasks),
                    reduces=len(job.reduce_tasks),
                    span_id=self.tracer.new_span_id(),
                    parent=job.span_id,
                )
        return siblings

    def drop_attempt(self, job: JobState, attempt: TaskAttempt) -> None:
        """Remove a killed attempt from the running set."""
        lst = job.running.get(attempt.task.key)
        if lst is None:
            return
        lst[:] = [a for a in lst if a.attempt_id != attempt.attempt_id]
        if not lst:
            job.running.pop(attempt.task.key, None)

    # -- speculation ----------------------------------------------------------
    def speculation_candidate(
        self, now: float, max_copies: int = 2, min_elapsed: float = 60.0
    ) -> Optional[tuple]:
        """Pick a (job, task, attempt) worth duplicating (LATE-lite).

        Chooses the running task with the latest expected finish among jobs
        with no pending tasks, provided it has fewer than ``max_copies``
        attempts and has run at least ``min_elapsed`` seconds.
        """
        best = None
        best_finish = now
        for job in self.queue:
            if job.pending:
                continue
            for key, attempts in job.running.items():
                live = [a for a in attempts if not a.killed and not a.task.is_reduce]
                if not live or len(live) >= max_copies:
                    continue
                primary = live[0]
                if now - primary.start_time < min_elapsed:
                    continue
                if primary.finish_time > best_finish:
                    best_finish = primary.finish_time
                    best = (job, primary.task, primary)
        return best

    # -- metrics helpers ---------------------------------------------------------
    def all_complete(self) -> bool:
        """True when every submitted job finished."""
        return not self.queue

    def makespan(self) -> float:
        """Latest job finish time (0 when none finished)."""
        finishes = [j.finish_time for j in self.jobs.values() if j.finish_time is not None]
        return max(finishes, default=0.0)
