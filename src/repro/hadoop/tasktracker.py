"""TaskTrackers: per-node slots and task attempt execution.

A :class:`TaskAttempt` is one execution of a :class:`SimTask` on a machine —
speculative execution may create several attempts per task; the first to
finish wins.  Attempt duration is ``read_time + cpu_seconds / ecu``; both
the read and the CPU burn are charged to the cost ledger by the simulator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, TYPE_CHECKING

from repro.cluster.machine import Machine
from repro.obs.trace import NULL_TRACER

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.hadoop.events import EventHandle


@dataclass(eq=False)
class SimTask:
    """A schedulable task: one block (map), an input-less slice, or a reduce.

    Tasks compare and hash by identity (one object per task), so ``task in
    job.pending`` is a C-level check, not a field-by-field ``__eq__``.

    ``candidate_stores`` lists stores currently holding the task's block;
    LiPS may rewrite it after moving data.  ``earliest_start`` delays tasks
    whose input is still in flight (LiPS placement moves).

    Reduce tasks set ``is_reduce`` and carry ``shuffle_sources`` — MB of map
    output to fetch per source machine — instead of a block.  Their
    ``task_index`` continues the map numbering, keeping keys unique.
    """

    job_id: int
    task_index: int
    input_mb: float
    cpu_seconds: float
    block_id: Optional[int] = None
    data_id: Optional[int] = None
    candidate_stores: List[int] = field(default_factory=list)
    earliest_start: float = 0.0
    #: set by LiPS plans: the store this task must read from
    pinned_store: Optional[int] = None
    is_reduce: bool = False
    shuffle_sources: Dict[int, float] = field(default_factory=dict)

    @property
    def key(self) -> tuple:
        """(job_id, task_index) — unique across map and reduce phases."""
        return (self.job_id, self.task_index)


@dataclass
class TaskAttempt:
    """One run of a task on a tracker."""

    attempt_id: int
    task: SimTask
    machine_id: int
    source_store: Optional[int]
    start_time: float
    read_seconds: float
    compute_seconds: float
    speculative: bool = False
    finish_event: Optional["EventHandle"] = None
    killed: bool = False
    #: causal identity (traced runs only): this attempt's span id, the
    #: epoch span that planned it, and links to the LP solve / placement
    #: move that caused it (see repro.obs.spans)
    span_id: Optional[int] = None
    parent_span: Optional[int] = None
    links: List[int] = field(default_factory=list)

    @property
    def duration(self) -> float:
        """Read plus compute wall seconds."""
        return self.read_seconds + self.compute_seconds

    @property
    def finish_time(self) -> float:
        """Scheduled completion time of the attempt."""
        return self.start_time + self.duration

    @property
    def is_local(self) -> bool:
        """True when the read came from the machine's own store (or no read)."""
        return self.source_store is None or self.read_is_local

    # populated by the simulator at launch
    read_is_local: bool = False


class TaskTracker:
    """Slot bookkeeping for one machine."""

    def __init__(self, machine: Machine, tracer=None) -> None:
        self.machine = machine
        self.map_slots = machine.map_slots
        self.reduce_slots = machine.reduce_slots
        self.running: Dict[int, TaskAttempt] = {}
        self.reduce_running: Dict[int, TaskAttempt] = {}
        self.cpu_busy_seconds = 0.0  # equivalent-CPU-seconds executed
        self.wall_busy_seconds = 0.0
        self.alive = True  # failure injection flips this
        #: trace emitter for attempt lifecycle (the simulator installs its own)
        self.tracer = tracer if tracer is not None else NULL_TRACER

    @property
    def machine_id(self) -> int:
        """The underlying machine's id."""
        return self.machine.machine_id

    @property
    def free_slots(self) -> int:
        """Free map slots (0 while the machine is down)."""
        if not self.alive:
            return 0
        return self.map_slots - len(self.running)

    @property
    def has_free_slot(self) -> bool:
        """True when a map slot is free."""
        return self.free_slots > 0

    @property
    def free_reduce_slots(self) -> int:
        """Free reduce slots (0 while the machine is down)."""
        if not self.alive:
            return 0
        return self.reduce_slots - len(self.reduce_running)

    @property
    def has_free_reduce_slot(self) -> bool:
        """True when a reduce slot is free."""
        return self.free_reduce_slots > 0

    def _pool_for(self, attempt: TaskAttempt) -> Dict[int, TaskAttempt]:
        return self.reduce_running if attempt.task.is_reduce else self.running

    def launch(self, attempt: TaskAttempt) -> None:
        """Occupy a slot with an attempt (map or reduce pool)."""
        if attempt.task.is_reduce:
            if not self.has_free_reduce_slot:
                raise RuntimeError(f"tracker {self.machine.name} has no free reduce slot")
            self.reduce_running[attempt.attempt_id] = attempt
        else:
            if not self.has_free_slot:
                raise RuntimeError(f"tracker {self.machine.name} has no free slot")
            self.running[attempt.attempt_id] = attempt
        if self.tracer.enabled:
            self.tracer.event(
                "task",
                "launch",
                attempt.start_time,
                job=attempt.task.job_id,
                task=attempt.task.task_index,
                attempt=attempt.attempt_id,
                machine=self.machine_id,
                reduce=attempt.task.is_reduce,
                speculative=attempt.speculative,
                read_s=attempt.read_seconds,
                compute_s=attempt.compute_seconds,
                span_id=attempt.span_id,
            )

    def complete(self, attempt: TaskAttempt) -> None:
        """Release the slot and accrue busy time."""
        self._pool_for(attempt).pop(attempt.attempt_id, None)
        if not attempt.killed:
            self.cpu_busy_seconds += attempt.task.cpu_seconds
            self.wall_busy_seconds += attempt.duration
            if self.tracer.enabled:
                causal = {}
                if attempt.parent_span is not None:
                    causal["parent"] = attempt.parent_span
                if attempt.links:
                    causal["links"] = attempt.links
                self.tracer.span(
                    "task",
                    "attempt",
                    attempt.start_time,
                    attempt.duration,
                    job=attempt.task.job_id,
                    task=attempt.task.task_index,
                    attempt=attempt.attempt_id,
                    machine=self.machine_id,
                    reduce=attempt.task.is_reduce,
                    speculative=attempt.speculative,
                    local=attempt.read_is_local,
                    source_store=attempt.source_store,
                    input_mb=attempt.task.input_mb,
                    read_s=attempt.read_seconds,
                    compute_s=attempt.compute_seconds,
                    span_id=attempt.span_id,
                    **causal,
                )

    def kill(self, attempt: TaskAttempt) -> float:
        """Kill a running attempt; returns the CPU-seconds it consumed so far.

        Killed attempts still burned cycles — the paper's point about
        speculative copies costing real dollars.
        """
        attempt.killed = True
        if attempt.finish_event is not None:
            attempt.finish_event.cancel()
        self._pool_for(attempt).pop(attempt.attempt_id, None)
        return attempt.task.cpu_seconds  # conservatively bill the full burn

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TaskTracker({self.machine.name!r}, "
            f"{len(self.running)}/{self.map_slots} slots busy)"
        )
