"""The scheduler plug-in interface (Hadoop's ``TaskScheduler``).

The simulator offers a free slot to the scheduler whenever one opens (task
completion, job arrival, heartbeat, epoch boundary); the scheduler answers
with an :class:`Assignment` or ``None``.  Epoch-driven schedulers (LiPS)
additionally receive ``on_epoch`` callbacks.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Optional, Sequence, TYPE_CHECKING

from repro.hadoop.tasktracker import SimTask, TaskTracker
from repro.obs.spans import PlanLinks

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.hadoop.jobtracker import JobState
    from repro.hadoop.sim import HadoopSimulator


@dataclass
class Assignment:
    """A scheduling decision: run ``task`` reading from ``source_store``.

    ``source_store`` is ``None`` for input-less tasks.  ``links`` is the
    causal context of plan-driven schedulers (the epoch/LP solve/data move
    behind the decision); the simulator copies it onto the attempt's trace
    span.  ``None`` for decision-per-offer schedulers.
    """

    job: "JobState"
    task: SimTask
    source_store: Optional[int]
    speculative: bool = False
    links: Optional[PlanLinks] = None


class TaskScheduler(abc.ABC):
    """Base class for simulator schedulers."""

    #: epoch period in seconds; None disables on_epoch callbacks
    epoch_length: Optional[float] = None

    def __init__(self) -> None:
        self.sim: Optional["HadoopSimulator"] = None

    def bind(self, sim: "HadoopSimulator") -> None:
        """Called once by the simulator before the run starts."""
        self.sim = sim

    # -- notifications ----------------------------------------------------
    def on_job_added(self, job: "JobState", now: float) -> None:
        """A job arrived in the queue."""

    def on_task_complete(self, job: "JobState", task: SimTask, now: float) -> None:
        """A task finished (first successful attempt)."""

    def on_job_complete(self, job: "JobState", now: float) -> None:
        """All of a job's tasks finished."""

    def on_epoch(self, now: float) -> None:
        """Epoch boundary (only fired when ``epoch_length`` is set)."""

    def on_machine_failed(self, machine_id: int, now: float) -> None:
        """A machine went down (its running tasks were re-queued)."""

    def on_machine_recovered(self, machine_id: int, now: float) -> None:
        """A failed machine rejoined the cluster."""

    # -- the decision ------------------------------------------------------
    def offer_interest(self) -> Optional[Sequence[int]]:
        """Machine ids, ascending, whose free slots ``select_task`` could fill.

        The simulator offers map slots only on these trackers, reading the
        interest once per offer sweep; ``None`` (the default) means every
        tracker, for schedulers that decide per offer.  Any tracker left out
        must be one where ``select_task`` would return ``None`` without side
        effects.  The interest is ignored when speculation is on, since a
        speculative copy may go to any tracker.
        """
        return None

    @abc.abstractmethod
    def select_task(self, tracker: TaskTracker, now: float) -> Optional[Assignment]:
        """Pick a task for a free slot on ``tracker`` (or decline)."""

    def select_reduce_task(self, tracker: TaskTracker, now: float) -> Optional[Assignment]:
        """Pick a reduce for a free reduce slot (default: FIFO first-ready).

        Hadoop schedules reduces wherever slots free up ("reduce operations
        are scheduled preferably close to their target data" is only a
        preference); cost-aware schedulers override this.
        """
        for job in self.sim.jobtracker.queue:
            for task in job.reduce_pending:
                if task.earliest_start <= now:
                    return Assignment(job=job, task=task, source_store=None)
        return None

    @property
    def name(self) -> str:
        """Display name used in results and reports."""
        return type(self).__name__
