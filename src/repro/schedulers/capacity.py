"""CapacityScheduler: Hadoop's queue-based scheduler with elastic sharing.

The third mainstream Hadoop scheduler besides FIFO and Fair (it shipped
with Yahoo!'s distributions): each *queue* owns a guaranteed fraction of
the cluster's slots; idle guarantees lend out elastically, but a queue can
always claw back up to its guarantee as slots free.

Jobs map to queues via ``Job.pool``.  Queues are served most-underserved
first (running share vs guaranteed share), FIFO within a queue, with the
same greedy locality preference as the default scheduler — enough fidelity
to compare guarantee-based sharing against max-min fairness
(:class:`~repro.schedulers.fair.FairScheduler`) and against LiPS' LP-level
fair shares.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.hadoop.jobtracker import JobState
from repro.hadoop.tasktracker import TaskTracker
from repro.schedulers.base import Assignment, TaskScheduler
from repro.schedulers.fifo import best_task_for


class CapacityScheduler(TaskScheduler):
    """Queue capacities with elastic lending.

    Parameters
    ----------
    capacities:
        Queue name -> guaranteed fraction of cluster map slots.  Fractions
        must be positive and sum to at most 1; queues not listed share the
        leftover equally (or an equal split of everything when no map is
        given).
    elastic:
        Allow queues to exceed their guarantee using idle slots (the
        scheduler's signature feature; disabling it turns guarantees into
        hard caps).
    """

    def __init__(
        self,
        capacities: Optional[Dict[str, float]] = None,
        elastic: bool = True,
    ) -> None:
        super().__init__()
        caps = dict(capacities or {})
        if any(v <= 0 for v in caps.values()):
            raise ValueError("queue capacities must be positive")
        if sum(caps.values()) > 1.0 + 1e-9:
            raise ValueError("queue capacities must sum to at most 1")
        self.capacities = caps
        self.elastic = elastic

    # -- shares ---------------------------------------------------------------
    def _total_slots(self) -> int:
        return sum(t.map_slots for t in self.sim.trackers if t.alive)

    def _guarantee(self, queue: str, active_queues: List[str]) -> float:
        if queue in self.capacities:
            return self.capacities[queue]
        unlisted = [q for q in active_queues if q not in self.capacities]
        if not unlisted:
            return 0.0
        leftover = max(0.0, 1.0 - sum(self.capacities.get(q, 0.0) for q in active_queues))
        return leftover / len(unlisted)

    def _queues(self) -> Dict[str, List[JobState]]:
        queues: Dict[str, List[JobState]] = {}
        for job in self.sim.jobtracker.queue:
            if job.pending:
                queues.setdefault(job.job.pool, []).append(job)
        return queues

    def _running_share(self, queue: str) -> int:
        return sum(j.num_running for j in self.sim.jobtracker.queue if j.job.pool == queue)

    # -- decision ----------------------------------------------------------------
    def select_task(self, tracker: TaskTracker, now: float) -> Optional[Assignment]:
        queues = self._queues()
        if not queues:
            return None
        active = sorted(queues)
        total = max(1, self._total_slots())

        def deficit(queue: str) -> float:
            guarantee_slots = self._guarantee(queue, active) * total
            if guarantee_slots <= 0:
                return float("inf")
            return self._running_share(queue) / guarantee_slots

        for queue in sorted(active, key=deficit):
            over_guarantee = (
                self._running_share(queue)
                >= self._guarantee(queue, active) * total - 1e-9
            )
            if over_guarantee and not self.elastic:
                continue  # hard cap
            for job in sorted(queues[queue], key=lambda j: (j.submit_time, j.job_id)):
                found = best_task_for(self.sim, job, tracker, now)
                if found is not None:
                    task, store, _level = found
                    return Assignment(job=job, task=task, source_store=store)
        return None
