"""Quincy-style min-cost-flow scheduling (Isard et al., SOSP 2009).

The paper's main graph-based related work: "Quincy is a graph-based
scheduling model targeting fairness and data locality.  Its main idea is to
map the scheduling problem onto a min-cost network flow model ...  its
solution is a schedule that minimizes global cost."

This implementation maps the current queue onto a flow network

    source -> task_i -> machine_l -> sink
                   \\-> unscheduled -> sink

with unit task supplies, per-machine slot capacities, and edge costs that
encode either Quincy's own objective (bytes moved across the network —
``objective="locality"``) or LiPS' (dollars — ``objective="dollars"``), and
solves it with :func:`networkx.min_cost_flow`.  Tasks routed to a machine
are queued on that machine's plan; tasks routed to the ``unscheduled`` node
wait for the next solve, where their accumulated wait lowers the penalty of
staying unscheduled more slowly than the cost of a bad placement grows —
Quincy's patience mechanism.

The network is re-solved at most every ``refresh_s`` simulated seconds and
whenever the queue changes shape (arrivals, completions, failures).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

import networkx as nx

from repro.hadoop.tasktracker import SimTask, TaskTracker
from repro.schedulers.base import Assignment, TaskScheduler

#: fixed-point scale for integer edge costs (networkx wants ints)
COST_SCALE = 10**9


class QuincyScheduler(TaskScheduler):
    """Batch min-cost-flow scheduler.

    Parameters
    ----------
    objective:
        ``"locality"`` — edge cost is the MB a placement moves across the
        network (Quincy's objective); ``"dollars"`` — edge cost is the
        marginal dollar cost (execution + transfer), turning the same flow
        machinery into a cost-greedy batch optimiser.
    refresh_s:
        Minimum simulated seconds between solves (plus dirty-triggered
        solves on queue changes).
    unscheduled_cost_mb:
        Penalty (in the objective's units per task) for leaving a task
        unscheduled this round; lower values make the scheduler more
        patient for good placements.
    max_tasks_per_solve:
        Caps the network size; excess tasks wait for the next round.
    slots_lookahead:
        Each machine's sink capacity is ``map_slots * slots_lookahead``,
        letting one solve queue several task waves per machine (fewer,
        larger solves).
    """

    def __init__(
        self,
        objective: str = "locality",
        refresh_s: float = 3.0,
        unscheduled_cost_mb: float = 16.0,
        max_tasks_per_solve: int = 500,
        slots_lookahead: int = 3,
    ) -> None:
        super().__init__()
        if objective not in ("locality", "dollars"):
            raise ValueError("objective must be 'locality' or 'dollars'")
        if refresh_s <= 0:
            raise ValueError("refresh_s must be positive")
        if slots_lookahead < 1:
            raise ValueError("slots_lookahead must be >= 1")
        self.objective = objective
        self.refresh_s = refresh_s
        self.unscheduled_cost_mb = unscheduled_cost_mb
        self.max_tasks_per_solve = max_tasks_per_solve
        self.slots_lookahead = slots_lookahead
        self._plans: Dict[int, Deque[Tuple[object, SimTask, Optional[int]]]] = {}
        self._dirty = True
        self._last_solve = float("-inf")
        self.solves = 0

    # -- notifications -------------------------------------------------------
    def bind(self, sim) -> None:
        super().bind(sim)
        self._plans = {m.machine_id: deque() for m in sim.cluster.machines}

    def on_job_added(self, job, now: float) -> None:
        self._dirty = True

    def on_task_complete(self, job, task, now: float) -> None:
        """Completions keep the plan valid; a fresh solve happens on drain."""

    def on_machine_failed(self, machine_id: int, now: float) -> None:
        self._plans[machine_id].clear()
        self._dirty = True

    def on_machine_recovered(self, machine_id: int, now: float) -> None:
        self._dirty = True

    # -- edge costs -----------------------------------------------------------
    def _edge_cost(self, task: SimTask, machine_id: int, store: Optional[int]) -> float:
        """Objective units for running ``task`` on ``machine_id`` via ``store``."""
        if self.objective == "locality":
            if store is None or task.input_mb == 0:
                return 0.0
            s = self.sim.cluster.stores[store]
            if s.colocated_machine == machine_id:
                return 0.0
            machine = self.sim.cluster.machines[machine_id]
            # zone-local reads are cheaper than cross-zone, as in Quincy's
            # rack/cluster cost tiers
            factor = 0.25 if s.zone == machine.zone else 1.0
            return task.input_mb * factor
        # dollars
        machine = self.sim.cluster.machines[machine_id]
        cost = machine.execution_cost(task.cpu_seconds)
        if store is not None and task.input_mb > 0:
            cost += task.input_mb * self.sim.cluster.network.ms_cost[machine_id, store]
        return cost

    def _best_store(self, task: SimTask, machine_id: int) -> Optional[int]:
        if task.input_mb == 0:
            return None
        online = [s for s in task.candidate_stores if self.sim.store_online(s)]
        if not online:
            return None
        return min(online, key=lambda s: self._edge_cost(task, machine_id, s))

    def _unscheduled_cost(self, task: SimTask, best_edge: float) -> float:
        """Penalty for leaving the task unscheduled this round.

        Must exceed the task's best placement cost, so the ``U`` node only
        absorbs capacity overflow (min-cost flow then parks the tasks whose
        placements are *worst*, which is exactly Quincy's patience).
        """
        if self.objective == "locality":
            base = self.unscheduled_cost_mb
        else:
            # a rough dollar equivalent: cross-zone price for the penalty MB
            base = self.unscheduled_cost_mb * float(self.sim.cluster.network.ms_cost.max())
        return base + 2.0 * best_edge

    # -- the flow solve ----------------------------------------------------------
    def _solve(self, now: float) -> None:
        self.solves += 1
        self._last_solve = now
        self._dirty = False
        for plan in self._plans.values():
            plan.clear()

        entries: List[Tuple[object, SimTask]] = []
        for job in self.sim.jobtracker.queue:
            for task in job.pending:
                if task.earliest_start <= now:
                    entries.append((job, task))
                if len(entries) >= self.max_tasks_per_solve:
                    break
            if len(entries) >= self.max_tasks_per_solve:
                break
        if not entries:
            return

        g = nx.DiGraph()
        n = len(entries)
        g.add_node("src", demand=-n)
        g.add_node("sink", demand=n)
        g.add_node("U")
        g.add_edge("U", "sink", capacity=n, weight=0)

        alive = [t for t in self.sim.trackers if t.alive]
        for tracker in alive:
            g.add_node(("m", tracker.machine_id))
            g.add_edge(
                ("m", tracker.machine_id),
                "sink",
                capacity=tracker.map_slots * self.slots_lookahead,
                weight=0,
            )

        stores: Dict[Tuple[int, int], Optional[int]] = {}
        for i, (job, task) in enumerate(entries):
            g.add_edge("src", ("t", i), capacity=1, weight=0)
            best_edge = float("inf")
            for tracker in alive:
                store = self._best_store(task, tracker.machine_id)
                if task.input_mb > 0 and store is None:
                    continue  # no online replica
                stores[(i, tracker.machine_id)] = store
                cost = self._edge_cost(task, tracker.machine_id, store)
                best_edge = min(best_edge, cost)
                g.add_edge(
                    ("t", i),
                    ("m", tracker.machine_id),
                    capacity=1,
                    weight=int(cost * COST_SCALE),
                )
            if not (best_edge < float("inf")):
                best_edge = 0.0  # no placement possible: wait for free
            g.add_edge(
                ("t", i),
                "U",
                capacity=1,
                weight=int(self._unscheduled_cost(task, best_edge) * COST_SCALE),
            )

        flow = nx.min_cost_flow(g)
        for i, (job, task) in enumerate(entries):
            for dst, units in flow.get(("t", i), {}).items():
                if units > 0 and isinstance(dst, tuple) and dst[0] == "m":
                    machine_id = dst[1]
                    self._plans[machine_id].append(
                        (job, task, stores.get((i, machine_id)))
                    )

    # -- slot offers ---------------------------------------------------------------
    def _plans_drained(self) -> bool:
        return all(not p for p in self._plans.values())

    def select_task(self, tracker: TaskTracker, now: float) -> Optional[Assignment]:
        stale = now - self._last_solve >= self.refresh_s
        drained = self._plans_drained() and self.sim.jobtracker.has_pending_tasks()
        if (self._dirty and stale) or (drained and now > self._last_solve):
            self._solve(now)
        plan = self._plans.get(tracker.machine_id)
        while plan:
            job, task, store = plan.popleft()
            if task.key in job.completed or task not in job.pending:
                continue  # stale entry
            if store is not None and not self.sim.store_online(store):
                self._dirty = True
                continue
            return Assignment(job=job, task=task, source_store=store)
        return None

    @property
    def name(self) -> str:
        """Display name including the objective."""
        return f"QuincyScheduler({self.objective})"
