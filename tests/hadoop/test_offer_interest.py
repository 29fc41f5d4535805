"""LiPS offer interest: offering only planned trackers changes nothing.

``LipsScheduler.offer_interest`` narrows every map-slot offer to the
machines with a non-empty plan.  The reference scheduler below returns
``None`` instead — the offer-every-tracker sweep — and both must produce
the exact same run: plain, under machine failures, under chaos and with
speculation on (where the simulator ignores the interest).
"""

import numpy as np
import pytest

from repro.hadoop.failures import FailurePlan
from repro.hadoop.sim import HadoopSimulator, SimConfig
from repro.obs.trace import Tracer
from repro.resilience import random_chaos_plan
from repro.resilience.soak import build_soak_cluster, build_soak_workload
from repro.schedulers import LipsScheduler
from tests.obs.test_sim_tracing import normalise

HORIZON_S = 4000.0


class OfferEveryone(LipsScheduler):
    """LiPS with the default interest: every tracker gets every offer."""

    def offer_interest(self):
        return None


class CountingLips(LipsScheduler):
    """LiPS that logs each offer: (machine, time, plan was empty, launched)."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.offers = []

    def select_task(self, tracker, now):
        empty = not self.plans[tracker.machine_id]
        assignment = super().select_task(tracker, now)
        self.offers.append((tracker.machine_id, now, empty, assignment is not None))
        return assignment


def run(scheduler_cls, case, seed=3):
    rng = np.random.default_rng(seed)
    cluster = build_soak_cluster(6, rng)
    workload = build_soak_workload(8, cluster.num_stores, HORIZON_S, rng)
    failures = chaos = None
    if case == "failures":
        failures = FailurePlan()
        failures.add(1, 200.0, 900.0)
        failures.add(4, 350.0)
    elif case == "chaos":
        chaos = random_chaos_plan(
            cluster, HORIZON_S, np.random.default_rng(seed + 1),
            mean_time_to_failure_s=1500.0, read_fault_prob=0.5,
        )
        assert len(chaos)
    tracer = Tracer()
    scheduler = scheduler_cls(epoch_length=120.0)
    sim = HadoopSimulator(
        cluster, workload, scheduler,
        SimConfig(placement_seed=seed, speculative=case == "speculative", tracer=tracer),
        failures=failures,
        chaos=chaos,
    )
    return sim.run(), normalise(tracer.records), scheduler


@pytest.mark.parametrize("case", ["plain", "failures", "chaos", "speculative"])
def test_interest_matches_offer_everyone(case):
    narrowed, narrowed_trace, _ = run(LipsScheduler, case)
    reference, reference_trace, _ = run(OfferEveryone, case)
    assert narrowed.total_cost == reference.total_cost
    assert narrowed.makespan == reference.makespan
    assert narrowed.metrics.job_durations == reference.metrics.job_durations
    assert narrowed.metrics.tasks_run == reference.metrics.tasks_run
    assert narrowed_trace == reference_trace
    if case == "failures":
        assert narrowed.metrics.machine_failures == 2
    if case == "chaos":
        assert narrowed.metrics.chaos_faults_injected > 0


@pytest.mark.parametrize("case", ["plain", "failures", "chaos"])
def test_offers_reach_only_planned_trackers(case):
    """Without speculation a tracker is offered a slot only while it has a
    plan.  The interest is read once per sweep, so the one exception is the
    declined re-offer right after a launch on that tracker drained its plan."""
    result, _, scheduler = run(CountingLips, case)
    offers = scheduler.offers
    # failures relaunch killed attempts, so launches can exceed tasks run
    assert sum(launched for *_, launched in offers) >= result.metrics.tasks_run
    for prev, (machine, now, empty, launched) in zip([None] + offers, offers):
        if empty:
            assert not launched
            assert prev is not None and prev[:2] == (machine, now) and prev[3]


def test_speculation_offers_every_tracker():
    _, _, scheduler = run(CountingLips, "speculative")
    assert any(empty for _, _, empty, _ in scheduler.offers)


def test_interest_lists_planned_machines_in_id_order():
    scheduler = LipsScheduler()
    scheduler.plans = {0: [], 1: ["entry"], 2: [], 3: ["a", "b"]}
    assert scheduler.offer_interest() == [1, 3]
