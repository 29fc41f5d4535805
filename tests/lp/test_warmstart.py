"""Warm-started epoch solves must be indistinguishable from cold ones.

The warm-start pipeline (standard-form cache -> basis snapshot/repair ->
warm simplex) may only change *wall time*, never results: every epoch
objective must match a from-scratch solve within ``1e-7`` relative, under
job arrival and departure churn between epochs.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster.builder import ClusterBuilder
from repro.cluster.topology import Topology
from repro.core.co_online import OnlineModelConfig, solve_co_online
from repro.core.epoch import EpochController
from repro.core.model import SchedulingInput
from repro.hadoop.sim import HadoopSimulator, SimConfig
from repro.lp.scipy_backend import HighsBackend
from repro.lp.simplex import SimplexBackend
from repro.lp.warmstart import WarmStartContext
from repro.obs.registry import MetricsRegistry, use_registry
from repro.schedulers.lips import LipsScheduler
from repro.workload.job import DataObject, Job, Workload

REL_TOL = 1e-7

#: pool of five jobs churn subsets are drawn from
POOL = tuple(range(5))


def _cluster():
    b = ClusterBuilder(topology=Topology.of(["za", "zb"]), default_uptime=10_000.0)
    b.add_machine("a0", ecu=2.0, cpu_cost=5.0e-5, zone="za")
    b.add_machine("a1", ecu=3.0, cpu_cost=4.0e-5, zone="za")
    b.add_machine("b0", ecu=5.0, cpu_cost=1.0e-5, zone="zb")
    b.add_machine("b1", ecu=4.0, cpu_cost=2.0e-5, zone="zb")
    return b.build()


def _workload_for(job_ids):
    """Workload over the given subset of the five-job pool.

    Jobs and data are densely renumbered per subset (the Workload
    contract); stable pool identity — what the warm-start labels key on —
    travels separately via the ``job_keys`` argument of solve_co_online.
    """
    data = [
        DataObject(data_id=i, name=f"d{j}", size_mb=64.0 * (j + 1), origin_store=j % 4)
        for i, j in enumerate(job_ids)
    ]
    jobs = [
        Job(
            job_id=i,
            name=f"j{j}",
            tcp=(10.0 + 7.0 * j) / 64.0,
            data_ids=[i],
            num_tasks=4 + j,
        )
        for i, j in enumerate(job_ids)
    ]
    return Workload(jobs=jobs, data=data)


def _input_for(cluster, job_ids):
    """SchedulingInput over the given subset of the five-job pool."""
    return SchedulingInput.from_parts(cluster, _workload_for(job_ids))


def _assert_stream_matches_cold(epoch_subsets, epoch_length=200.0):
    """Solve the subset stream warm and cold.

    Every epoch's warm objective must match a from-scratch solve within
    ``REL_TOL``.
    """
    cluster = _cluster()
    config = OnlineModelConfig(epoch_length=epoch_length)
    ctx = WarmStartContext()
    warm_backend = SimplexBackend()
    for job_ids in epoch_subsets:
        inp = _input_for(cluster, job_ids)
        warm = solve_co_online(
            inp,
            config,
            backend=warm_backend,
            warm=ctx,
            job_keys=list(job_ids),
        )
        cold = solve_co_online(inp, config, backend=SimplexBackend())
        scale = max(1.0, abs(cold.objective))
        assert abs(warm.objective - cold.objective) <= REL_TOL * scale, (
            job_ids,
            warm.objective,
            cold.objective,
        )
    return ctx


class TestWarmEqualsCold:
    def test_identical_epochs(self):
        ctx = _assert_stream_matches_cold([(0, 1, 2)] * 4)
        stats = ctx.stats()
        # after the first cold epoch the stream should actually warm-start
        assert stats["warm_solves"] >= 2
        assert stats["std_cache_hits"] >= 2

    def test_job_arrival(self):
        _assert_stream_matches_cold([(0, 1), (0, 1), (0, 1, 2), (0, 1, 2)])

    def test_job_departure(self):
        _assert_stream_matches_cold([(0, 1, 2, 3), (0, 1, 2, 3), (1, 3), (1, 3)])

    def test_arrival_and_departure_mix(self):
        _assert_stream_matches_cold(
            [(0, 1, 2), (1, 2, 3), (1, 2, 3, 4), (0, 4), (0, 4), (0, 1, 2)]
        )

    def test_departure_then_return(self):
        # departed jobs' columns are dropped from the basis, then come back
        _assert_stream_matches_cold([(0, 1, 2, 3), (1, 3), (1, 3), (0, 1, 2, 3)])

    def test_warm_pivots_are_saved_on_repeats(self):
        ctx = _assert_stream_matches_cold([(0, 1, 2, 3)] * 4)
        assert ctx.stats()["pivots_saved"] > 0


@given(
    st.lists(
        st.sets(st.sampled_from(POOL), min_size=1, max_size=5),
        min_size=2,
        max_size=5,
    )
)
@settings(max_examples=25, deadline=None)
def test_random_epoch_deltas_property(subsets):
    """Any churn sequence: warm objectives match cold within tolerance."""
    _assert_stream_matches_cold([tuple(sorted(s)) for s in subsets])


class _Spy:
    """Delegating backend that keeps every assembled model it is handed."""

    def __init__(self, inner):
        self.inner = inner
        self.name = inner.name
        self.supports_warm_start = getattr(inner, "supports_warm_start", False)
        self.models = []

    def solve_assembled(self, asm, **kwargs):
        self.models.append(asm)
        return self.inner.solve_assembled(asm, **kwargs)


def _epoch_run(backend):
    """A two-job EpochController run spanning several epochs."""
    controller = EpochController(_cluster(), 5.0, backend=backend)
    controller.run(_workload_for((3, 4)))
    return controller


def _lips_run(backend):
    """A LiPS simulation whose short epochs need several LP solves."""
    scheduler = LipsScheduler(epoch_length=5.0, backend=backend)
    HadoopSimulator(
        _cluster(),
        _workload_for((2, 3, 4)),
        scheduler,
        SimConfig(placement_seed=0, speculative=False),
    ).run()
    return scheduler


#: the two solve streams: one EpochController run, one LiPS simulation
STREAMS = pytest.mark.parametrize(
    "run", [_epoch_run, _lips_run], ids=["epoch-controller", "lips"]
)


class TestWarmSelection:
    @STREAMS
    def test_simplex_streams_warm_start(self, run):
        """A warm-start-capable backend is enough to warm-start a stream."""
        spy = _Spy(SimplexBackend())
        owner = run(spy)
        assert len(spy.models) >= 2
        assert owner.warm_context.warm_solves >= 1
        assert all(asm.col_labels is not None for asm in spy.models)


class TestNonWarmBackends:
    @STREAMS
    def test_highs_streams_stay_cold(self, run):
        """HiGHS gets the plain model: no labels, no warm-start accounting."""
        spy = _Spy(HighsBackend())
        owner = run(spy)
        assert len(spy.models) >= 2
        stats = owner.warm_context.stats()
        assert stats["warm_solves"] == 0 and stats["cold_solves"] == 0
        assert all(asm.col_labels is None for asm in spy.models)

    def test_incremental_none_is_plain_cold_path(self):
        cluster = _cluster()
        config = OnlineModelConfig(epoch_length=200.0)
        a = solve_co_online(_input_for(cluster, (0, 2)), config, backend=SimplexBackend())
        b = solve_co_online(_input_for(cluster, (0, 2)), config, backend=SimplexBackend())
        assert a.objective == pytest.approx(b.objective)


class TestWarmStartContext:
    def test_stats_keys(self):
        stats = WarmStartContext().stats()
        assert {
            "warm_solves",
            "cold_solves",
            "fallbacks",
            "pivots_saved",
            "std_cache_hits",
            "std_cache_misses",
        } <= set(stats)
        assert all(v == 0 for v in stats.values())

    def test_std_cache_counters_reach_registry(self):
        registry = MetricsRegistry()
        with use_registry(registry):
            ctx = _assert_stream_matches_cold([(0, 1, 2)] * 3)
        totals = {m["name"]: m for m in registry.dump()}
        hits = totals["simplex.std_cache_hits"]
        misses = totals["simplex.std_cache_misses"]
        assert ctx.std_cache.hits >= 1 and ctx.std_cache.misses >= 1
        assert sum(s["value"] for s in hits["series"]) == ctx.std_cache.hits
        assert sum(s["value"] for s in misses["series"]) == ctx.std_cache.misses

    def test_fake_fraction_consistency_under_warm(self):
        """Tight epochs park work on the fake node identically warm or cold."""
        cluster = _cluster()
        config = OnlineModelConfig(epoch_length=5.0)
        ctx = WarmStartContext()
        backend = SimplexBackend()
        for _ in range(3):
            inp = _input_for(cluster, (0, 1, 2))
            warm = solve_co_online(
                inp, config, backend=backend, warm=ctx, job_keys=(0, 1, 2)
            )
            cold = solve_co_online(inp, config, backend=SimplexBackend())
            assert np.allclose(warm.fake.sum(), cold.fake.sum(), atol=1e-6)
