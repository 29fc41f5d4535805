"""Unit tests for the JobTracker: expansion, attempts, speculation, and the
incomplete-only queue with identity-equal tasks."""

import pytest

from repro.cluster.builder import ClusterBuilder
from repro.cluster.topology import Topology
from repro.hadoop.failures import FailurePlan
from repro.hadoop.hdfs import HDFS
from repro.hadoop.jobtracker import JobTracker, expand_job
from repro.hadoop.sim import HadoopSimulator, SimConfig
from repro.hadoop.tasktracker import SimTask, TaskTracker
from repro.schedulers import FifoScheduler
from repro.workload.job import DataObject, Job, Workload


@pytest.fixture
def env():
    b = ClusterBuilder(topology=Topology.of(["z"]), store_capacity_mb=1e6)
    for i in range(2):
        b.add_machine(f"m{i}", ecu=2.0, cpu_cost=1e-5, zone="z")
    cluster = b.build()
    data = [DataObject(data_id=0, name="d", size_mb=320.0, origin_store=0)]
    jobs = [
        Job(job_id=0, name="scan", tcp=0.5, data_ids=[0], num_tasks=5),
        Job(job_id=1, name="pi", tcp=0.0, num_tasks=3, cpu_seconds_noinput=300.0),
    ]
    w = Workload(jobs=jobs, data=data)
    hdfs = HDFS(cluster, replication=1, seed=0)
    hdfs.populate(w.data)
    return cluster, w, hdfs


def test_expand_data_job_one_task_per_block(env):
    cluster, w, hdfs = env
    tasks = expand_job(w.jobs[0], w, hdfs)
    assert len(tasks) == 5  # 320 MB / 64 MB
    assert sum(t.input_mb for t in tasks) == pytest.approx(320.0)
    assert sum(t.cpu_seconds for t in tasks) == pytest.approx(160.0)
    for t in tasks:
        assert t.candidate_stores  # replicas recorded


def test_expand_input_less_job(env):
    cluster, w, hdfs = env
    tasks = expand_job(w.jobs[1], w, hdfs)
    assert len(tasks) == 3
    assert all(t.input_mb == 0 for t in tasks)
    assert sum(t.cpu_seconds for t in tasks) == pytest.approx(300.0)


def test_submit_and_queue(env):
    cluster, w, hdfs = env
    jt = JobTracker(hdfs)
    jt.submit(w.jobs[0], w, now=1.0)
    assert jt.has_pending_tasks()
    with pytest.raises(ValueError, match="already submitted"):
        jt.submit(w.jobs[0], w, now=2.0)


def test_attempt_lifecycle(env):
    cluster, w, hdfs = env
    jt = JobTracker(hdfs)
    state = jt.submit(w.jobs[1], w, now=0.0)
    tracker = TaskTracker(cluster.machines[0])
    task = state.pending[0]
    state.take_pending(task)
    a = jt.new_attempt(state, task, tracker, None, 0.0, 0.0, 10.0)
    assert state.num_running == 1
    siblings = jt.finish_attempt(state, a, now=10.0)
    assert siblings == []
    assert task.key in state.completed
    assert not state.is_complete  # two tasks left


def test_job_completion_sets_finish_time(env):
    cluster, w, hdfs = env
    jt = JobTracker(hdfs)
    state = jt.submit(w.jobs[1], w, now=5.0)
    tracker = TaskTracker(cluster.machines[0])
    for task in list(state.pending):
        state.take_pending(task)
        a = jt.new_attempt(state, task, tracker, None, 5.0, 0.0, 1.0)
        jt.finish_attempt(state, a, now=6.0)
    assert state.is_complete
    assert state.finish_time == 6.0
    assert state.duration == pytest.approx(1.0)
    assert jt.makespan() == 6.0


def test_finish_returns_siblings_to_kill(env):
    cluster, w, hdfs = env
    jt = JobTracker(hdfs)
    state = jt.submit(w.jobs[1], w, now=0.0)
    tracker = TaskTracker(cluster.machines[0])
    task = state.pending[0]
    state.take_pending(task)
    primary = jt.new_attempt(state, task, tracker, None, 0.0, 0.0, 100.0)
    spec = jt.new_attempt(state, task, tracker, None, 50.0, 0.0, 100.0, speculative=True)
    siblings = jt.finish_attempt(state, primary, now=100.0)
    assert siblings == [spec]


def test_speculation_candidate_picks_longest_runner(env):
    cluster, w, hdfs = env
    jt = JobTracker(hdfs)
    state = jt.submit(w.jobs[1], w, now=0.0)
    tracker = TaskTracker(cluster.machines[0])
    # empty the pending queue (speculation only kicks when nothing pending)
    t_fast, t_slow, t3 = state.pending[:3]
    for t in (t_fast, t_slow, t3):
        state.take_pending(t)
    jt.new_attempt(state, t_fast, tracker, None, 0.0, 0.0, 50.0)
    slow_attempt = jt.new_attempt(state, t_slow, tracker, None, 0.0, 0.0, 500.0)
    jt.new_attempt(state, t3, tracker, None, 0.0, 0.0, 10.0)
    cand = jt.speculation_candidate(now=100.0)
    assert cand is not None
    _job, task, attempt = cand
    assert attempt is slow_attempt


def test_speculation_respects_min_elapsed(env):
    cluster, w, hdfs = env
    jt = JobTracker(hdfs)
    state = jt.submit(w.jobs[1], w, now=0.0)
    tracker = TaskTracker(cluster.machines[0])
    for t in list(state.pending):
        state.take_pending(t)
        jt.new_attempt(state, t, tracker, None, 0.0, 0.0, 500.0)
    assert jt.speculation_candidate(now=10.0, min_elapsed=60.0) is None
    assert jt.speculation_candidate(now=100.0, min_elapsed=60.0) is not None


def test_speculation_skips_jobs_with_pending(env):
    cluster, w, hdfs = env
    jt = JobTracker(hdfs)
    state = jt.submit(w.jobs[1], w, now=0.0)
    tracker = TaskTracker(cluster.machines[0])
    t = state.pending[0]
    state.take_pending(t)
    jt.new_attempt(state, t, tracker, None, 0.0, 0.0, 500.0)
    # two tasks still pending: no speculation for this job
    assert jt.speculation_candidate(now=1000.0) is None


def test_speculation_caps_copies(env):
    cluster, w, hdfs = env
    jt = JobTracker(hdfs)
    state = jt.submit(w.jobs[1], w, now=0.0)
    tracker = TaskTracker(cluster.machines[0])
    for t in list(state.pending):
        state.take_pending(t)
    t0 = state.tasks[0]
    jt.new_attempt(state, t0, tracker, None, 0.0, 0.0, 500.0)
    jt.new_attempt(state, t0, tracker, None, 0.0, 0.0, 500.0, speculative=True)
    for t in state.tasks[1:]:
        jt.new_attempt(state, t, tracker, None, 0.0, 0.0, 1.0)
    cand = jt.speculation_candidate(now=100.0, max_copies=2)
    # t0 already has 2 copies; others finish soon but are the only eligible
    if cand is not None:
        assert cand[1].key != t0.key


def run_to_completion(jt, state, tracker, tasks, now):
    """Launch and finish ``tasks`` one by one at ``now``; checks the queue
    invariant after every step."""
    for task in list(tasks):
        pending = state.reduce_pending if task.is_reduce else state.pending
        pending.remove(task)
        a = jt.new_attempt(state, task, tracker, None, now, 0.0, 1.0)
        jt.finish_attempt(state, a, now=now)
        assert jt.all_complete() == (not jt.queue)


class TestIncompleteOnlyQueue:
    def test_map_only_job_leaves_queue_on_last_map(self, env):
        cluster, w, hdfs = env
        jt = JobTracker(hdfs)
        state = jt.submit(w.jobs[1], w, now=0.0)
        tracker = TaskTracker(cluster.machines[0])
        *first, last = state.pending
        run_to_completion(jt, state, tracker, first, now=1.0)
        assert jt.queue == [state] and not jt.all_complete()
        run_to_completion(jt, state, tracker, [last], now=2.0)
        assert jt.queue == [] and jt.all_complete()
        assert not jt.has_pending_tasks()

    def test_job_with_reduces_stays_until_last_reduce(self, env):
        cluster, w, hdfs = env
        job = Job(job_id=7, name="wc", tcp=0.0, num_tasks=2,
                  cpu_seconds_noinput=20.0, num_reduces=2)
        jt = JobTracker(hdfs)
        state = jt.submit(job, w, now=0.0)
        tracker = TaskTracker(cluster.machines[0])
        run_to_completion(jt, state, tracker, state.pending, now=1.0)
        assert state.maps_complete and jt.queue == [state]  # reduces not created
        reduces = jt.create_reduces(state)
        assert len(reduces) == 2
        run_to_completion(jt, state, tracker, reduces[:1], now=2.0)
        assert jt.queue == [state]
        run_to_completion(jt, state, tracker, reduces[1:], now=3.0)
        assert jt.queue == [] and state.finish_time == 3.0

    def test_queue_keeps_submit_order(self, env):
        cluster, w, hdfs = env
        jt = JobTracker(hdfs)
        scan = jt.submit(w.jobs[0], w, now=0.0)
        pi = jt.submit(w.jobs[1], w, now=1.0)
        late = jt.submit(Job(job_id=9, name="late", tcp=0.0), w, now=2.0)
        tracker = TaskTracker(cluster.machines[0])
        run_to_completion(jt, pi, tracker, pi.pending, now=3.0)
        assert jt.queue == [scan, late]

    def test_job_without_tasks_never_queues(self, env):
        cluster, w, hdfs = env
        empty = DataObject(data_id=1, name="empty", size_mb=0.0, origin_store=0)
        w2 = Workload(jobs=w.jobs, data=w.data + [empty])
        hdfs.populate([empty])
        jt = JobTracker(hdfs)
        state = jt.submit(Job(job_id=5, name="nothing", tcp=1.0, data_ids=[1]), w2, now=0.0)
        assert state.tasks == [] and state.is_complete
        assert jt.queue == [] and jt.all_complete()

    def test_makespan_covers_finished_jobs(self, env):
        cluster, w, hdfs = env
        jt = JobTracker(hdfs)
        scan = jt.submit(w.jobs[0], w, now=0.0)
        pi = jt.submit(w.jobs[1], w, now=0.0)
        tracker = TaskTracker(cluster.machines[0])
        run_to_completion(jt, scan, tracker, scan.pending, now=40.0)
        run_to_completion(jt, pi, tracker, pi.pending, now=25.0)
        assert jt.queue == []
        assert jt.makespan() == 40.0

    def test_machine_failure_requeue_keeps_job_queued(self):
        b = ClusterBuilder(topology=Topology.of(["z"]), store_capacity_mb=1e6)
        for i in range(2):
            b.add_machine(f"m{i}", ecu=2.0, cpu_cost=1e-5, zone="z", map_slots=2)
        jobs = [Job(job_id=0, name="pi", tcp=0.0, num_tasks=4, cpu_seconds_noinput=800.0)]
        failures = FailurePlan()
        failures.add(0, 50.0)
        seen = []

        class Watch(FifoScheduler):
            def on_machine_failed(self, machine_id, now):
                state = self.sim.jobtracker.jobs[0]
                seen.append((self.sim.jobtracker.queue == [state], len(state.pending)))

        sim = HadoopSimulator(
            b.build(), Workload(jobs=jobs, data=[]), Watch(),
            SimConfig(speculative=False), failures=failures,
        )
        result = sim.run()
        assert seen == [(True, 2)]  # both of m0's attempts re-queued
        assert sim.jobtracker.queue == [] and sim.jobtracker.all_complete()
        assert result.metrics.tasks_run == 4


class TestTaskIdentity:
    def test_field_identical_tasks_are_unequal(self):
        a = SimTask(job_id=0, task_index=0, input_mb=64.0, cpu_seconds=1.0)
        b = SimTask(job_id=0, task_index=0, input_mb=64.0, cpu_seconds=1.0)
        assert a == a and a != b
        assert a in [a] and a not in [b]
        assert len({a, b}) == 2  # hashable, by identity

    def test_take_pending_removes_the_launched_object(self, env):
        cluster, w, hdfs = env
        jt = JobTracker(hdfs)
        state = jt.submit(w.jobs[1], w, now=0.0)
        first = state.pending[0]
        twin = SimTask(**{f: getattr(first, f) for f in first.__dataclass_fields__})
        state.pending.insert(0, twin)
        state.take_pending(first)
        assert state.pending[0] is twin
        assert all(t is not first for t in state.pending)
