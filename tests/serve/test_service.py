"""SchedulingService: WAL journaling, crash recovery, watchdog engagement."""

import json

import pytest

from repro.obs.registry import MetricsRegistry, use_registry
from repro.obs.trace import Tracer, use_tracer
from repro.serve.health import HealthConfig, ServiceState
from repro.serve.invariants import check_service_invariants
from repro.serve.journal import (
    REC_ADMISSION,
    REC_EPOCH,
    REC_RECOVERED,
    REC_START,
    ledger_to_dicts,
    read_wal,
)
from repro.serve.service import (
    LEDGER_TOLERANCE,
    RecoveryError,
    SchedulingService,
    ServiceConfig,
)
from repro.workload.job import DataObject, Job


def _workload(num_jobs=4, num_stores=2):
    """Deterministic job/data pairs: one data object per job."""
    pairs = []
    for job_id in range(num_jobs):
        size_mb = 64.0 * (2 + job_id % 3)
        data = DataObject(
            data_id=job_id,
            name=f"d{job_id}",
            size_mb=size_mb,
            origin_store=job_id % num_stores,
        )
        # demand sized so a run spans several epochs (forces requeues and,
        # in the recovery tests, reports at the checkpoint ticks)
        job = Job(
            job_id=job_id,
            name=f"j{job_id}",
            tcp=(1500.0 + 300.0 * job_id) / size_mb,
            data_ids=[job_id],
            num_tasks=data.num_blocks,
        )
        pairs.append((job, data))
    return pairs


def _config(**overrides) -> ServiceConfig:
    defaults = dict(epoch_length=60.0, checkpoint_every=0, wal_fsync=False)
    defaults.update(overrides)
    return ServiceConfig(**defaults)


def _run_to_completion(service, pairs, max_ticks=50):
    for job, data in pairs:
        assert service.submit(job, data).admitted
    ticks = 0
    while service.backlog and ticks < max_ticks:
        service.tick()
        ticks += 1
    assert not service.backlog
    return service.result()


class TestBasicService:
    def test_in_memory_run_passes_invariants(self, two_zone_cluster):
        service = SchedulingService(two_zone_cluster, _config())
        service.start()
        result = _run_to_completion(service, _workload())
        assert result.total_cost > 0
        assert len(result.job_completion) == 4
        assert check_service_invariants(service, result) == []

    def test_wal_journals_every_decision(self, two_zone_cluster, tmp_path):
        service = SchedulingService(two_zone_cluster, _config(), wal_dir=tmp_path)
        service.start()
        pairs = _workload(num_jobs=3)
        for job, data in pairs:
            service.submit(job, data)
        num_ticks = 0
        while service.backlog:
            service.tick()
            num_ticks += 1
        service.result()
        records = read_wal(tmp_path / "wal.jsonl")
        types = [r["type"] for r in records]
        assert types[0] == REC_START
        assert types.count(REC_ADMISSION) == 3
        assert types.count(REC_EPOCH) == num_ticks
        admissions = [r for r in records if r["type"] == REC_ADMISSION]
        assert all(r["admitted"] for r in admissions)


class TestCrashRecovery:
    @pytest.mark.parametrize("checkpoint_every", [0, 2])
    def test_recovered_run_is_byte_identical(
        self, two_zone_cluster, tmp_path, checkpoint_every
    ):
        pairs = _workload(num_jobs=5)
        config = _config(checkpoint_every=checkpoint_every)

        # reference: the same run without a crash
        reference = SchedulingService(two_zone_cluster, config)
        reference.start()
        ref_result = _run_to_completion(reference, pairs)

        # victim: submit everything, crash after 3 ticks (WAL abandoned hot)
        victim = SchedulingService(
            two_zone_cluster, config, wal_dir=tmp_path / "victim"
        )
        victim.start()
        for job, data in pairs:
            victim.submit(job, data)
        for _ in range(3):
            victim.tick()
        del victim  # crash: no result(), no clean close

        recovered, stats = SchedulingService.recover(
            two_zone_cluster, config, tmp_path / "victim"
        )
        if checkpoint_every:
            assert stats.snapshot_seq >= 0
        else:
            assert stats.snapshot_seq == -1
            assert stats.records_replayed > 0
        assert stats.max_cost_drift <= 1e-9

        while recovered.backlog:
            recovered.tick()
        rec_result = recovered.result()

        assert ledger_to_dicts(rec_result.ledger) == ledger_to_dicts(ref_result.ledger)
        assert rec_result.job_completion == ref_result.job_completion
        assert rec_result.makespan == ref_result.makespan
        assert check_service_invariants(recovered, rec_result) == []
        tail = read_wal(tmp_path / "victim" / "wal.jsonl")
        assert any(r["type"] == REC_RECOVERED for r in tail)

    def test_recovery_trace_is_a_pure_suffix(self, two_zone_cluster, tmp_path):
        pairs = _workload(num_jobs=3)
        config = _config()
        victim = SchedulingService(
            two_zone_cluster, config, wal_dir=tmp_path / "victim"
        )
        victim.start()
        for job, data in pairs:
            victim.submit(job, data)
        victim.tick()
        del victim

        trace_path = tmp_path / "suffix.jsonl"
        with Tracer.to_path(trace_path) as tracer:
            with use_tracer(tracer):
                recovered, _ = SchedulingService.recover(
                    two_zone_cluster, config, tmp_path / "victim"
                )
                while recovered.backlog:
                    recovered.tick()
                recovered.result()
        lines = [json.loads(ln) for ln in trace_path.read_text().splitlines()]
        # replay is silent: the pre-crash epoch 0 may not re-emit its span
        epochs = [r["index"] for r in lines if r.get("name") == "controller-epoch"]
        assert epochs and min(epochs) >= 1
        assert any(r.get("name") == "recovered" for r in lines)

    def test_epoch_span_never_precedes_its_wal_record(
        self, two_zone_cluster, tmp_path
    ):
        """A crash between step() and the WAL append must not leave an epoch
        span in the trace: recovery would re-execute that epoch live and
        emit it again, breaking the pure-suffix trace contract."""
        config = _config()
        trace_path = tmp_path / "trace.jsonl"
        with Tracer.to_path(trace_path) as tracer:
            service = SchedulingService(
                two_zone_cluster, config, wal_dir=tmp_path / "wal", tracer=tracer
            )
            service.start()
            for job, data in _workload(num_jobs=2):
                service.submit(job, data)
            original_append = service.wal.append

            def crashing_append(rec_type, **payload):
                if rec_type == REC_EPOCH:
                    raise OSError("disk died before the epoch was journaled")
                return original_append(rec_type, **payload)

            service.wal.append = crashing_append
            with pytest.raises(OSError):
                service.tick()
        lines = [json.loads(ln) for ln in trace_path.read_text().splitlines()]
        assert not any(r.get("name") == "controller-epoch" for r in lines)
        assert not any(
            r["type"] == REC_EPOCH for r in read_wal(tmp_path / "wal" / "wal.jsonl")
        )

    def test_replay_does_not_double_count_metrics(self, two_zone_cluster, tmp_path):
        """The registry survives an in-process kill (as in the soak), so
        replay must observe into a scratch registry: counters reflect each
        admission/epoch exactly once across crash and recovery."""
        pairs = _workload(num_jobs=4)
        config = _config()
        registry = MetricsRegistry()
        with use_registry(registry):
            victim = SchedulingService(
                two_zone_cluster, config, wal_dir=tmp_path / "victim"
            )
            victim.start()
            for job, data in pairs:
                victim.submit(job, data)
            for _ in range(3):
                victim.tick()
            del victim  # crash: same process, registry keeps its counts

            recovered, stats = SchedulingService.recover(
                two_zone_cluster, config, tmp_path / "victim"
            )
            assert stats.records_replayed > 0
            while recovered.backlog:
                recovered.tick()
        assert (
            registry.counter("jobs_submitted_total").total()
            == recovered.admission.submitted
        )
        assert (
            registry.counter("jobs_admitted_total").total()
            == recovered.admission.admitted
        )
        assert (
            registry.counter("service_epochs_total").total()
            == recovered.epochs_ticked
        )

    def test_tampered_wal_is_rejected(self, two_zone_cluster, tmp_path):
        pairs = _workload(num_jobs=2)
        config = _config()
        victim = SchedulingService(
            two_zone_cluster, config, wal_dir=tmp_path / "victim"
        )
        victim.start()
        for job, data in pairs:
            victim.submit(job, data)
        victim.tick()
        del victim

        wal_path = tmp_path / "victim" / "wal.jsonl"
        lines = wal_path.read_text().splitlines()
        for i, line in enumerate(lines):
            record = json.loads(line)
            if record["type"] == REC_ADMISSION:
                record["admitted"] = not record["admitted"]
                lines[i] = json.dumps(record)
                break
        wal_path.write_text("\n".join(lines) + "\n")
        with pytest.raises(RecoveryError):
            SchedulingService.recover(two_zone_cluster, config, tmp_path / "victim")

    def test_legacy_start_record_still_recovers(self, two_zone_cluster, tmp_path):
        """WALs whose start record still echoes the removed LP-decomposition
        knob (legacy key, value 0 = monolithic) replay to the journaled costs."""
        pairs = _workload(num_jobs=4)
        config = _config()
        reference = SchedulingService(two_zone_cluster, config)
        reference.start()
        ref_result = _run_to_completion(reference, pairs)

        victim = SchedulingService(
            two_zone_cluster, config, wal_dir=tmp_path / "victim"
        )
        victim.start()
        for job, data in pairs:
            victim.submit(job, data)
        for _ in range(3):
            victim.tick()
        del victim

        wal_path = tmp_path / "victim" / "wal.jsonl"
        lines = wal_path.read_text().splitlines()
        start = json.loads(lines[0])
        assert start["type"] == REC_START
        start["config"]["shards"] = 0
        lines[0] = json.dumps(start)
        wal_path.write_text("\n".join(lines) + "\n")

        recovered, stats = SchedulingService.recover(
            two_zone_cluster, config, tmp_path / "victim"
        )
        assert stats.records_replayed > 0
        assert stats.max_cost_drift <= LEDGER_TOLERANCE
        while recovered.backlog:
            recovered.tick()
        rec_result = recovered.result()
        assert ledger_to_dicts(rec_result.ledger) == ledger_to_dicts(ref_result.ledger)
        assert check_service_invariants(recovered, rec_result) == []

    def test_missing_wal_is_loud(self, two_zone_cluster, tmp_path):
        with pytest.raises(RecoveryError, match="no WAL"):
            SchedulingService.recover(two_zone_cluster, _config(), tmp_path / "nope")


class TestWatchdogAndShedding:
    def test_advance_refuses_to_jump_a_nonempty_queue(self, two_zone_cluster):
        service = SchedulingService(two_zone_cluster, _config())
        service.start()
        job, data = _workload(num_jobs=1)[0]
        service.submit(job, data)
        with pytest.raises(RuntimeError, match="non-empty queue"):
            service.advance_to(600.0)

    def test_injected_lag_engages_degraded_mode(self, two_zone_cluster, tmp_path):
        """Satellite: sustained LP lag must flip HEALTHY -> DEGRADED with
        zero unaccounted job loss, and the metrics must reconcile with the
        health machine's transition log and the trace events."""
        health = HealthConfig(epoch_deadline_s=0.25, miss_threshold=2)
        config = _config(health=health)
        registry = MetricsRegistry()
        trace_path = tmp_path / "trace.jsonl"
        with use_registry(registry), Tracer.to_path(trace_path) as tracer:
            service = SchedulingService(
                two_zone_cluster,
                config,
                lag_injector=lambda epoch: 10.0,  # every LP epoch blows the deadline
                tracer=tracer,
            )
            service.start()
            pairs = _workload(num_jobs=6)
            misses = 0
            for job, data in pairs:
                service.submit(job, data)
            ticks = 0
            while service.backlog and ticks < 40:
                if service.health.plan_epoch():
                    misses += 1  # the injector guarantees every LP tick misses
                service.tick()
                ticks += 1
            result = service.result()

        transitions = service.health.transitions
        assert any(
            (t.src, t.dst) == (ServiceState.HEALTHY, ServiceState.DEGRADED)
            for t in transitions
        )
        # no silent job loss: everything admitted completed
        assert service.admission.submitted == 6
        assert service.admission.admitted == len(result.job_completion)
        assert check_service_invariants(service, result, expected_misses=misses) == []
        # metrics reconcile with the state machine and the trace
        assert (
            registry.counter("service_transitions_total").total() == len(transitions)
        )
        assert registry.counter("epoch_deadline_misses_total").total() == misses
        traced = [
            ln
            for ln in trace_path.read_text().splitlines()
            if '"service"' in ln and '"transition"' in ln
        ]
        assert len(traced) == len(transitions)

    def test_queue_full_sheds_are_accounted(self, two_zone_cluster, tmp_path):
        config = _config(max_pending=1)
        registry = MetricsRegistry()
        trace_path = tmp_path / "trace.jsonl"
        with use_registry(registry), Tracer.to_path(trace_path) as tracer:
            service = SchedulingService(two_zone_cluster, config, tracer=tracer)
            service.start()
            pairs = _workload(num_jobs=3)
            decisions = [service.submit(job, data) for job, data in pairs]
            while service.backlog:
                service.tick()
            result = service.result()
        assert [d.admitted for d in decisions] == [True, False, False]
        assert service.admission.shed == {"queue_full": 2}
        assert registry.counter("jobs_shed_total").value(reason="queue_full") == 2
        shed_events = [
            ln for ln in trace_path.read_text().splitlines() if '"shed"' in ln
        ]
        assert len(shed_events) == 2
        # partition + completion accounting still hold under shedding
        assert check_service_invariants(service, result) == []

    def test_rate_limit_sheds_are_accounted(self, two_zone_cluster):
        config = _config(rate_per_s=0.001, burst=1.0)
        service = SchedulingService(two_zone_cluster, config)
        service.start()
        pairs = _workload(num_jobs=2)
        first = service.submit(*pairs[0])
        second = service.submit(*pairs[1])
        assert first.admitted and not second.admitted
        assert second.reason == "rate_limit"
        assert service.admission.shed_total == 1


class TestLivePlane:
    def test_attach_plane_reconciles_every_epoch(self, two_zone_cluster):
        from repro.obs.live import LiveTelemetryPlane

        plane = LiveTelemetryPlane()
        service = SchedulingService(two_zone_cluster, _config())
        service.attach_plane(plane)
        service.start()
        result = _run_to_completion(service, _workload())
        rolling = service.controller.rolling_ledger
        assert rolling is not None
        # one reconciliation per tick, zero drift, exact residuals
        assert rolling.reconciliations == service.epochs_ticked
        assert rolling.drift_events == 0
        assert rolling.max_residual <= rolling.tol
        # the rolling cells equal the end-of-run batch ledger exactly
        from repro.obs.ledger import DollarLedger

        final = DollarLedger.from_cost_ledger(result.ledger)
        assert rolling.to_dollar_ledger().cells == final.cells
        assert rolling.total == pytest.approx(result.total_cost, abs=1e-9)

    def test_status_surfaces_slo_and_admission(self, two_zone_cluster):
        from repro.obs.live import LiveTelemetryPlane

        plane = LiveTelemetryPlane()
        service = SchedulingService(two_zone_cluster, _config())
        service.attach_plane(plane)
        service.start()
        for job, data in _workload():
            assert service.submit(job, data).admitted
        while service.backlog:
            service.tick()
        # status() reads the in-flight run: sample before result() closes it
        status = service.status()
        assert status["state"] == "healthy"
        assert status["epochs_ticked"] == service.epochs_ticked
        slo = status["slo"]
        assert slo["window_size"] == service.epochs_ticked
        assert slo["misses"] == 0
        assert status["admission"]["admitted"] == 4
        # the plane's health view folds the same status in
        health = plane.health()
        assert health["ok"] is True
        assert health["service"]["epoch"] == status["epoch"]
        assert plane.slo() == slo

    def test_plane_tap_sees_service_trace(self, two_zone_cluster, tmp_path):
        from repro.obs.live import LiveTelemetryPlane

        plane = LiveTelemetryPlane()
        trace_path = tmp_path / "trace.jsonl"
        with Tracer.to_path(trace_path) as tracer:
            with use_tracer(tracer):
                service = SchedulingService(two_zone_cluster, _config())
                service.attach_plane(plane)
                service.start()
                _run_to_completion(service, _workload(num_jobs=2))
        # journal-before-trace flush means the tap saw every record the
        # file did (the tap hangs off the inner tracer, post-buffer)
        assert plane.tap.seq == len(trace_path.read_text().splitlines())
        assert plane.tap.dropped == 0
        records, _, _ = plane.tap.tail()
        assert any(r.get("cat") == "epoch" for r in records)

    def test_run_identical_with_and_without_plane(self, two_zone_cluster):
        from repro.obs.live import LiveTelemetryPlane

        def run(plane):
            service = SchedulingService(two_zone_cluster, _config())
            if plane is not None:
                service.attach_plane(plane)
            service.start()
            return _run_to_completion(service, _workload())

        bare = run(None)
        observed = run(LiveTelemetryPlane())
        assert observed.total_cost == bare.total_cost
        assert observed.job_completion == bare.job_completion
