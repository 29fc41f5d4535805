"""The benchmark's own tests, at the ``tiny`` size.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import harness, inputs, run
from perfbench.harness import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _units(section: str) -> dict:
    return {m["name"]: m["unit"] for m in SPEC[section]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_smoke_emits_every_end_to_end_metric(workload):
    result = harness.run_untraced(workload, 0, 0.0, size="tiny")
    assert result.correct, result.failures
    got = {name: unit for name, (_, unit) in result.metrics.items()}
    assert got == _units("end_to_end")
    summary = result.summary()
    assert set(summary) == {"correct", "attempted", "failed", "metrics"}
    assert summary["attempted"] >= 1 and summary["failed"] == 0
    for name, metric in summary["metrics"].items():
        assert metric["value"] > 0, name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_smoke_emits_every_layer_metric_and_reconciles(workload):
    result = harness.run_traced(workload, 0, size="tiny")
    assert result.correct, result.failures
    got = {name: unit for name, (_, unit) in result.metrics.items()}
    assert got == _units("per_layer")
    wall = result.metrics["trace.wall_s"][0]
    assert sum(result.layer_self.values()) == pytest.approx(wall, rel=1e-9)
    assert result.layer_self["unattributed"] == result.metrics["unattributed_s"][0]


@pytest.mark.parametrize("workload", ["swim-day", "block-1000", "serve-day"])
def test_lp_count_matches_the_programs_own(workload):
    out = harness.execute(harness.setup(workload, 0, "tiny"))
    # SimMetrics.lp_solves, or the summed EpochReport.lp_solves
    assert out.lp_solves_program > 0
    assert len(out.lp_statuses) == out.lp_solves_program


def test_perturbed_ledger_entry_fails_the_check():
    out = harness.execute(harness.setup("swim-day", 0, "tiny"))
    assert harness.check_outcome(out) == []
    first = out.ledger.records[0]
    out.ledger.records[0] = dataclasses.replace(first, amount=first.amount * 1.5)
    failures = harness.check_outcome(out)
    assert any("ledger" in f for f in failures)


def test_changed_simulated_output_fails_the_comparison():
    out = harness.execute(harness.setup("swim-day-delay", 0, "tiny"))
    other = dataclasses.replace(out, makespan_s=out.makespan_s + 1.0)
    assert harness.compare_outcomes(out, out, "x") == []
    assert harness.compare_outcomes(out, other, "tracing")


def test_misreported_total_fails_the_run(monkeypatch):
    from repro.hadoop.metrics import SimMetrics

    monkeypatch.setattr(SimMetrics, "total_cost", property(lambda m: m.ledger.total + 1e-3))
    result = harness.run_untraced("swim-day", 0, 0.0, size="tiny")
    assert not result.correct
    assert any("ledger" in f for f in result.failures)


def test_failed_check_exits_nonzero(monkeypatch, capsys):
    failed = harness.RunResult("swim-day", 0, traced=False, failures=["broken"])
    monkeypatch.setattr(harness, "run_untraced", lambda *a, **k: failed)
    assert run.main(["--workload", "swim-day", "--seed", "0", "--seconds", "1"]) == 1
    last = capsys.readouterr().out.strip().splitlines()[-1]
    assert json.loads(last)["correct"] is False


def test_changed_generator_fails_the_inputs_check(monkeypatch):
    prep = harness.setup("swim-day", 1, "tiny")
    assert harness.check_inputs(prep, "tiny") == []
    prep.inputs.workload.jobs[0] = dataclasses.replace(
        prep.inputs.workload.jobs[0], arrival_time=prep.inputs.workload.jobs[0].arrival_time + 1
    )
    assert harness.check_inputs(prep, "tiny")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_recorded_fingerprints_match_the_generators(workload):
    for seed in range(2):
        assert harness.check_inputs(harness.setup(workload, seed, "tiny"), "tiny") == []
    if workload != "block-1000":  # the 1000-machine cluster takes a second
        assert inputs.digest(inputs.generate(workload, 0)) == harness.recorded_digest(
            workload, 0, "full"
        )


def test_digest_repeats_and_depends_on_the_seed():
    a = inputs.digest(inputs.generate("serve-day", 5, "tiny"))
    assert a == inputs.digest(inputs.generate("serve-day", 5, "tiny"))
    assert a != inputs.digest(inputs.generate("serve-day", 6, "tiny"))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_held_out_seed_runs_clean(workload):
    assert harness.recorded_digest(workload, 9001, "tiny") is None
    result = harness.run_untraced(workload, 9001, 0.0, size="tiny")
    assert result.correct, result.failures


def test_without_the_program_the_command_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__")
    )
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "swim-day", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
