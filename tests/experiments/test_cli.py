"""Tests for the ``python -m repro`` CLI."""

import json

import pytest

from repro.cli import COMMANDS, build_parser, main


def test_parser_requires_experiment():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_tables_command(capsys):
    assert main(["tables"]) == 0
    out = capsys.readouterr().out
    assert "Table I" in out and "Table IV" in out


def test_fig1_command(capsys):
    assert main(["fig1"]) == 0
    assert "Figure 1" in capsys.readouterr().out


def test_multiple_commands(capsys):
    assert main(["tables", "fig1"]) == 0
    out = capsys.readouterr().out
    assert "Table I" in out and "Figure 1" in out


def test_duplicates_run_once(capsys):
    assert main(["fig1", "fig1"]) == 0
    out = capsys.readouterr().out
    assert out.count("Figure 1 —") == 1


def test_unknown_command(capsys):
    assert main(["nope"]) == 2
    assert "unknown experiment" in capsys.readouterr().err


def test_all_expands_to_every_command():
    # 'all' must reference only registered commands (no stale names)
    assert set(COMMANDS) == {
        "tables", "fig1", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10",
        "fig11", "fairness", "frontier", "interference", "check",
    }


class TestCheckExitCode:
    """``repro check`` exits 1 when a paper claim fails, 0 when all hold."""

    @pytest.fixture
    def claims(self, monkeypatch):
        from repro.experiments import check

        def use(*passed):
            monkeypatch.setattr(check, "CHECKS", [
                (lambda ok=ok, i=i: check.CheckResult(f"claim {i}", ok, "stub"))
                for i, ok in enumerate(passed)
            ])

        return use

    def test_failed_claim_fails_the_process(self, claims, capsys):
        claims(True, False)
        assert main(["check"]) == 1
        assert "1/2 claims hold" in capsys.readouterr().out

    def test_failure_survives_later_commands(self, claims, capsys):
        claims(False)
        assert main(["check", "fig1"]) == 1
        assert "Figure 1" in capsys.readouterr().out

    def test_all_claims_hold(self, claims, capsys):
        claims(True, True)
        assert main(["check"]) == 0
        assert "2/2 claims hold" in capsys.readouterr().out


def test_frontier_command(capsys):
    assert main(["frontier"]) == 0
    out = capsys.readouterr().out
    assert "frontier" in out
    assert "deadline" in out


def test_csv_export_flag(tmp_path, capsys):
    assert main(["fig5", "--csv", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "wrote" in out
    assert (tmp_path / "fig5.csv").exists()
    header = (tmp_path / "fig5.csv").read_text().splitlines()[0]
    assert header == "tasks,stores,machines,lips_cost,default_cost,reduction"


def test_tables_csv_export(tmp_path, capsys):
    assert main(["tables", "--csv", str(tmp_path)]) == 0
    assert "wrote" in capsys.readouterr().out
    for name in ("table1", "table3", "table4"):
        assert (tmp_path / f"{name}.csv").exists()
    header = (tmp_path / "table1.csv").read_text().splitlines()[0]
    assert header == "app,property,cpu_s_per_64mb_block"


class TestObservabilityFlags:
    def test_trace_flag_writes_jsonl(self, tmp_path, capsys):
        path = tmp_path / "trace.jsonl"
        assert main(["fig8", "--trace", str(path)]) == 0
        records = [json.loads(l) for l in path.read_text().splitlines()]
        assert records
        cats = {r["cat"] for r in records}
        assert {"epoch", "task", "lp"} <= cats
        assert any(r["type"] == "lp_solve" for r in records)

    def test_metrics_flag_writes_registry_dump(self, tmp_path, capsys):
        path = tmp_path / "metrics.json"
        assert main(["fig8", "--metrics", str(path)]) == 0
        assert "wrote" in capsys.readouterr().out
        dump = json.loads(path.read_text())
        names = {m["name"] for m in dump}
        assert {"tasks_run", "lp_solves", "makespan"} <= names

    def test_no_flags_no_files(self, tmp_path, capsys):
        assert main(["fig1"]) == 0
        assert list(tmp_path.iterdir()) == []


class TestReportSubcommand:
    @pytest.fixture()
    def trace_path(self, tmp_path, capsys):
        path = tmp_path / "trace.jsonl"
        main(["fig8", "--trace", str(path)])
        capsys.readouterr()  # swallow the experiment output
        return path

    def test_renders_tables(self, trace_path, capsys):
        assert main(["report", str(trace_path)]) == 0
        out = capsys.readouterr().out
        for section in ("records", "Per-epoch", "Per-solve", "Per-machine"):
            assert section in out

    def test_chrome_conversion(self, trace_path, tmp_path, capsys):
        out_path = tmp_path / "chrome.json"
        assert main(["report", str(trace_path), "--chrome", str(out_path)]) == 0
        assert "traceEvents" in json.loads(out_path.read_text())

    def test_limit_flag(self, trace_path, capsys):
        assert main(["report", str(trace_path), "--limit", "2"]) == 0
        assert "first 2 of" in capsys.readouterr().out

    def test_missing_path_exits(self):
        with pytest.raises(SystemExit):
            main(["report"])

    def test_nonexistent_trace_file(self, tmp_path, capsys):
        assert main(["report", str(tmp_path / "nope.jsonl")]) == 2
        assert "cannot read trace" in capsys.readouterr().err

    def test_garbage_trace_file(self, tmp_path, capsys):
        path = tmp_path / "garbage.jsonl"
        path.write_text("not json\n")
        assert main(["report", str(path)]) == 2
        assert "not a JSONL trace" in capsys.readouterr().err


def test_unwritable_trace_path(capsys):
    assert main(["fig1", "--trace", "/nonexistent-dir/t.jsonl"]) == 2
    assert "cannot write trace" in capsys.readouterr().err
