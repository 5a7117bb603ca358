"""Tests for the eval harness and the command-line interface."""

import pytest

from repro.cfa.engine import EngineConfig
from repro.cli import main
from repro.eval.figures import (
    collect_all,
    fig1_motivation,
    fig8_runtime,
    fig9_cflog,
    fig10_code_size,
    format_table,
    partial_report_table,
)
from repro.eval.runner import METHODS, MethodRun, prepare, run_method
from repro.workloads import load_workload


class TestRunner:
    def test_prepare_baseline_has_no_map(self):
        workload = load_workload("temperature")
        image, bound = prepare(workload, "baseline")
        assert bound is None
        assert image.code_size() > 0

    def test_prepare_rap_has_bound_map(self):
        workload = load_workload("temperature")
        image, bound = prepare(workload, "rap-track")
        assert bound is not None
        assert image.section_size("mtbar") > 0

    def test_prepare_unknown_method(self):
        workload = load_workload("temperature")
        with pytest.raises(ValueError):
            prepare(workload, "quantum")

    def test_run_method_baseline(self):
        run = run_method("temperature", "baseline")
        assert run.method == "baseline"
        assert run.cflog_bytes == 0
        assert run.verified

    @pytest.mark.parametrize("method", METHODS)
    def test_run_method_each(self, method):
        run = run_method("crc32", method)
        assert run.verified
        assert run.cycles > 0

    def test_run_all_methods_keys(self):
        runs = collect_all(["crc32"])
        assert list(runs) == ["crc32"]
        assert list(runs["crc32"]) == list(METHODS)

    def test_overhead_vs(self):
        a = MethodRun("w", "m", 100, 0, 0, 0, 0, 0, 0, 0, True)
        b = MethodRun("w", "m", 150, 0, 0, 0, 0, 0, 0, 0, True)
        assert b.overhead_vs(a) == pytest.approx(0.5)
        zero = MethodRun("w", "m", 0, 0, 0, 0, 0, 0, 0, 0, True)
        assert a.overhead_vs(zero) == 0.0

    def test_verification_failure_raises(self, monkeypatch):
        # sabotage: make the verifier reject everything
        from repro.cfa import verifier as verifier_mod

        def reject(self, result, challenge):
            return False

        monkeypatch.setattr(verifier_mod.Verifier, "authenticate", reject)
        with pytest.raises(RuntimeError):
            run_method("crc32", "rap-track")


class TestFigures:
    @pytest.fixture(scope="class")
    def runs(self):
        return collect_all(workloads=("crc32", "temperature"))

    def test_fig1_fields(self, runs):
        rows = fig1_motivation(runs)
        assert {r["workload"] for r in rows} == {"crc32", "temperature"}
        for row in rows:
            assert row["runtime_factor"] >= 1.0

    def test_fig8_fields(self, runs):
        for row in fig8_runtime(runs):
            assert row["naive_mtb"] == row["baseline"]
            assert row["rap_track"] >= row["baseline"]

    def test_fig9_fields(self, runs):
        for row in fig9_cflog(runs):
            assert row["rap_track_B"] <= row["naive_mtb_B"]

    def test_fig10_fields(self, runs):
        for row in fig10_code_size(runs):
            assert row["rap_overhead_B"] >= 0

    def test_partials_fields(self, runs):
        for row in partial_report_table(runs):
            assert row["naive_partials"] >= 0

    def test_format_table_alignment(self):
        rows = [{"name": "x", "value": 1.25, "flag": True},
                {"name": "longer", "value": float("inf"), "flag": False}]
        text = format_table(rows, "Title")
        lines = text.splitlines()
        assert lines[0] == "Title"
        assert "name" in lines[1] and "value" in lines[1]
        assert "inf" in text and "yes" in text and "no" in text

    def test_format_table_empty(self):
        assert format_table([], "T") == "T"


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "geiger" in out and "matmult" in out

    def test_run_default_method(self, capsys):
        assert main(["run", "crc32"]) == 0
        out = capsys.readouterr().out
        assert "rap-track" in out and "verified:        OK" in out

    def test_run_explicit_method(self, capsys):
        assert main(["run", "crc32", "--method", "traces"]) == 0
        assert "traces" in capsys.readouterr().out

    def test_offline(self, capsys):
        assert main(["offline", "fibcall"]) == 0
        out = capsys.readouterr().out
        assert "MTBAR" in out and "__rt_pop_stub" in out

    def test_figures_subset(self, capsys):
        assert main(["figures", "--workloads", "crc32"]) == 0
        out = capsys.readouterr().out
        assert "Figure 8" in out and "crc32" in out

    def test_figures_unknown_workload(self, capsys):
        assert main(["figures", "--workloads", "nope"]) == 2

    def test_figures_failing_cell_exits_1(self, capsys, monkeypatch):
        from repro.cfa import verifier as verifier_mod

        monkeypatch.setattr(verifier_mod.Verifier, "authenticate",
                            lambda self, result, challenge: False)
        assert main(["figures", "--workloads", "fibcall", "--no-cache",
                     "--quiet"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "figures: cell fibcall×rap-track failed: RuntimeError: "
            "rap-track verification failed on fibcall: []"]

    def test_figures_drops_pool_flags(self):
        for flag in (["--jobs", "2"], ["--cell-timeout", "5"]):
            with pytest.raises(SystemExit):
                main(["figures", "--workloads", "fibcall", *flag])

    def test_bad_workload_rejected_by_argparse(self):
        with pytest.raises(SystemExit):
            main(["run", "not-a-workload"])
