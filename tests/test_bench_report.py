"""Tests for the perf-trajectory report (repro.report.bench)."""

from __future__ import annotations

import json

import pytest

from repro.exceptions import InvalidParameterError
from repro.report.bench import (
    GATE_REGISTRY,
    discover_artifacts,
    evaluate_report,
    evaluate_reports,
    load_report,
    summarize,
)


def _write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


class TestLoadReport:
    def test_reads_a_valid_artifact(self, tmp_path):
        path = _write(tmp_path, "BENCH_x.json", {"benchmark": "adaptive-trial-allocation"})
        assert load_report(path)["benchmark"] == "adaptive-trial-allocation"

    def test_missing_file_is_an_actionable_error(self, tmp_path):
        with pytest.raises(InvalidParameterError, match="cannot read benchmark artifact"):
            load_report(str(tmp_path / "absent.json"))

    def test_invalid_json_is_rejected(self, tmp_path):
        path = tmp_path / "BENCH_bad.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(InvalidParameterError, match="not valid JSON"):
            load_report(str(path))

    def test_json_without_benchmark_field_is_rejected(self, tmp_path):
        path = _write(tmp_path, "BENCH_other.json", {"speedup": 3.0})
        with pytest.raises(InvalidParameterError, match="no 'benchmark' field"):
            load_report(path)


class TestDiscoverArtifacts:
    def test_finds_only_bench_json_sorted(self, tmp_path):
        _write(tmp_path, "BENCH_b.json", {"benchmark": "x"})
        _write(tmp_path, "BENCH_a.json", {"benchmark": "y"})
        _write(tmp_path, "other.json", {"benchmark": "z"})
        names = [path.split("/")[-1] for path in discover_artifacts(str(tmp_path))]
        assert names == ["BENCH_a.json", "BENCH_b.json"]


class TestEvaluateReport:
    def test_floor_gate_passes_and_fails(self):
        report = {
            "benchmark": "adaptive-trial-allocation",
            "pairs_saved_ratio": 2.5,
            "ratio_floor": 2.0,
        }
        (row,) = evaluate_report(report)
        assert row["status"] == "pass"
        assert row["gate"] == ">="
        assert row["bound"] == 2.0
        report["pairs_saved_ratio"] = 1.9
        (row,) = evaluate_report(report)
        assert row["status"] == "FAIL"

    def test_ceiling_gate_applies_the_bound_offset(self):
        # A recorded tolerance of 0.25 means the ratio must stay <= 1.25.
        report = {
            "benchmark": "fig6a-kernel-backends",
            "numpy_vs_pr2_ratio": 1.2,
            "numpy_regression_tolerance": 0.25,
            "speedup_numba_vs_pr2": None,
            "jit_speedup_floor": 5.0,
        }
        ratio_row, jit_row = evaluate_report(report)
        assert ratio_row["status"] == "pass"
        assert ratio_row["gate"] == "<="
        assert ratio_row["bound"] == 1.25
        # The nullable JIT gate is skipped, never failed, when null.
        assert jit_row["status"] == "skipped"
        report["numpy_vs_pr2_ratio"] = 1.3
        ratio_row, _ = evaluate_report(report)
        assert ratio_row["status"] == "FAIL"

    def test_unknown_benchmark_is_listed_not_failed(self):
        (row,) = evaluate_report({"benchmark": "brand-new-benchmark"})
        assert row["status"] == "no-gate"

    def test_missing_gated_keys_are_an_error(self):
        with pytest.raises(InvalidParameterError, match="missing pairs_saved_ratio"):
            evaluate_report({"benchmark": "adaptive-trial-allocation", "ratio_floor": 2.0})

    def test_null_non_nullable_metric_is_an_error(self):
        with pytest.raises(InvalidParameterError, match="null pairs_saved_ratio"):
            evaluate_report(
                {
                    "benchmark": "adaptive-trial-allocation",
                    "pairs_saved_ratio": None,
                    "ratio_floor": 2.0,
                }
            )


class TestEvaluateReportsAndSummary:
    def test_empty_artifact_list_is_an_actionable_error(self):
        with pytest.raises(InvalidParameterError, match="no benchmark artifacts"):
            evaluate_reports([])

    def test_summary_counts_and_flags_failures(self, tmp_path):
        passing = _write(
            tmp_path,
            "BENCH_adaptive.json",
            {
                "benchmark": "adaptive-trial-allocation",
                "pairs_saved_ratio": 2.5,
                "ratio_floor": 2.0,
            },
        )
        failing = _write(
            tmp_path,
            "BENCH_failmodes.json",
            {
                "benchmark": "failure-model-sweep-dispatch",
                "speedup_fused_vs_per_cell": 2.0,
                "speedup_floor": 3.0,
            },
        )
        summary = summarize(evaluate_reports([passing, failing]))
        assert summary["report"] == "rcm-bench-trajectory"
        assert summary["artifacts"] == [
            "BENCH_adaptive.json",
            "BENCH_failmodes.json",
        ]
        assert summary["gates_total"] == 2
        assert summary["gates_failed"] == 1
        assert summary["all_pass"] is False
        (failure,) = summary["failures"]
        assert failure["benchmark"] == "failure-model-sweep-dispatch"
        assert failure["value"] == 2.0

    def test_summary_is_json_serializable(self, tmp_path):
        path = _write(
            tmp_path,
            "BENCH_adaptive.json",
            {
                "benchmark": "adaptive-trial-allocation",
                "pairs_saved_ratio": 2.5,
                "ratio_floor": 2.0,
            },
        )
        summary = summarize(evaluate_reports([path]))
        assert json.loads(json.dumps(summary)) == summary


class TestRegistryStaysInSyncWithTheBenchmarks:
    def test_every_registered_gate_names_real_benchmark_fields(self):
        # The registry's metric/bound keys must match what the benchmark
        # modules actually write; this cross-checks the adaptive artifact's
        # writer (the only one cheap enough to import here) and pins the
        # registry's shape for the rest.
        import importlib.util
        import pathlib

        spec = importlib.util.spec_from_file_location(
            "bench_adaptive_module",
            pathlib.Path(__file__).resolve().parent.parent
            / "benchmarks"
            / "test_bench_adaptive.py",
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        source = pathlib.Path(module.__file__).read_text(encoding="utf-8")
        for gate in GATE_REGISTRY["adaptive-trial-allocation"]:
            assert f'"{gate.metric}"' in source
            assert f'"{gate.bound_key}"' in source

    def test_gate_kinds_are_well_formed(self):
        for gates in GATE_REGISTRY.values():
            for gate in gates:
                assert gate.kind in ("floor", "ceiling")
