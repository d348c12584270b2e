"""Tests for the perf-trajectory report (repro.report.bench)."""

from __future__ import annotations

import json
import pathlib

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

    def test_jit_gates_are_skipped_when_null_and_floored_otherwise(self):
        report = {
            "benchmark": "kernelspec-unified-driver",
            "speedup_numba_vs_pr3": None,
            "speedup_numba_vs_pr2": None,
            "jit_speedup_floor": 2.0,
        }
        # No JIT backend: both ratios are null, skipped, never failed.
        rows = evaluate_report(report)
        assert [row["metric"] for row in rows] == ["speedup_numba_vs_pr3", "speedup_numba_vs_pr2"]
        assert [row["status"] for row in rows] == ["skipped", "skipped"]
        report.update(speedup_numba_vs_pr3=2.4, speedup_numba_vs_pr2=1.9)
        pr3_row, pr2_row = evaluate_report(report)
        assert (pr3_row["status"], pr3_row["gate"], pr3_row["bound"]) == ("pass", ">=", 2.0)
        assert (pr2_row["status"], pr2_row["gate"], pr2_row["bound"]) == ("FAIL", ">=", 2.0)

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
            "BENCH_kernelspec.json",
            {
                "benchmark": "kernelspec-unified-driver",
                "speedup_numba_vs_pr3": 1.5,
                "speedup_numba_vs_pr2": 2.5,
                "jit_speedup_floor": 2.0,
            },
        )
        summary = summarize(evaluate_reports([passing, failing]))
        assert summary["report"] == "rcm-bench-trajectory"
        assert summary["artifacts"] == [
            "BENCH_adaptive.json",
            "BENCH_kernelspec.json",
        ]
        assert summary["gates_total"] == 3
        assert summary["gates_failed"] == 1
        assert summary["all_pass"] is False
        (failure,) = summary["failures"]
        assert failure["metric"] == "speedup_numba_vs_pr3"
        assert failure["value"] == 1.5

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
    @pytest.mark.parametrize("name", sorted(GATE_REGISTRY))
    def test_every_gate_names_keys_its_benchmark_writes(self, name):
        # Read the writer's source rather than import it: the benchmark
        # modules import the whole experiment stack.
        benchmarks = pathlib.Path(__file__).resolve().parent.parent / "benchmarks"
        marker = f'"benchmark": "{name}"'
        (source,) = [
            text
            for text in (path.read_text(encoding="utf-8") for path in benchmarks.glob("test_bench_*.py"))
            if marker in text
        ]
        for gate in GATE_REGISTRY[name]:
            assert f'"{gate.metric}"' in source
            assert f'"{gate.bound_key}"' in source

    def test_the_registry_holds_the_jit_and_adaptive_gates(self):
        gates = {
            (benchmark, gate.metric): gate.nullable
            for benchmark, registered in GATE_REGISTRY.items()
            for gate in registered
        }
        # Only the JIT ratios may be null: they need Numba, which CI
        # installs on one leg only.
        assert gates == {
            ("kernelspec-unified-driver", "speedup_numba_vs_pr3"): True,
            ("kernelspec-unified-driver", "speedup_numba_vs_pr2"): True,
            ("adaptive-trial-allocation", "pairs_saved_ratio"): False,
        }
