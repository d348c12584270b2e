"""Tests for the ``rcm`` command-line interface."""

from __future__ import annotations

import pytest

from repro import cli
from repro.cli import build_parser, main


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_routability_arguments(self):
        arguments = build_parser().parse_args(
            ["routability", "--geometry", "xor", "--q", "0.3", "--d", "16"]
        )
        assert arguments.command == "routability"
        assert arguments.geometry == "xor"
        assert arguments.q == 0.3
        assert arguments.d == 16

    def test_unknown_geometry_rejected_by_argparse(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["routability", "--geometry", "pastry", "--q", "0.1", "--d", "8"])

    def test_simulate_accepts_multiple_qs(self):
        arguments = build_parser().parse_args(
            ["simulate", "--geometry", "ring", "--q", "0.1", "0.3", "--d", "8"]
        )
        assert arguments.q == [0.1, 0.3]

    @pytest.mark.parametrize(
        "command, flag",
        [
            (["simulate", "--geometry", "ring", "--q", "0.1"], "--per-cell"),
            (["run", "FIG6A"], "--fused"),
            (["simulate", "--geometry", "ring", "--q", "0.1"], "--engine"),
            (["run", "FIG6A"], "--engine"),
            (["simulate", "--geometry", "ring", "--q", "0.1"], "--batch-size=4096"),
            (["run", "FIG6A"], "--batch-size=4096"),
            (["serve"], "--batch-size=4096"),
        ],
    )
    def test_removed_dispatch_flags_exit_2(self, command, flag, capsys):
        with pytest.raises(SystemExit) as raised:
            main([*command, flag])
        assert raised.value.code == 2
        assert flag in capsys.readouterr().err


class TestCommands:
    def test_list_prints_experiments(self, capsys):
        assert main(["list"]) == 0
        output = capsys.readouterr().out
        assert "FIG6A" in output
        assert "FIG7B" in output

    def test_routability_command(self, capsys):
        assert main(["routability", "--geometry", "xor", "--q", "0.3", "--d", "16"]) == 0
        output = capsys.readouterr().out
        assert "xor" in output
        assert "routability" in output

    def test_scalability_command(self, capsys):
        assert main(["scalability"]) == 0
        output = capsys.readouterr().out
        assert "smallworld" in output
        assert "hypercube" in output

    def test_compare_command(self, capsys):
        assert main(["compare", "--q", "0.2", "--d", "10"]) == 0
        output = capsys.readouterr().out
        assert "tree" in output and "ring" in output

    def test_simulate_command(self, capsys):
        assert main(
            [
                "simulate",
                "--geometry",
                "hypercube",
                "--d",
                "7",
                "--q",
                "0.0",
                "0.3",
                "--pairs",
                "60",
                "--trials",
                "1",
            ]
        ) == 0
        output = capsys.readouterr().out
        assert "routability" in output
        assert "hypercube" in output

    def test_run_experiment_command(self, capsys):
        assert main(
            ["run", "TAB-SCAL", "--pairs", "50", "--trials", "1"]
        ) == 0
        output = capsys.readouterr().out
        assert "scalability_classification" in output

    def test_run_experiment_csv_export(self, capsys):
        assert main(
            ["run", "FIG7B", "--csv", "fig7b_routability_percent", "--pairs", "50", "--trials", "1"]
        ) == 0
        output = capsys.readouterr().out
        assert output.splitlines()[0].startswith("n_nodes")


class TestFailureModelOption:
    def test_uniform_is_the_default(self):
        arguments = build_parser().parse_args(
            ["simulate", "--geometry", "ring", "--q", "0.1", "--d", "8"]
        )
        # Absent stays None so --churn-trace can reject an explicit value;
        # the request fills in the default.
        assert arguments.failure_model is None
        assert cli._simulate_request(arguments).failure_models == ("uniform",)

    def test_unknown_model_rejected_by_argparse(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["simulate", "--geometry", "ring", "--q", "0.1", "--failure-model", "meteor"]
            )

    @pytest.mark.parametrize("model", ["targeted", "regional", "subtree", "uniform+regional"])
    def test_simulate_runs_under_every_model(self, model, capsys):
        assert main(
            [
                "simulate", "--geometry", "xor", "--d", "6",
                "--q", "0.3", "--pairs", "40", "--trials", "1",
                "--failure-model", model,
            ]
        ) == 0
        output = capsys.readouterr().out
        assert model in output  # the table title names the model


class TestChurnTraceOption:
    @pytest.fixture()
    def trace_path(self, tmp_path):
        from repro.workloads import markov_trace

        path = tmp_path / "trace.txt"
        markov_trace(
            64, 6, leave_probability=0.1, rejoin_probability=0.05, seed=23
        ).save(path)
        return str(path)

    def test_simulate_without_q_or_trace_is_a_parser_error(self, capsys):
        with pytest.raises(SystemExit):
            main(["simulate", "--geometry", "xor", "--d", "6"])
        assert "--churn-trace" in capsys.readouterr().err

    def test_trace_replay_prints_per_step_rows(self, trace_path, capsys):
        assert main(
            [
                "simulate", "--geometry", "xor", "--d", "6",
                "--churn-trace", trace_path, "--pairs", "40",
                "--churn-repair-every", "2",
            ]
        ) == 0
        output = capsys.readouterr().out
        assert "Trace-driven churn" in output
        assert "usable_fraction" in output

    def test_trace_profile_reports_the_churn_phases(self, trace_path, capsys):
        assert main(
            [
                "simulate", "--geometry", "ring", "--d", "6",
                "--churn-trace", trace_path, "--pairs", "40", "--profile",
            ]
        ) == 0
        output = capsys.readouterr().out
        for phase in ("mask_generation", "kernel_hops", "reduction"):
            assert phase in output
        assert "state_update" not in output

    def test_trace_json_export(self, trace_path, tmp_path, capsys):
        import json

        path = tmp_path / "churn.json"
        assert main(
            [
                "simulate", "--geometry", "xor", "--d", "6",
                "--churn-trace", trace_path, "--pairs", "40",
                "--json", str(path),
            ]
        ) == 0
        capsys.readouterr()
        payload = json.loads(path.read_text(encoding="utf-8"))
        assert payload["geometry"] == "xor"
        assert payload["churn_trace"] == trace_path
        assert len(payload["rows"]) == 6
        assert all(row["effective_q"] is None for row in payload["rows"])

    @pytest.mark.parametrize("backend", ["auto", "numpy"])
    def test_trace_json_names_the_backend_that_ran(self, trace_path, tmp_path, capsys, backend):
        import json

        from repro.sim.backends import resolve_backend

        path = tmp_path / "churn.json"
        assert main(
            [
                "simulate", "--geometry", "xor", "--d", "6",
                "--churn-trace", trace_path, "--pairs", "40",
                "--backend", backend, "--json", str(path),
            ]
        ) == 0
        capsys.readouterr()
        payload = json.loads(path.read_text(encoding="utf-8"))
        assert payload["backend"] == resolve_backend(backend).name != "auto"

    @pytest.mark.parametrize(
        "extra, flag",
        [
            (["--q", "0.3"], "--q"),
            (["--trials", "7"], "--trials"),
            (["--workers", "3"], "--workers"),
            (["--workers", "1"], "--workers"),
            (["--min-trials", "3"], "--min-trials"),
            (["--failure-model", "targeted"], "--failure-model"),
            (["--failure-model", "uniform"], "--failure-model"),
            (["--adaptive"], "--adaptive"),
            (["--ci-target", "0.05"], "--ci-target"),
            (["--max-trials", "4"], "--max-trials"),
            (["--replay-allocation", "absent-ledger.json"], "--replay-allocation"),
            (["--allocation-out", "ledger.json"], "--allocation-out"),
            (["--store", "cells.db"], "--store"),
        ],
    )
    def test_static_sweep_flags_are_rejected_with_a_trace(
        self, trace_path, tmp_path, monkeypatch, capsys, extra, flag
    ):
        workdir = tmp_path / "work"
        workdir.mkdir()
        monkeypatch.chdir(workdir)  # a rejected run writes no store, ledger or JSON
        command = ["simulate", "--geometry", "xor", "--d", "6", "--churn-trace", trace_path]
        assert main([*command, *extra, "--json", "out.json"]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {flag} cannot be combined with --churn-trace\n"
        assert captured.out == ""
        assert list(workdir.iterdir()) == []

    def test_repair_period_without_a_trace_is_rejected(self, capsys):
        command = ["simulate", "--geometry", "xor", "--d", "6", "--q", "0.3"]
        assert main([*command, "--churn-repair-every", "2"]) == 2
        assert capsys.readouterr().err == "error: --churn-repair-every requires --churn-trace\n"

    def test_missing_trace_file_exits_2_with_one_line_error(self, tmp_path, capsys):
        assert main(
            [
                "simulate", "--geometry", "xor", "--d", "6",
                "--churn-trace", str(tmp_path / "absent.txt"),
            ]
        ) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert "Traceback" not in captured.err


@pytest.fixture
def no_simulation(monkeypatch):
    """Fail the test if ``rcm simulate`` starts to simulate."""

    def refuse(*args, **kwargs):
        raise AssertionError("the simulation ran before the output paths were checked")

    monkeypatch.setattr("repro.sim.request.run_shard", refuse)


class TestJsonExport:
    def _export(self, tmp_path, capsys, *extra):
        path = tmp_path / "out.json"
        assert main(
            [
                "simulate", "--geometry", "ring", "--d", "2",
                "--q", "0.97", "--pairs", "10", "--trials", "3",
                "--json", str(path), *extra,
            ]
        ) == 0
        capsys.readouterr()
        return path.read_text(encoding="utf-8")

    def test_degenerate_sweep_exports_strict_json(self, tmp_path, capsys):
        # Regression: at q=0.97 on a 4-node ring every trial is degenerate and
        # the routability is undefined; the export used to contain the literal
        # NaN, which jq/JSON.parse reject.
        import json

        text = self._export(tmp_path, capsys)
        assert "NaN" not in text

        def reject_constant(name):  # json.loads only calls this for NaN/Infinity
            raise AssertionError(f"non-finite constant {name} in JSON export")

        payload = json.loads(text, parse_constant=reject_constant)
        assert payload["rows"][0]["routability"] is None
        assert payload["rows"][0]["attempts"] == 0

    def test_export_records_the_failure_model(self, tmp_path, capsys):
        import json

        text = self._export(tmp_path, capsys, "--failure-model", "regional")
        assert json.loads(text)["failure_model"] == "regional"

    def test_unusable_json_path_exits_2_before_simulating(self, tmp_path, capsys, no_simulation):
        path = tmp_path / "missing" / "out.json"
        command = ["simulate", "--geometry", "xor", "--d", "10", "--q", "0.1", "--json", str(path)]
        assert main(command) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            f"error: cannot write --json file {str(path)!r}: "
            f"directory {str(path.parent)!r} does not exist\n"
        )
        assert not path.parent.exists()


class TestServeParser:
    def test_serve_defaults(self):
        arguments = build_parser().parse_args(["serve"])
        assert arguments.command == "serve"
        assert arguments.host == "127.0.0.1"
        assert arguments.port == 8642
        assert arguments.store == "rcm_sweeps.db"
        assert arguments.max_jobs == 2

    def test_dump_flags_are_mutually_exclusive(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--dump-openapi", "--dump-api-markdown"])

    def test_dump_openapi_prints_the_document(self, capsys):
        import json

        assert main(["serve", "--dump-openapi"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["openapi"] == "3.0.3"
        assert "/v1/sweeps" in document["paths"]

    def test_dump_api_markdown_matches_the_generator(self, capsys):
        from repro.service.apidocs import generate_api_markdown
        from repro.service.routes import build_routes

        assert main(["serve", "--dump-api-markdown"]) == 0
        assert capsys.readouterr().out == generate_api_markdown(build_routes(None))


class TestResultStoreOption:
    def _simulate(self, store, *extra):
        return [
            "simulate", "--geometry", "ring", "--d", "6",
            "--q", "0.1", "--pairs", "20", "--trials", "1",
            "--store", str(store), *extra,
        ]

    def test_store_round_trip_reports_cache_hits(self, tmp_path, capsys):
        store = tmp_path / "cells.db"
        assert main(self._simulate(store)) == 0
        first = capsys.readouterr()
        assert "0 computed" not in first.err

        assert main(self._simulate(store)) == 0
        second = capsys.readouterr()
        assert "1 of 1 cells served" in second.err
        assert "(0 computed)" in second.err
        assert second.out == first.out  # bit-identical tables either way

    def test_unwritable_store_exits_2_with_one_line_error(self, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file, not a directory")
        assert main(self._simulate(blocker / "sub" / "cells.db")) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: cannot create result-store directory")
        assert "Traceback" not in captured.err

    def test_store_pointing_at_directory_exits_2(self, tmp_path, capsys):
        assert main(self._simulate(tmp_path)) == 2
        captured = capsys.readouterr()
        assert "is a directory" in captured.err

    def test_serve_with_unusable_store_exits_2(self, tmp_path, capsys):
        assert main(["serve", "--store", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert "is a directory" in captured.err


class TestAdaptiveOption:
    def _simulate(self, *extra):
        return [
            "simulate", "--geometry", "xor", "--d", "6",
            "--q", "0.1", "0.4", "0.9", "--pairs", "40", "--trials", "4",
            *extra,
        ]

    def test_parser_accepts_the_adaptive_flags(self):
        arguments = build_parser().parse_args(
            self._simulate(
                "--adaptive", "--ci-target", "0.05",
                "--min-trials", "3", "--max-trials", "8",
            )
        )
        assert arguments.adaptive is True
        assert arguments.ci_target == 0.05
        assert arguments.min_trials == 3
        assert arguments.max_trials == 8

    def test_adaptive_prints_the_allocation_table(self, capsys):
        assert main(self._simulate("--adaptive", "--ci-target", "0.08")) == 0
        captured = capsys.readouterr()
        assert "per-point trial allocation" in captured.out
        assert "frozen_by" in captured.out
        assert "[adaptive]" in captured.err

    def test_adaptive_requires_ci_target(self, capsys):
        assert main(self._simulate("--adaptive")) == 2
        assert "--ci-target" in capsys.readouterr().err

    def test_ci_target_requires_adaptive(self, capsys):
        assert main(self._simulate("--ci-target", "0.05")) == 2
        assert "--adaptive" in capsys.readouterr().err

    def test_allocation_out_requires_adaptive_mode(self, capsys):
        assert main(self._simulate("--allocation-out", "ledger.txt")) == 2
        assert "--allocation-out requires" in capsys.readouterr().err

    def test_record_and_replay_round_trip_is_bit_identical(self, tmp_path, capsys):
        ledger_path = tmp_path / "allocation.txt"
        assert main(
            self._simulate(
                "--adaptive", "--ci-target", "0.08",
                "--allocation-out", str(ledger_path),
            )
        ) == 0
        recorded = capsys.readouterr()
        assert ledger_path.read_text(encoding="utf-8").startswith(
            "# rcm-adaptive-allocation v1"
        )
        assert main(
            self._simulate("--replay-allocation", str(ledger_path))
        ) == 0
        replayed = capsys.readouterr()
        # The measured-rows table is byte-identical; only the allocation
        # schedule's frozen_by column differs (every row reads "replay").
        measured = recorded.out.split("[adaptive]")[0]
        assert replayed.out.split("[adaptive]")[0] == measured
        assert replayed.out.count("replay") >= 3
        assert "[replayed]" in replayed.err

    def test_replay_rejects_adaptive_flags(self, tmp_path, capsys):
        ledger_path = tmp_path / "allocation.txt"
        main(
            self._simulate(
                "--adaptive", "--ci-target", "0.08",
                "--allocation-out", str(ledger_path),
            )
        )
        capsys.readouterr()
        assert main(
            self._simulate(
                "--replay-allocation", str(ledger_path), "--adaptive",
            )
        ) == 2
        assert "do not combine" in capsys.readouterr().err

    def test_unusable_allocation_out_exits_2_before_simulating(
        self, tmp_path, capsys, no_simulation
    ):
        command = self._simulate(
            "--adaptive", "--ci-target", "0.08", "--allocation-out", str(tmp_path)
        )
        assert main(command) == 2
        assert capsys.readouterr().err == (
            f"error: cannot write --allocation-out file {str(tmp_path)!r}: is a directory\n"
        )

    def test_missing_ledger_file_exits_2_with_one_line_error(self, tmp_path, capsys):
        assert main(
            self._simulate("--replay-allocation", str(tmp_path / "absent.txt"))
        ) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: cannot read allocation ledger")
        assert "Traceback" not in captured.err

    def test_json_export_records_the_allocation(self, tmp_path, capsys):
        import json

        path = tmp_path / "out.json"
        assert main(
            self._simulate(
                "--adaptive", "--ci-target", "0.08", "--json", str(path),
            )
        ) == 0
        capsys.readouterr()
        payload = json.loads(path.read_text(encoding="utf-8"))
        adaptive = payload["adaptive"]
        assert adaptive["replayed"] is False
        assert adaptive["ci_target"] == 0.08
        assert adaptive["max_trials"] == 4
        assert adaptive["trials_allocated"] + adaptive["trials_saved"] == 3 * 4
        assert len(adaptive["points"]) == 3
        assert all(point["frozen_by"] for point in adaptive["points"])


class TestBenchReportCommand:
    def _artifact(self, tmp_path, ratio):
        import json

        path = tmp_path / "BENCH_adaptive.json"
        path.write_text(
            json.dumps(
                {
                    "benchmark": "adaptive-trial-allocation",
                    "pairs_saved_ratio": ratio,
                    "ratio_floor": 2.0,
                }
            ),
            encoding="utf-8",
        )
        return str(path)

    def test_renders_the_trajectory_table(self, tmp_path, capsys):
        path = self._artifact(tmp_path, 2.5)
        assert main(["bench-report", path]) == 0
        output = capsys.readouterr().out
        assert "Performance trajectory" in output
        assert "pairs_saved_ratio" in output
        assert "pass" in output
        assert "0 failed" in output

    def test_check_fails_on_a_regressed_gate(self, tmp_path, capsys):
        path = self._artifact(tmp_path, 1.5)
        assert main(["bench-report", path]) == 0  # report-only: table, exit 0
        capsys.readouterr()
        assert main(["bench-report", path, "--check"]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_json_summary_export(self, tmp_path, capsys):
        import json

        artifact = self._artifact(tmp_path, 2.5)
        summary_path = tmp_path / "trajectory.json"
        assert main(["bench-report", artifact, "--json", str(summary_path)]) == 0
        capsys.readouterr()
        summary = json.loads(summary_path.read_text(encoding="utf-8"))
        assert summary["report"] == "rcm-bench-trajectory"
        assert summary["all_pass"] is True
        assert summary["gates_total"] == 1

    def test_unusable_json_path_exits_2_before_evaluating(self, tmp_path, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the artifacts were evaluated before the output path was checked")

        monkeypatch.setattr("repro.report.bench.evaluate_reports", refuse)
        artifact = self._artifact(tmp_path, 2.5)
        path = tmp_path / "missing" / "trajectory.json"
        assert main(["bench-report", artifact, "--json", str(path)]) == 2
        assert capsys.readouterr().err == (
            f"error: cannot write --json file {str(path)!r}: "
            f"directory {str(path.parent)!r} does not exist\n"
        )
        assert not path.parent.exists()

    def test_no_artifacts_anywhere_exits_2(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)  # empty directory: discovery finds nothing
        assert main(["bench-report"]) == 2
        assert "no benchmark artifacts" in capsys.readouterr().err

    def test_unreadable_artifact_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "BENCH_bad.json"
        bad.write_text("{not json", encoding="utf-8")
        assert main(["bench-report", str(bad)]) == 2
        assert "not valid JSON" in capsys.readouterr().err
