"""Tests for sweep grids and workload specifications."""

from __future__ import annotations

import os
import subprocess
import sys

import numpy as np
import pytest

from repro.exceptions import InvalidParameterError
from repro.workloads.generators import (
    PairWorkload,
    failure_probability_grid,
    paper_failure_probabilities,
    paper_system_sizes,
    system_size_grid,
)
from repro.workloads.traces import (
    ChurnTrace,
    load_trace,
    markov_trace,
    pareto_session_trace,
)


class TestFailureProbabilityGrid:
    def test_default_grid_matches_paper_range(self):
        grid = failure_probability_grid()
        assert grid[0] == 0.0
        assert grid[-1] == 0.9
        assert len(grid) == 10

    def test_custom_step(self):
        assert failure_probability_grid(0.0, 0.2, 0.05) == (0.0, 0.05, 0.1, 0.15, 0.2)

    def test_rejects_bad_step(self):
        with pytest.raises(InvalidParameterError):
            failure_probability_grid(0.0, 0.5, 0.0)

    def test_rejects_reversed_bounds(self):
        with pytest.raises(InvalidParameterError):
            failure_probability_grid(0.5, 0.1, 0.1)

    def test_degenerate_grid_start_equals_stop(self):
        # A zero-width range is a legal single-point grid, not an error —
        # sweeps pinned to one severity use it.
        assert failure_probability_grid(0.3, 0.3, 0.1) == (0.3,)
        assert failure_probability_grid(0.0, 0.0, 0.05) == (0.0,)

    def test_paper_grid_fast_and_full(self):
        full = paper_failure_probabilities()
        fast = paper_failure_probabilities(fast=True)
        assert len(fast) < len(full)
        assert full[0] == fast[0] == 0.0
        assert max(full) == max(fast) == 0.9
        assert all(0.0 <= q <= 0.9 for q in full)


class TestSystemSizeGrid:
    def test_powers_of_two(self):
        assert system_size_grid(4, 7) == (16, 32, 64, 128)

    def test_rejects_reversed_bounds(self):
        with pytest.raises(InvalidParameterError):
            system_size_grid(8, 4)

    def test_degenerate_grid_single_size(self):
        assert system_size_grid(5, 5) == (32,)

    def test_paper_sizes_reach_billions(self):
        sizes = paper_system_sizes()
        assert sizes[0] == 16
        assert sizes[-1] >= 10**10
        fast = paper_system_sizes(fast=True)
        assert len(fast) < len(sizes)


class TestPairWorkload:
    def test_defaults_are_positive(self):
        workload = PairWorkload()
        assert workload.pairs > 0
        assert workload.trials > 0

    def test_invalid_values_rejected(self):
        with pytest.raises(InvalidParameterError):
            PairWorkload(pairs=0)
        with pytest.raises(InvalidParameterError):
            PairWorkload(trials=-1)
        with pytest.raises(InvalidParameterError):
            PairWorkload(seed=-1)

    def test_seed_zero_is_accepted(self):
        assert PairWorkload(seed=0).seed == 0

    def test_derived_seed_is_deterministic_and_label_dependent(self):
        workload = PairWorkload(seed=1234)
        assert workload.derived_seed("fig6a-tree") == workload.derived_seed("fig6a-tree")
        assert workload.derived_seed("fig6a-tree") != workload.derived_seed("fig6a-xor")

    def test_scaled_keeps_at_least_one_pair(self):
        workload = PairWorkload(pairs=10)
        assert workload.scaled(0.001).pairs == 1
        assert workload.scaled(2.0).pairs == 20

    def test_scaled_rejects_non_positive_factor(self):
        with pytest.raises(InvalidParameterError):
            PairWorkload().scaled(0.0)

    def test_scaled_rounding_below_one_over_pairs(self):
        # factor < 1 / (2 * pairs) rounds to zero pairs; the floor of one
        # pair keeps the scaled workload runnable.
        workload = PairWorkload(pairs=10)
        assert workload.scaled(0.04).pairs == 1  # round(0.4) == 0 -> floored
        # round() is banker's rounding: 4 * 0.625 == 2.5 rounds to 2, not 3.
        assert PairWorkload(pairs=4).scaled(0.625).pairs == 2

    def test_derived_seed_is_stable_across_processes(self):
        # Experiments derive per-table seeds from labels; the derivation must
        # not depend on anything process-local (hash randomization, id()s),
        # or distributed shards would diverge from in-process runs.
        workload = PairWorkload(seed=4242)
        label = "ext-trace-xor"
        import repro

        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        completed = subprocess.run(
            [
                sys.executable,
                "-c",
                "from repro.workloads.generators import PairWorkload;"
                f"print(PairWorkload(seed=4242).derived_seed({label!r}))",
            ],
            capture_output=True,
            text=True,
            env=env,
            check=True,
        )
        assert int(completed.stdout.strip()) == workload.derived_seed(label)


class TestChurnTrace:
    def _trace(self, **overrides):
        fields = {
            "n_nodes": 8,
            "n_steps": 5,
            "steps": np.array([1, 2, 4], dtype=np.int64),
            "nodes": np.array([3, 3, 5], dtype=np.int64),
            "joins": np.array([False, True, False]),
        }
        fields.update(overrides)
        return ChurnTrace(**fields)

    def test_events_at_slices_one_step(self):
        trace = self._trace()
        nodes, joins = trace.events_at(1)
        assert nodes.tolist() == [3] and joins.tolist() == [False]
        nodes, joins = trace.events_at(3)
        assert nodes.size == 0 and joins.size == 0
        assert trace.n_events == 3

    def test_round_trip_save_load(self, tmp_path):
        trace = self._trace()
        path = tmp_path / "trace.txt"
        trace.save(path)
        loaded = load_trace(path)
        assert loaded.n_nodes == trace.n_nodes
        assert loaded.n_steps == trace.n_steps
        assert loaded.steps.tolist() == trace.steps.tolist()
        assert loaded.nodes.tolist() == trace.nodes.tolist()
        assert loaded.joins.tolist() == trace.joins.tolist()

    def test_load_rejects_missing_header(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("nodes=4 steps=2\n1 0 L\n", encoding="ascii")
        with pytest.raises(InvalidParameterError, match="header"):
            load_trace(path)

    def test_load_rejects_malformed_event_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text(
            "# rcm-churn-trace v1\nnodes=4 steps=2\n1 0 LEAVE\n", encoding="ascii"
        )
        with pytest.raises(InvalidParameterError, match="malformed"):
            load_trace(path)

    def test_first_event_must_be_a_leave(self):
        with pytest.raises(InvalidParameterError, match="starts online"):
            self._trace(
                steps=np.array([1], dtype=np.int64),
                nodes=np.array([3], dtype=np.int64),
                joins=np.array([True]),
            )

    def test_two_events_on_one_step_rejected(self):
        with pytest.raises(InvalidParameterError, match="same step"):
            self._trace(
                steps=np.array([1, 1], dtype=np.int64),
                nodes=np.array([3, 3], dtype=np.int64),
                joins=np.array([False, True]),
            )

    def test_non_alternating_events_rejected(self):
        with pytest.raises(InvalidParameterError, match="alternate"):
            self._trace(
                steps=np.array([1, 2], dtype=np.int64),
                nodes=np.array([3, 3], dtype=np.int64),
                joins=np.array([False, False]),
            )

    def test_out_of_range_events_rejected(self):
        with pytest.raises(InvalidParameterError, match="steps"):
            self._trace(steps=np.array([1, 2, 9], dtype=np.int64))
        with pytest.raises(InvalidParameterError, match="nodes"):
            self._trace(nodes=np.array([3, 3, 8], dtype=np.int64))

    def test_event_arrays_are_frozen(self):
        trace = self._trace()
        with pytest.raises(ValueError):
            trace.steps[0] = 2


class TestTraceGenerators:
    def test_markov_trace_is_deterministic_with_seed(self):
        first = markov_trace(64, 20, seed=5)
        second = markov_trace(64, 20, seed=5)
        assert first.steps.tolist() == second.steps.tolist()
        assert first.nodes.tolist() == second.nodes.tolist()
        assert first.joins.tolist() == second.joins.tolist()
        assert first.n_events > 0

    def test_markov_trace_rejects_a_frozen_chain(self):
        with pytest.raises(InvalidParameterError):
            markov_trace(16, 4, leave_probability=0.0, rejoin_probability=0.0, seed=1)

    def test_pareto_trace_is_deterministic_with_seed(self):
        first = pareto_session_trace(64, 40, seed=5)
        second = pareto_session_trace(64, 40, seed=5)
        assert first.steps.tolist() == second.steps.tolist()
        assert first.nodes.tolist() == second.nodes.tolist()
        assert first.n_events > 0

    def test_pareto_trace_rejects_invalid_parameters(self):
        with pytest.raises(InvalidParameterError, match="shape"):
            pareto_session_trace(16, 4, shape=1.0, seed=1)
        with pytest.raises(InvalidParameterError, match="mean_online"):
            pareto_session_trace(16, 4, mean_online=0.5, seed=1)

    def test_shorter_offline_sessions_keep_more_nodes_online(self):
        # Sanity on the session semantics: with near-instant rejoins the
        # population stays mostly online, so fewer leave events go unmatched.
        quick = pareto_session_trace(128, 60, mean_online=20.0, mean_offline=1.0, seed=9)
        slow = pareto_session_trace(128, 60, mean_online=20.0, mean_offline=40.0, seed=9)
        assert int(quick.joins.sum()) >= int(slow.joins.sum())
