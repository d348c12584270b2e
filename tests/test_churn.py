"""Tests for the churn extension (dynamic-failure applicability of the static model)."""

from __future__ import annotations

import functools
import math

import numpy as np
import pytest

from repro.core.geometry import get_geometry
from repro.dht import ChordOverlay, HypercubeOverlay, KademliaOverlay
from repro.exceptions import InvalidParameterError
from repro.sim import engine
from repro.sim.backends import python_loop_backend
from repro.sim.churn import (
    CHURN_PROFILE_PHASES,
    ChurnConfig,
    effective_failure_probability,
    simulate_churn,
)
from repro.sim.conformance import _oracle_churn, chunked_routing
from repro.workloads import ChurnTrace, markov_trace


@pytest.fixture(scope="module")
def overlay():
    return KademliaOverlay.build(8, seed=17)


class TestChurnConfig:
    def test_defaults_are_valid(self):
        config = ChurnConfig()
        assert 0.0 < config.stationary_offline_fraction < 1.0

    def test_stationary_offline_fraction(self):
        config = ChurnConfig(leave_probability=0.02, rejoin_probability=0.06)
        assert config.stationary_offline_fraction == pytest.approx(0.25)

    def test_rejects_invalid_probabilities(self):
        with pytest.raises(InvalidParameterError):
            ChurnConfig(leave_probability=1.5)
        with pytest.raises(InvalidParameterError):
            ChurnConfig(rejoin_probability=-0.1)

    def test_rejects_frozen_process(self):
        with pytest.raises(InvalidParameterError):
            ChurnConfig(leave_probability=0.0, rejoin_probability=0.0)

    def test_rejects_non_positive_counts(self):
        with pytest.raises(InvalidParameterError):
            ChurnConfig(steps_per_epoch=0)
        with pytest.raises(InvalidParameterError):
            ChurnConfig(pairs_per_step=0)


class TestEffectiveFailureProbability:
    def test_zero_steps_means_no_failures(self):
        assert effective_failure_probability(ChurnConfig(), 0) == 0.0

    def test_monotone_in_time(self):
        config = ChurnConfig(leave_probability=0.05, rejoin_probability=0.05)
        values = [effective_failure_probability(config, t) for t in range(0, 30)]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_converges_to_stationary_fraction(self):
        config = ChurnConfig(leave_probability=0.05, rejoin_probability=0.05)
        assert effective_failure_probability(config, 10_000) == pytest.approx(
            config.stationary_offline_fraction
        )

    def test_single_step_equals_leave_probability(self):
        config = ChurnConfig(leave_probability=0.03, rejoin_probability=0.07)
        assert effective_failure_probability(config, 1) == pytest.approx(0.03)

    def test_negative_time_rejected(self):
        with pytest.raises(InvalidParameterError):
            effective_failure_probability(ChurnConfig(), -1)


class TestSimulateChurn:
    @pytest.fixture(scope="class")
    def result(self, overlay):
        config = ChurnConfig(
            leave_probability=0.05,
            rejoin_probability=0.02,
            steps_per_epoch=8,
            pairs_per_step=300,
        )
        return simulate_churn(overlay, config, seed=5)

    def test_one_result_per_step(self, result):
        assert len(result.steps) == 8
        assert [step.step for step in result.steps] == list(range(1, 9))

    def test_usable_fraction_tracks_effective_q(self, result):
        for step in result.steps:
            assert step.usable_fraction == pytest.approx(1.0 - step.effective_q, abs=0.08)

    def test_usable_fraction_never_exceeds_online_fraction(self, result):
        for step in result.steps:
            assert step.usable_fraction <= step.online_fraction + 1e-12

    def test_routability_degrades_over_the_epoch(self, result):
        first, last = result.steps[0], result.steps[-1]
        assert last.measured_routability <= first.measured_routability + 0.02

    def test_rows_match_steps(self, result):
        rows = result.as_rows()
        assert len(rows) == len(result.steps)
        assert rows[0]["step"] == 1
        assert 0.0 <= rows[-1]["measured_routability"] <= 1.0

    def test_reproducible_with_seed(self, overlay):
        config = ChurnConfig(steps_per_epoch=4, pairs_per_step=100)
        first = simulate_churn(overlay, config, seed=9)
        second = simulate_churn(overlay, config, seed=9)
        assert [s.measured_routability for s in first.steps] == [
            s.measured_routability for s in second.steps
        ]

    def test_static_model_predicts_churn_routability(self):
        # The headline claim of the EXT-CHURN extension, checked on a hypercube
        # overlay where the analytical model is essentially exact.
        overlay = HypercubeOverlay.build(9)
        config = ChurnConfig(
            leave_probability=0.04,
            rejoin_probability=0.02,
            steps_per_epoch=10,
            pairs_per_step=600,
        )
        result = simulate_churn(overlay, config, seed=3)
        geometry = get_geometry("hypercube")
        for step in result.steps:
            predicted = geometry.routability(step.effective_q, d=overlay.d)
            assert step.measured_routability == pytest.approx(predicted, abs=0.08)


class TestChurnReferences:
    """Windows change how steps are routed, never what is measured."""

    @pytest.fixture(scope="class")
    def config(self):
        return ChurnConfig(
            leave_probability=0.06,
            rejoin_probability=0.03,
            steps_per_epoch=6,
            pairs_per_step=120,
            repair_every=3,
        )

    def test_windows_match_one_step_windows_bit_for_bit(self, overlay, config, monkeypatch):
        windowed = simulate_churn(overlay, config, seed=11)
        # One step per window: the pair chunk holds a single step.
        monkeypatch.setattr(engine, "_MAX_BATCH_PAIRS", config.pairs_per_step)
        assert engine._cells_per_window(config.pairs_per_step) == 1
        per_step = simulate_churn(overlay, config, seed=11)
        assert windowed.as_rows() == per_step.as_rows()

    def test_matches_the_scalar_oracle_reference(self, overlay, config):
        measured = simulate_churn(overlay, config, seed=11)
        expected = _oracle_churn(overlay, config, seed=11)
        assert measured.as_rows() == expected.as_rows()

    def test_rng_stream_matches_the_churn_reference(self, overlay, config):
        # The RNG-discipline contract: per step, the generator is consumed
        # only by the churn draw and by pair sampling — routing draws
        # nothing.  So after simulate_churn and the oracle reference (which
        # routes one step at a time) the generator must sit at the same point
        # of its stream, which we observe through the numbers it yields next.
        leftovers = []
        for run in (simulate_churn, _oracle_churn):
            generator = np.random.default_rng(77)
            run(overlay, config, rng=generator)
            leftovers.append(generator.integers(0, 2**63, size=8).tolist())
        assert leftovers[0] == leftovers[1]

    def test_rng_stream_is_independent_of_the_execution_shape(self, overlay, config):
        leftovers = []
        for run in (
            functools.partial(simulate_churn, backend=python_loop_backend()),
            _oracle_churn,
        ):
            generator = np.random.default_rng(78)
            with chunked_routing():  # 120 pairs per step route in five chunks
                run(overlay, config, rng=generator)
            leftovers.append(generator.integers(0, 2**63, size=8).tolist())
        assert leftovers[0] == leftovers[1]


class TestTraceDrivenChurn:
    @pytest.fixture(scope="class")
    def trace(self, overlay):
        return markov_trace(
            overlay.n_nodes,
            6,
            leave_probability=0.08,
            rejoin_probability=0.05,
            seed=23,
        )

    def test_trace_length_overrides_steps_per_epoch(self, trace):
        config = ChurnConfig(steps_per_epoch=99, trace=trace)
        assert config.total_steps == trace.n_steps

    def test_trace_replay_consumes_no_step_randomness(self, overlay, trace):
        # The online/usable trajectory is fixed by the trace: two runs with
        # different seeds differ only in which pairs they sample.
        config = ChurnConfig(pairs_per_step=50, trace=trace)
        first = simulate_churn(overlay, config, seed=1)
        second = simulate_churn(overlay, config, seed=2)
        assert [s.online_fraction for s in first.steps] == [
            s.online_fraction for s in second.steps
        ]
        assert [s.usable_fraction for s in first.steps] == [
            s.usable_fraction for s in second.steps
        ]

    def test_trace_rows_report_no_effective_q(self, overlay, trace):
        config = ChurnConfig(pairs_per_step=50, trace=trace)
        result = simulate_churn(overlay, config, seed=3)
        assert all(row["effective_q"] is None for row in result.as_rows())

    def test_references_agree_under_a_trace(self, overlay, trace):
        config = ChurnConfig(pairs_per_step=80, trace=trace, repair_every=2)
        rows = [
            simulate_churn(overlay, config, seed=7).as_rows(),
            simulate_churn(overlay, config, seed=7, backend=python_loop_backend()).as_rows(),
            _oracle_churn(overlay, config, seed=7).as_rows(),
        ]
        assert rows[0] == rows[1] == rows[2]

    def test_trace_node_count_mismatch_rejected(self, overlay):
        small = markov_trace(overlay.n_nodes // 2, 4, seed=5)
        with pytest.raises(InvalidParameterError, match="nodes"):
            simulate_churn(overlay, ChurnConfig(trace=small), seed=1)

    def test_config_rejects_a_non_trace(self):
        with pytest.raises(InvalidParameterError, match="ChurnTrace"):
            ChurnConfig(trace="events.txt")

    def test_repair_restores_the_usable_set(self, overlay):
        # One node leaves at step 1 and never returns.  With repair_every=1
        # the tables are re-established to the online set before every step,
        # so usable == online at every step.
        trace = ChurnTrace(
            n_nodes=overlay.n_nodes,
            n_steps=4,
            steps=np.array([1], dtype=np.int64),
            nodes=np.array([0], dtype=np.int64),
            joins=np.array([False]),
        )
        config = ChurnConfig(pairs_per_step=20, trace=trace, repair_every=1)
        result = simulate_churn(overlay, config, seed=9)
        for step in result.steps:
            assert step.usable_fraction == pytest.approx(step.online_fraction)


class TestChurnWindows:
    """A run spanning several windows: one stacked call per window, oracle rows."""

    WIDTH = 3

    @pytest.fixture
    def narrow_windows(self, monkeypatch):
        # Shrink the pair chunk so that one window holds WIDTH steps of 60 pairs.
        monkeypatch.setattr(engine, "_MAX_BATCH_PAIRS", self.WIDTH * 60)
        assert engine._cells_per_window(60) == self.WIDTH

    @pytest.fixture
    def markov_config(self):
        # Every online node leaves at every step and the tables are repaired
        # every second step, so each odd step's online set misses the one at
        # its repair: odd steps are degenerate, and even ones route at usable
        # shares that fall from about 0.55 to 0.2.
        return ChurnConfig(
            leave_probability=1.0, rejoin_probability=0.6,
            steps_per_epoch=8, pairs_per_step=60, repair_every=2,
        )

    @pytest.fixture
    def trace_config(self, overlay):
        # A random 30% of the nodes leave at step 2 and rejoin at step 7;
        # every other node but node 0 leaves at step 5 and rejoins at step 6,
        # so step 5 is degenerate, mid-window, right after a routed step.
        rng = np.random.default_rng(31)
        away = rng.choice(np.arange(1, overlay.n_nodes), size=overlay.n_nodes * 3 // 10, replace=False)
        rest = np.setdiff1d(np.arange(1, overlay.n_nodes), away)
        events = [(2, away, False), (5, rest, False), (6, rest, True), (7, away, True)]
        trace = ChurnTrace(
            n_nodes=overlay.n_nodes,
            n_steps=8,
            steps=np.concatenate([np.full(nodes.size, step) for step, nodes, _ in events]),
            nodes=np.concatenate([nodes for _, nodes, _ in events]),
            joins=np.concatenate([np.full(nodes.size, join) for _, nodes, join in events]),
        )
        return ChurnConfig(pairs_per_step=60, trace=trace)

    @pytest.mark.parametrize("mode", ["markov", "trace"])
    @pytest.mark.parametrize("backend", ["numpy", "python-loop"])
    def test_windows_match_the_oracle_rows_and_stream(
        self, overlay, narrow_windows, mode, backend, request
    ):
        config = request.getfixturevalue(f"{mode}_config")
        routing = python_loop_backend() if backend == "python-loop" else backend
        generators = [np.random.default_rng(41) for _ in range(2)]
        measured = simulate_churn(overlay, config, rng=generators[0], backend=routing)
        expected = _oracle_churn(overlay, config, rng=generators[1])
        rows = measured.as_rows()
        assert rows == expected.as_rows()
        assert generators[0].random() == generators[1].random()
        # The run spans several windows and one of them has a degenerate step
        # after a routed one.
        assert len(rows) > 2 * self.WIDTH
        assert any(
            row["attempts"] == 0 and rows[index - 1]["attempts"] > 0
            for index, row in enumerate(rows)
            if index % self.WIDTH
        )

    @pytest.mark.parametrize("mode", ["markov", "trace"])
    def test_each_window_is_one_stacked_call(
        self, overlay, narrow_windows, mode, request, monkeypatch
    ):
        config = request.getfixturevalue(f"{mode}_config")
        stacks = []
        stacked = engine.route_pairs_stacked

        def recording(overlay, sources, destinations, alive_stack, cell_indices, **options):
            stacks.append(len(alive_stack))
            return stacked(overlay, sources, destinations, alive_stack, cell_indices, **options)

        monkeypatch.setattr(engine, "route_pairs_stacked", recording)
        rows = simulate_churn(overlay, config, seed=41).as_rows()
        windows = [rows[start : start + self.WIDTH] for start in range(0, len(rows), self.WIDTH)]
        routed = [sum(row["attempts"] > 0 for row in window) for window in windows]
        assert stacks == [count for count in routed if count]
        assert max(stacks) > 1

    def test_small_d_windows_hold_at_most_one_pair_chunk(self, monkeypatch):
        # At d=4 a sub-union spans 2^27 steps; the pair bound must still
        # cut a long run of 2000-pair steps into windows of one chunk.
        overlay = ChordOverlay.build(4, seed=5)
        config = ChurnConfig(
            leave_probability=0.05, rejoin_probability=0.5,
            steps_per_epoch=100, pairs_per_step=2000,
        )
        assert engine._cells_per_union(overlay) > config.total_steps
        calls = []
        stacked = engine.route_pairs_stacked

        def recording(overlay, sources, destinations, alive_stack, cell_indices, **options):
            calls.append((len(alive_stack), len(sources)))
            return stacked(overlay, sources, destinations, alive_stack, cell_indices, **options)

        monkeypatch.setattr(engine, "route_pairs_stacked", recording)
        simulate_churn(overlay, config, seed=43)
        assert len(calls) > 1
        assert max(pairs for _, pairs in calls) <= engine._MAX_BATCH_PAIRS
        assert max(cells for cells, _ in calls) == engine._MAX_BATCH_PAIRS // config.pairs_per_step


class TestChurnProfile:
    def test_profile_collects_every_phase(self, overlay):
        profile = {}
        config = ChurnConfig(steps_per_epoch=3, pairs_per_step=40)
        simulate_churn(overlay, config, seed=4, profile=profile)
        # The sweep profiler's names: the trajectory is churn's mask generation.
        assert CHURN_PROFILE_PHASES == ("mask_generation", "kernel_hops", "reduction")
        assert set(CHURN_PROFILE_PHASES) <= set(engine.PROFILE_PHASES)
        assert set(profile) == set(CHURN_PROFILE_PHASES)
        assert all(seconds >= 0.0 for seconds in profile.values())

    def test_profile_does_not_change_the_rows(self, overlay):
        config = ChurnConfig(steps_per_epoch=3, pairs_per_step=40)
        plain = simulate_churn(overlay, config, seed=4)
        profiled = simulate_churn(overlay, config, seed=4, profile={})
        assert plain.as_rows() == profiled.as_rows()


class TestChurnRows:
    def test_rows_expose_attempts_and_none_for_unmeasured_steps(self, small_overlays):
        # Certain leave, no rejoin: after step 1 nothing is usable, so later
        # steps measure nothing and must say so explicitly instead of nan.
        config = ChurnConfig(
            leave_probability=1.0, rejoin_probability=0.0,
            steps_per_epoch=3, pairs_per_step=20,
        )
        result = simulate_churn(small_overlays["ring"], config, seed=5)
        rows = result.as_rows()
        assert all("attempts" in row for row in rows)
        assert rows[-1]["attempts"] == 0
        assert rows[-1]["measured_routability"] is None
        assert not result.steps[-1].metrics.measured
