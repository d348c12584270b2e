"""Tests for the churn extension (dynamic-failure applicability of the static model)."""

from __future__ import annotations

import functools
import math

import numpy as np
import pytest

from repro.core.geometry import get_geometry
from repro.dht import HypercubeOverlay, KademliaOverlay
from repro.exceptions import InvalidParameterError
from repro.sim.backends import KernelBackend, NumpyBackend, python_loop_backend
from repro.sim.churn import (
    CHURN_PROFILE_PHASES,
    ChurnConfig,
    effective_failure_probability,
    simulate_churn,
)
from repro.sim.conformance import _oracle_churn
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


class RebuildingBackend(NumpyBackend):
    """The NumPy backend with the base class's update — a fresh prepare every step."""

    update = KernelBackend.update


class TestChurnReferences:
    """The carried routing state changes how a step is routed, never what is measured."""

    @pytest.fixture(scope="class")
    def config(self):
        return ChurnConfig(
            leave_probability=0.06,
            rejoin_probability=0.03,
            steps_per_epoch=6,
            pairs_per_step=120,
            repair_every=3,
        )

    def test_incremental_matches_rebuild_bit_for_bit(self, overlay, config):
        incremental = simulate_churn(overlay, config, seed=11)
        rebuild = simulate_churn(overlay, config, seed=11, backend=RebuildingBackend())
        assert incremental.as_rows() == rebuild.as_rows()

    def test_matches_the_scalar_oracle_reference(self, overlay, config):
        measured = simulate_churn(overlay, config, seed=11)
        expected = _oracle_churn(overlay, config, seed=11)
        assert measured.as_rows() == expected.as_rows()

    def test_rng_stream_matches_the_churn_reference(self, overlay, config):
        # The RNG-discipline contract: per step, the generator is consumed
        # only by the churn draw and by pair sampling — state maintenance
        # draws nothing.  So after simulate_churn and the oracle reference
        # (which carries no state) the generator must sit at the same point
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
            functools.partial(simulate_churn, batch_size=17, backend=python_loop_backend()),
            _oracle_churn,
        ):
            generator = np.random.default_rng(78)
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
            simulate_churn(overlay, config, seed=7, backend=RebuildingBackend()).as_rows(),
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


class TestChurnProfile:
    def test_profile_collects_every_phase(self, overlay):
        profile = {}
        config = ChurnConfig(steps_per_epoch=3, pairs_per_step=40)
        simulate_churn(overlay, config, seed=4, profile=profile)
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
