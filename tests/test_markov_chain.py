"""Unit tests for the absorbing Markov-chain engine."""

from __future__ import annotations

import pytest

from repro.exceptions import InvalidParameterError
from repro.markov import MarkovChain


def simple_success_failure_chain(p: float) -> MarkovChain:
    """One transient state that succeeds with probability p and fails otherwise."""
    return MarkovChain({"start": {"success": p, "failure": 1.0 - p}, "success": {}, "failure": {}})


class TestConstruction:
    def test_states_include_successor_only_states(self):
        chain = simple_success_failure_chain(0.5)
        assert set(chain.states) == {"start", "success", "failure"}

    def test_absorbing_states_detected(self):
        chain = simple_success_failure_chain(0.5)
        assert set(chain.absorbing_states) == {"success", "failure"}
        assert chain.transient_states == ("start",)

    def test_self_loop_counts_as_absorbing(self):
        chain = MarkovChain({"a": {"b": 1.0}, "b": {"b": 1.0}})
        assert "b" in chain.absorbing_states

    def test_rejects_rows_not_summing_to_one(self):
        with pytest.raises(InvalidParameterError):
            MarkovChain({"a": {"b": 0.5, "c": 0.3}, "b": {}, "c": {}})

    def test_rejects_negative_probability(self):
        with pytest.raises(InvalidParameterError):
            MarkovChain({"a": {"b": -0.5, "c": 1.5}})

    def test_zero_probability_edges_are_dropped(self):
        chain = MarkovChain({"a": {"b": 1.0, "c": 0.0}, "b": {}, "c": {}})
        assert chain.transition_probability("a", "c") == 0.0
        assert chain.transition_probability("a", "b") == 1.0

    def test_duplicate_successor_entries_accumulate(self):
        chain = MarkovChain({"a": {"b": 1.0}, "b": {}})
        assert chain.transition_probability("a", "b") == 1.0

    def test_len_and_contains(self):
        chain = simple_success_failure_chain(0.5)
        assert len(chain) == 3
        assert "start" in chain
        assert "unknown" not in chain


class TestAbsorption:
    def test_single_step_probabilities(self):
        chain = simple_success_failure_chain(0.7)
        result = chain.absorption_analysis("start")
        assert result.probability_of("success") == pytest.approx(0.7)
        assert result.probability_of("failure") == pytest.approx(0.3)
        assert result.expected_steps == pytest.approx(1.0)

    def test_start_in_absorbing_state(self):
        chain = simple_success_failure_chain(0.7)
        result = chain.absorption_analysis("success")
        assert result.probability_of("success") == 1.0
        assert result.expected_steps == 0.0

    def test_two_stage_chain(self):
        # start -> middle -> success, each stage succeeding with probability 0.9.
        chain = MarkovChain(
            {
                "start": {"middle": 0.9, "failure": 0.1},
                "middle": {"success": 0.9, "failure": 0.1},
                "success": {},
                "failure": {},
            }
        )
        result = chain.absorption_analysis("start")
        assert result.probability_of("success") == pytest.approx(0.81)
        assert result.expected_steps == pytest.approx(1.0 + 0.9)

    def test_geometric_retry_chain(self):
        # A state that retries itself: success probability p each round.
        chain = MarkovChain(
            {"retry": {"retry": 0.5, "success": 0.3, "failure": 0.2}, "success": {}, "failure": {}}
        )
        result = chain.absorption_analysis("retry")
        assert result.probability_of("success") == pytest.approx(0.3 / 0.5)
        assert result.expected_steps == pytest.approx(2.0)

    def test_unknown_start_rejected(self):
        chain = simple_success_failure_chain(0.5)
        with pytest.raises(InvalidParameterError):
            chain.absorption_analysis("missing")

    def test_chain_without_absorbing_states_rejected(self):
        chain = MarkovChain({"a": {"b": 1.0}, "b": {"a": 1.0}})
        with pytest.raises(InvalidParameterError):
            chain.absorption_analysis("a")

    def test_probabilities_dictionary_shortcut(self):
        chain = simple_success_failure_chain(0.6)
        assert chain.absorption_probabilities("start")["success"] == pytest.approx(0.6)


class TestHittingProbability:
    def test_hitting_target_before_failure(self):
        chain = MarkovChain(
            {
                "start": {"middle": 0.8, "failure": 0.2},
                "middle": {"goal": 0.5, "failure": 0.5},
                "goal": {"end": 1.0},
                "failure": {},
                "end": {},
            }
        )
        # Probability of ever visiting "goal" is 0.8 * 0.5 even though goal is not absorbing.
        assert chain.hitting_probability("start", ["goal"]) == pytest.approx(0.4)

    def test_hitting_self_is_certain(self):
        chain = simple_success_failure_chain(0.5)
        assert chain.hitting_probability("start", ["start"]) == 1.0

    def test_multiple_targets(self):
        chain = simple_success_failure_chain(0.5)
        assert chain.hitting_probability("start", ["success", "failure"]) == pytest.approx(1.0)

    def test_empty_targets_rejected(self):
        chain = simple_success_failure_chain(0.5)
        with pytest.raises(InvalidParameterError):
            chain.hitting_probability("start", [])

    def test_unknown_target_rejected(self):
        chain = simple_success_failure_chain(0.5)
        with pytest.raises(InvalidParameterError):
            chain.hitting_probability("start", ["nowhere"])
