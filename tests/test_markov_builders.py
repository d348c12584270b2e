"""Tests for the explicit constructions of the paper's routing Markov chains."""

from __future__ import annotations

import pytest

from repro.exceptions import InvalidParameterError
from repro.markov import (
    FAILURE_STATE,
    hypercube_routing_chain,
    phase_state,
    phase_success_probability,
    ring_routing_chain,
    routing_success_probability,
    suboptimal_state,
    symphony_routing_chain,
    tree_routing_chain,
    xor_routing_chain,
)

ALL_BUILDERS = [
    lambda h, q: tree_routing_chain(h, q),
    lambda h, q: hypercube_routing_chain(h, q),
    lambda h, q: xor_routing_chain(h, q),
    lambda h, q: ring_routing_chain(h, q),
    lambda h, q: symphony_routing_chain(h, q, d=8),
]


class TestStateNaming:
    def test_phase_state_format(self):
        assert phase_state(0) == "S0"
        assert phase_state(7) == "S7"

    def test_suboptimal_state_format(self):
        assert suboptimal_state(2, 3) == ("sub", 2, 3)


@pytest.mark.parametrize("builder", ALL_BUILDERS)
@pytest.mark.parametrize("q", [0.0, 0.1, 0.5, 0.9])
class TestChainStructure:
    def test_success_and_failure_states_are_absorbing(self, builder, q):
        chain = builder(4, q)
        absorbing = set(chain.absorbing_states)
        assert phase_state(4) in absorbing
        assert FAILURE_STATE in absorbing

    def test_absorption_probabilities_sum_to_one(self, builder, q):
        chain = builder(3, q)
        probabilities = chain.absorption_probabilities(phase_state(0))
        assert sum(probabilities.values()) == pytest.approx(1.0)

    def test_outgoing_rows_sum_to_one(self, builder, q):
        chain = builder(3, q)
        for state in chain.transient_states:
            assert sum(chain.successors(state).values()) == pytest.approx(1.0)


@pytest.mark.parametrize("builder", ALL_BUILDERS)
class TestFailureFreeRouting:
    def test_no_failures_means_certain_success(self, builder):
        chain = builder(5, 0.0)
        assert routing_success_probability(chain, 5) == pytest.approx(1.0)

    def test_total_failure_means_certain_failure(self, builder):
        chain = builder(5, 1.0)
        assert routing_success_probability(chain, 5) == pytest.approx(0.0)


class TestTreeChain:
    def test_success_probability_is_power_of_one_minus_q(self):
        q = 0.3
        for h in (1, 2, 4, 7):
            chain = tree_routing_chain(h, q)
            assert routing_success_probability(chain, h) == pytest.approx((1.0 - q) ** h)

    def test_state_count_is_linear_in_h(self):
        chain = tree_routing_chain(6, 0.2)
        assert len(chain) == 6 + 2  # S0..S6 plus F


class TestHypercubeChain:
    def test_matches_equation_two(self):
        q = 0.4
        h = 5
        expected = 1.0
        for m in range(1, h + 1):
            expected *= 1.0 - q**m
        chain = hypercube_routing_chain(h, q)
        assert routing_success_probability(chain, h) == pytest.approx(expected)

    def test_first_step_failure_probability(self):
        q = 0.4
        h = 3
        chain = hypercube_routing_chain(h, q)
        assert chain.transition_probability(phase_state(0), FAILURE_STATE) == pytest.approx(q**h)


class TestXorChain:
    def test_has_suboptimal_states(self):
        chain = xor_routing_chain(3, 0.3)
        assert suboptimal_state(0, 1) in chain
        assert suboptimal_state(0, 2) in chain

    def test_last_phase_has_no_suboptimal_states(self):
        chain = xor_routing_chain(3, 0.3)
        assert suboptimal_state(2, 1) not in chain

    def test_phase_success_decreases_with_remaining_distance(self):
        q = 0.4
        chain = xor_routing_chain(5, q)
        # The first phase (5 bits remaining) is more likely to complete than the
        # last phase (1 bit remaining, only one neighbour can help).
        assert phase_success_probability(chain, 0) > phase_success_probability(chain, 4)


class TestRingChain:
    def test_suboptimal_cap_is_respected(self):
        chain = ring_routing_chain(4, 0.3, max_suboptimal_hops=2)
        assert suboptimal_state(0, 2) in chain
        assert suboptimal_state(0, 3) not in chain

    def test_ring_beats_xor_phase_for_same_parameters(self):
        # The paper's Section 5.4 argument: ring suboptimal transitions dominate XOR's,
        # so the per-phase success probability is at least as large.
        q = 0.5
        ring = ring_routing_chain(4, q)
        xor = xor_routing_chain(4, q)
        assert phase_success_probability(ring, 0) >= phase_success_probability(xor, 0) - 1e-12


class TestSymphonyChain:
    def test_invalid_parameters_rejected(self):
        with pytest.raises(InvalidParameterError):
            symphony_routing_chain(3, 0.3, d=8, near_neighbors=0)

    def test_degenerate_shortcut_ratio_is_clamped(self):
        # ks/d + q^(kn+ks) > 1 is a degenerate corner: the advance probability is
        # clamped so the chain stays a valid distribution instead of erroring.
        chain = symphony_routing_chain(2, 0.9, d=1, near_neighbors=1, shortcuts=1)
        probabilities = chain.absorption_probabilities(phase_state(0))
        assert sum(probabilities.values()) == pytest.approx(1.0)

    def test_phase_success_is_identical_across_phases(self):
        chain = symphony_routing_chain(4, 0.3, d=16)
        first = phase_success_probability(chain, 0)
        later = phase_success_probability(chain, 2)
        assert first == pytest.approx(later)

    def test_more_shortcuts_help(self):
        sparse = symphony_routing_chain(3, 0.3, d=16, near_neighbors=1, shortcuts=1)
        dense = symphony_routing_chain(3, 0.3, d=16, near_neighbors=2, shortcuts=2)
        assert routing_success_probability(dense, 3) > routing_success_probability(sparse, 3)


class TestHelpers:
    def test_routing_success_requires_known_state(self):
        chain = tree_routing_chain(2, 0.1)
        with pytest.raises(InvalidParameterError):
            routing_success_probability(chain, 9)

    def test_phase_success_requires_known_states(self):
        chain = tree_routing_chain(2, 0.1)
        with pytest.raises(InvalidParameterError):
            phase_success_probability(chain, 5)
