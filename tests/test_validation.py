"""Unit tests for the shared input-validation helpers."""

from __future__ import annotations

import pytest

from repro.exceptions import InvalidParameterError
from repro.validation import (
    check_all_probabilities,
    check_failure_probability,
    check_fraction_open,
    check_hop_count,
    check_identifier_length,
    check_node_count,
    check_non_negative_int,
    check_positive_int,
    check_probability,
)


class TestCheckProbability:
    def test_accepts_bounds(self):
        assert check_probability(0.0) == 0.0
        assert check_probability(1.0) == 1.0

    def test_accepts_interior_value(self):
        assert check_probability(0.25) == 0.25

    def test_returns_plain_float(self):
        assert isinstance(check_probability(0), float)

    @pytest.mark.parametrize("bad", [-0.01, 1.01, float("nan"), "half", None])
    def test_rejects_invalid(self, bad):
        with pytest.raises(InvalidParameterError):
            check_probability(bad)

    def test_error_message_mentions_name(self):
        with pytest.raises(InvalidParameterError, match="my prob"):
            check_probability(2.0, name="my prob")


class TestFailureProbability:
    def test_is_probability_check(self):
        assert check_failure_probability(0.3) == 0.3

    def test_rejects_negative(self):
        with pytest.raises(InvalidParameterError):
            check_failure_probability(-0.5)


class TestFractionOpen:
    def test_accepts_interior(self):
        assert check_fraction_open(0.5) == 0.5

    @pytest.mark.parametrize("bad", [0.0, 1.0])
    def test_rejects_boundaries(self, bad):
        with pytest.raises(InvalidParameterError):
            check_fraction_open(bad)


class TestPositiveInt:
    def test_accepts_int(self):
        assert check_positive_int(3) == 3

    def test_accepts_integral_float(self):
        assert check_positive_int(4.0) == 4

    @pytest.mark.parametrize("bad", [0, -1, 2.5, "three"])
    def test_rejects_invalid(self, bad):
        with pytest.raises(InvalidParameterError):
            check_positive_int(bad)

    def test_non_negative_accepts_zero(self):
        assert check_non_negative_int(0) == 0

    def test_non_negative_rejects_negative(self):
        with pytest.raises(InvalidParameterError):
            check_non_negative_int(-3)

    def test_non_negative_error_says_non_negative(self):
        # 0 is accepted, so "must be positive" would misstate the rule.
        with pytest.raises(InvalidParameterError, match=r"^base_seed must be non-negative, got -1$"):
            check_non_negative_int(-1, "base_seed")


class TestIdentifierLength:
    def test_accepts_paper_sizes(self):
        assert check_identifier_length(16) == 16
        assert check_identifier_length(100) == 100

    def test_rejects_zero(self):
        with pytest.raises(InvalidParameterError):
            check_identifier_length(0)

    def test_rejects_unreasonably_large(self):
        with pytest.raises(InvalidParameterError):
            check_identifier_length(5000)


class TestHopCount:
    def test_accepts_within_range(self):
        assert check_hop_count(3, 8) == 3

    def test_accepts_equal_to_d(self):
        assert check_hop_count(8, 8) == 8

    def test_rejects_exceeding_d(self):
        with pytest.raises(InvalidParameterError):
            check_hop_count(9, 8)

    def test_rejects_zero(self):
        with pytest.raises(InvalidParameterError):
            check_hop_count(0, 8)


class TestNodeCount:
    def test_accepts_two(self):
        assert check_node_count(2) == 2

    def test_rejects_one(self):
        with pytest.raises(InvalidParameterError):
            check_node_count(1)


class TestAllProbabilities:
    def test_returns_floats(self):
        assert check_all_probabilities([0, 0.5, 1]) == [0.0, 0.5, 1.0]

    def test_rejects_any_invalid(self):
        with pytest.raises(InvalidParameterError):
            check_all_probabilities([0.5, 1.5])
