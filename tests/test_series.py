"""Unit and property tests for the series/product tools behind Knopp's theorem."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.series import (
    diagnose_series_convergence,
    estimate_product_limit,
    knopp_product_positive,
    log_product_from_terms,
    partial_products,
    partial_sums,
    product_from_terms,
    ratio_test,
)
from repro.exceptions import ConvergenceError, InvalidParameterError


class TestPartialSumsAndProducts:
    def test_partial_sums(self):
        assert partial_sums([1, 2, 3]) == [1.0, 3.0, 6.0]

    def test_partial_products(self):
        assert partial_products([2, 3, 4]) == [2.0, 6.0, 24.0]

    def test_empty_inputs(self):
        assert partial_sums([]) == []
        assert partial_products([]) == []


class TestProductFromTerms:
    def test_matches_manual_product(self):
        terms = [0.1, 0.2, 0.3]
        expected = 0.9 * 0.8 * 0.7
        assert product_from_terms(terms) == pytest.approx(expected)

    def test_certain_failure_collapses_product(self):
        assert product_from_terms([0.5, 1.0, 0.1]) == 0.0

    def test_rejects_out_of_range_terms(self):
        with pytest.raises(InvalidParameterError):
            product_from_terms([0.5, 1.5])

    def test_log_product_matches_linear(self):
        terms = [0.05, 0.1, 0.2, 0.4]
        assert math.exp(log_product_from_terms(terms)) == pytest.approx(product_from_terms(terms))

    def test_log_product_returns_neg_inf_on_certain_failure(self):
        assert log_product_from_terms([0.2, 1.0]) == float("-inf")

    @given(st.lists(st.floats(min_value=0.0, max_value=0.99), min_size=1, max_size=30))
    @settings(max_examples=50, deadline=None)
    def test_product_always_in_unit_interval(self, terms):
        value = product_from_terms(terms)
        assert 0.0 <= value <= 1.0


class TestKnopp:
    def test_convergent_series_gives_positive_product(self):
        assert knopp_product_positive(True) is True

    def test_divergent_series_gives_zero_product(self):
        assert knopp_product_positive(False) is False


class TestRatioTest:
    def test_geometric_series_ratio(self):
        ratio = ratio_test(lambda m: 0.5**m)
        assert ratio == pytest.approx(0.5, rel=1e-6)

    def test_constant_series_ratio(self):
        ratio = ratio_test(lambda m: 0.3)
        assert ratio == pytest.approx(1.0)

    def test_underflowing_series_returns_none(self):
        assert ratio_test(lambda m: 0.0) is None

    def test_rejects_negative_terms(self):
        with pytest.raises(InvalidParameterError):
            ratio_test(lambda m: -1.0)


class TestDiagnoseSeriesConvergence:
    def test_geometric_series_converges(self):
        verdict = diagnose_series_convergence(lambda m: 0.3**m)
        assert verdict.converges is True

    def test_constant_series_diverges(self):
        verdict = diagnose_series_convergence(lambda m: 0.2)
        assert verdict.converges is False

    def test_m_times_geometric_converges(self):
        verdict = diagnose_series_convergence(lambda m: m * 0.5**m)
        assert verdict.converges is True

    def test_underflowed_tail_converges(self):
        verdict = diagnose_series_convergence(lambda m: 1e-3 if m < 5 else 0.0)
        assert verdict.converges is True

    def test_verdict_reports_partial_sum(self):
        verdict = diagnose_series_convergence(lambda m: 0.5**m, max_terms=64)
        assert verdict.partial_sum == pytest.approx(1.0, abs=1e-6)

    def test_product_positive_mirrors_convergence(self):
        verdict = diagnose_series_convergence(lambda m: 0.5**m)
        assert verdict.product_positive is verdict.converges

    def test_rejects_negative_terms(self):
        with pytest.raises(InvalidParameterError):
            diagnose_series_convergence(lambda m: -0.1)


class TestEstimateProductLimit:
    def test_geometric_failure_terms(self):
        # prod (1 - 0.5^m) converges to about 0.2887880951.
        limit = estimate_product_limit(lambda m: 0.5**m)
        assert limit == pytest.approx(0.2887880951, rel=1e-6)

    def test_constant_failure_terms_collapse_to_zero(self):
        assert estimate_product_limit(lambda m: 0.3) == 0.0

    def test_certain_failure_is_zero(self):
        assert estimate_product_limit(lambda m: 1.0) == 0.0

    def test_zero_failure_terms_give_one(self):
        assert estimate_product_limit(lambda m: 0.0) == 1.0

    def test_rejects_invalid_terms(self):
        with pytest.raises(InvalidParameterError):
            estimate_product_limit(lambda m: 1.2)

    def test_slowly_decaying_series_raises_convergence_error(self):
        # Terms ~ 1/m decay too slowly to stabilise within the budget.
        with pytest.raises(ConvergenceError):
            estimate_product_limit(lambda m: 1.0 / (m + 1.0), max_terms=64)
