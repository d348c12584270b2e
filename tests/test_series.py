"""Unit tests for the series/product tools behind Knopp's theorem."""

from __future__ import annotations

import pytest

from repro.core.series import (
    diagnose_series_convergence,
    estimate_product_limit,
    ratio_test,
)
from repro.exceptions import ConvergenceError, InvalidParameterError


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
