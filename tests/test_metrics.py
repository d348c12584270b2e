"""Tests for routing-metrics aggregation."""

from __future__ import annotations

import math

import pytest

from repro.dht.metrics import summarize_routes
from repro.dht.routing import FailureReason, RouteResult
from repro.exceptions import InvalidParameterError


def success(source, destination, hops=2):
    path = (source,) + tuple(range(1000, 1000 + hops - 1)) + (destination,)
    return RouteResult(source=source, destination=destination, succeeded=True, path=path)


def failure(source, destination, hops=1, reason=FailureReason.DEAD_END):
    path = (source,) + tuple(range(2000, 2000 + hops))
    return RouteResult(
        source=source, destination=destination, succeeded=False, path=path, failure_reason=reason
    )


class TestSummarizeRoutes:
    def test_empty_input(self):
        metrics = summarize_routes([])
        assert metrics.attempts == 0
        assert math.isnan(metrics.routability)
        assert math.isnan(metrics.failed_path_fraction)

    def test_counts_and_fractions(self):
        results = [success(0, 5), success(1, 6), failure(2, 7), failure(3, 8)]
        metrics = summarize_routes(results)
        assert metrics.attempts == 4
        assert metrics.successes == 2
        assert metrics.failures == 2
        assert metrics.routability == pytest.approx(0.5)
        assert metrics.failed_path_fraction == pytest.approx(0.5)

    def test_mean_hops(self):
        results = [success(0, 5, hops=2), success(1, 6, hops=4), failure(2, 7, hops=3)]
        metrics = summarize_routes(results)
        assert metrics.mean_hops_successful == pytest.approx(3.0)
        assert metrics.mean_hops_failed == pytest.approx(3.0)

    def test_failure_reasons_are_tallied(self):
        results = [
            failure(0, 1, reason=FailureReason.DEAD_END),
            failure(2, 3, reason=FailureReason.DEAD_END),
            failure(4, 5, reason=FailureReason.REQUIRED_NEIGHBOR_FAILED),
        ]
        metrics = summarize_routes(results)
        assert metrics.failure_reasons[FailureReason.DEAD_END] == 2
        assert metrics.failure_reasons[FailureReason.REQUIRED_NEIGHBOR_FAILED] == 1

    def test_all_successes_have_nan_failed_hops(self):
        metrics = summarize_routes([success(0, 5)])
        assert math.isnan(metrics.mean_hops_failed)


class TestMerging:
    def test_merged_counts(self):
        first = summarize_routes([success(0, 5), failure(1, 6)])
        second = summarize_routes([success(2, 7), success(3, 8)])
        merged = first.merged_with(second)
        assert merged.attempts == 4
        assert merged.successes == 3
        assert merged.routability == pytest.approx(0.75)

    def test_merged_mean_hops_is_weighted(self):
        first = summarize_routes([success(0, 5, hops=2)])
        second = summarize_routes([success(1, 6, hops=4), success(2, 7, hops=4)])
        merged = first.merged_with(second)
        assert merged.mean_hops_successful == pytest.approx((2 + 4 + 4) / 3)

    def test_merged_failure_reasons(self):
        first = summarize_routes([failure(0, 1, reason=FailureReason.DEAD_END)])
        second = summarize_routes([failure(2, 3, reason=FailureReason.DEAD_END)])
        merged = first.merged_with(second)
        assert merged.failure_reasons[FailureReason.DEAD_END] == 2

    def test_merge_rejects_other_types(self):
        metrics = summarize_routes([success(0, 5)])
        with pytest.raises(InvalidParameterError):
            metrics.merged_with("not metrics")
