"""Aggregation of routing attempts into the paper's performance metrics.

The central quantity is the *measured routability*: the fraction of sampled
surviving source/destination pairs that could be routed.  Its complement is
the "percent of failed paths" plotted in the paper's Figure 6.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional

from ..exceptions import InvalidParameterError
from .routing import FailureReason, RouteResult

__all__ = ["RoutingMetrics", "summarize_routes"]


@dataclass(frozen=True)
class RoutingMetrics:
    """Summary statistics over a batch of routing attempts.

    Attributes
    ----------
    attempts:
        Number of routing attempts summarised.
    successes:
        Number of attempts that reached their destination.
    mean_hops_successful:
        Average hop count of the successful attempts (``nan`` when there
        were none).
    mean_hops_failed:
        Average number of hops taken before the message was dropped
        (``nan`` when there were no failures).
    failure_reasons:
        Count of failed attempts per :class:`~repro.dht.routing.FailureReason`.
    """

    attempts: int
    successes: int
    mean_hops_successful: float
    mean_hops_failed: float
    failure_reasons: Dict[FailureReason, int] = field(default_factory=dict)

    @property
    def failures(self) -> int:
        """Number of attempts that did not reach their destination."""
        return self.attempts - self.successes

    @property
    def routability(self) -> float:
        """Fraction of attempts that succeeded (the paper's routability estimate)."""
        if self.attempts == 0:
            return float("nan")
        return self.successes / self.attempts

    @property
    def failed_path_fraction(self) -> float:
        """Fraction of attempts that failed (``1 - routability``; the paper's Fig. 6 y-axis)."""
        if self.attempts == 0:
            return float("nan")
        return self.failures / self.attempts

    @property
    def measured(self) -> bool:
        """Whether any routing attempt contributed to this summary.

        Zero-attempt summaries (every trial degenerate at extreme severity)
        have no defined routability; reports must treat them as "no data"
        rather than propagating the ``nan`` sentinel into tables or JSON.
        """
        return self.attempts > 0

    @property
    def routability_or_none(self) -> Optional[float]:
        """Routability as a finite float, or ``None`` when nothing was measured.

        This is the serialization-safe view of :attr:`routability` used by
        the tabular/JSON report paths (``None`` renders as ``-`` in tables
        and ``null`` in JSON, both of which round-trip; ``nan`` does not).
        """
        return self.routability if self.measured else None

    @property
    def failed_path_fraction_or_none(self) -> Optional[float]:
        """Failed-path fraction as a finite float, or ``None`` when nothing was measured."""
        return self.failed_path_fraction if self.measured else None

    def merged_with(self, other: "RoutingMetrics") -> "RoutingMetrics":
        """Combine two summaries (e.g. from independent failure-pattern trials)."""
        if not isinstance(other, RoutingMetrics):
            raise InvalidParameterError("can only merge with another RoutingMetrics")
        attempts = self.attempts + other.attempts
        successes = self.successes + other.successes

        def _weighted(mean_a: float, count_a: int, mean_b: float, count_b: int) -> float:
            if count_a + count_b == 0:
                return float("nan")
            total = 0.0
            if count_a:
                total += mean_a * count_a
            if count_b:
                total += mean_b * count_b
            return total / (count_a + count_b)

        reasons: Counter = Counter(self.failure_reasons)
        reasons.update(other.failure_reasons)
        return RoutingMetrics(
            attempts=attempts,
            successes=successes,
            mean_hops_successful=_weighted(
                self.mean_hops_successful, self.successes, other.mean_hops_successful, other.successes
            ),
            mean_hops_failed=_weighted(
                self.mean_hops_failed, self.failures, other.mean_hops_failed, other.failures
            ),
            failure_reasons=dict(reasons),
        )


def summarize_routes(results: Iterable[RouteResult]) -> RoutingMetrics:
    """Summarise an iterable of :class:`~repro.dht.routing.RouteResult` into metrics."""
    attempts = 0
    successes = 0
    success_hops = 0
    failed_hops = 0
    reasons: Counter = Counter()
    for result in results:
        attempts += 1
        if result.succeeded:
            successes += 1
            success_hops += result.hops
        else:
            failed_hops += result.hops
            reasons[result.failure_reason] += 1
    failures = attempts - successes
    return RoutingMetrics(
        attempts=attempts,
        successes=successes,
        mean_hops_successful=(success_hops / successes) if successes else float("nan"),
        mean_hops_failed=(failed_hops / failures) if failures else float("nan"),
        failure_reasons=dict(reasons),
    )
