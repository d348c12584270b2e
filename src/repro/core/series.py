"""Infinite-series and infinite-product tools used by the scalability analysis.

The paper's scalability criterion (Section 5) rests on a classical result:

    **Theorem 1 (Knopp).**  If ``0 <= a_m < 1`` for every ``m``, then the
    infinite product ``prod (1 - a_m)`` tends to a limit greater than zero
    if, and only if, ``sum a_m`` converges.

In our setting ``a_m = Q(m)`` is the probability of failing during the
``m``-th routing phase, so the asymptotic success probability
``p(inf, q) = prod_m (1 - Q(m))`` is positive exactly when ``sum_m Q(m)``
converges.  This module provides:

* numerical convergence diagnostics for a term generator (ratio test,
  tail-dominance test, partial-sum stabilisation),
* a numerical estimate of the limiting product, and
* a :class:`SeriesVerdict` record used by :mod:`repro.core.scalability`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional

from ..exceptions import ConvergenceError, InvalidParameterError
from ..validation import check_positive_int

__all__ = [
    "SeriesVerdict",
    "ratio_test",
    "diagnose_series_convergence",
    "estimate_product_limit",
]


@dataclass(frozen=True)
class SeriesVerdict:
    """Outcome of a numerical convergence diagnostic for ``sum a_m``.

    Attributes
    ----------
    converges:
        ``True`` if the diagnostic concluded the series converges,
        ``False`` if it concluded divergence, ``None`` if inconclusive.
    method:
        Name of the decisive test (``"ratio"``, ``"tail"``, ``"partial-sum"``).
    detail:
        Human-readable explanation of the decision.
    partial_sum:
        Partial sum over the inspected terms.
    inspected_terms:
        Number of terms that were evaluated.
    ratio_estimate:
        Estimated limiting ratio ``a_{m+1} / a_m`` (``None`` when terms hit
        zero before a stable estimate was available).
    """

    converges: Optional[bool]
    method: str
    detail: str
    partial_sum: float
    inspected_terms: int
    ratio_estimate: Optional[float] = None


def ratio_test(
    term: Callable[[int], float],
    *,
    start: int = 1,
    samples: int = 64,
    burn_in: int = 8,
) -> Optional[float]:
    """Estimate the limiting ratio ``a_{m+1} / a_m`` of a positive series.

    Returns ``None`` when the terms vanish (underflow to zero) before a
    stable estimate can be formed, which itself is strong evidence of
    convergence and is handled by the caller.
    """
    samples = check_positive_int(samples, "samples")
    ratios: List[float] = []
    previous = None
    for m in range(start, start + burn_in + samples):
        value = float(term(m))
        if value < 0.0:
            raise InvalidParameterError(f"series term a_{m}={value!r} must be non-negative")
        if previous is not None and previous > 0.0:
            if m - start > burn_in:
                ratios.append(value / previous)
        if value == 0.0:
            break
        previous = value
    if not ratios:
        return None
    return sum(ratios) / len(ratios)


def diagnose_series_convergence(
    term: Callable[[int], float],
    *,
    start: int = 1,
    max_terms: int = 512,
    ratio_threshold: float = 1.0 - 1e-9,
    stabilisation_tolerance: float = 1e-12,
) -> SeriesVerdict:
    """Numerically diagnose whether ``sum_{m>=start} a_m`` converges.

    The diagnostic combines three signals, in order of decisiveness:

    1. **Ratio test** — if the tail ratio estimate is bounded away from 1,
       the series converges (geometric domination); if the terms do not
       decay at all (ratio ``>= 1`` and terms bounded away from zero) the
       series diverges.
    2. **Zero tail** — if terms underflow to exactly zero the remaining tail
       contributes nothing representable; treated as convergent.
    3. **Partial-sum stabilisation** — if the partial sums stop moving to
       within ``stabilisation_tolerance`` the series is reported convergent;
       if they keep growing linearly it is reported divergent.

    The function never raises for an ambiguous series; it returns a verdict
    with ``converges=None`` so callers can decide how to proceed.
    """
    max_terms = check_positive_int(max_terms, "max_terms")
    terms: List[float] = []
    total = 0.0
    for m in range(start, start + max_terms):
        value = float(term(m))
        if value < 0.0 or math.isnan(value):
            raise InvalidParameterError(f"series term a_{m}={value!r} must be non-negative")
        terms.append(value)
        total += value

    inspected = len(terms)
    tail = terms[inspected // 2 :]

    # Signal 2: the tail has underflowed to zero -> convergent.
    if all(t == 0.0 for t in tail):
        return SeriesVerdict(
            converges=True,
            method="tail",
            detail="tail terms underflow to zero; remaining mass is not representable",
            partial_sum=total,
            inspected_terms=inspected,
            ratio_estimate=0.0,
        )

    # Signal 1: ratio test on the tail.
    ratio = ratio_test(term, start=start, samples=min(64, max_terms // 2), burn_in=min(16, max_terms // 4))
    if ratio is not None:
        if ratio < ratio_threshold:
            return SeriesVerdict(
                converges=True,
                method="ratio",
                detail=f"tail ratio estimate {ratio:.6g} < 1: geometric domination",
                partial_sum=total,
                inspected_terms=inspected,
                ratio_estimate=ratio,
            )
        # Ratio ~ 1: constant-like terms.  If the terms are bounded away from
        # zero the series clearly diverges.
        tail_min = min(tail)
        if tail_min > 0.0 and ratio >= ratio_threshold:
            increments = [abs(terms[i + 1] - terms[i]) for i in range(inspected - 1)]
            nearly_constant = max(increments[-inspected // 4 :], default=0.0) <= 1e-9 * max(tail_min, 1e-300)
            if nearly_constant or ratio >= 1.0:
                return SeriesVerdict(
                    converges=False,
                    method="ratio",
                    detail=(
                        f"tail ratio estimate {ratio:.6g} ≈ 1 with terms bounded below by "
                        f"{tail_min:.3g}: the partial sums grow without bound"
                    ),
                    partial_sum=total,
                    inspected_terms=inspected,
                    ratio_estimate=ratio,
                )

    # Signal 3: partial-sum stabilisation.
    last_increment = terms[-1]
    if last_increment <= stabilisation_tolerance * max(total, 1.0):
        return SeriesVerdict(
            converges=True,
            method="partial-sum",
            detail=(
                f"partial sums stabilised: last increment {last_increment:.3g} is negligible "
                f"relative to the accumulated sum {total:.6g}"
            ),
            partial_sum=total,
            inspected_terms=inspected,
            ratio_estimate=ratio,
        )
    if last_increment >= terms[inspected // 2] * 0.5 and last_increment > 0.0:
        return SeriesVerdict(
            converges=False,
            method="partial-sum",
            detail=(
                f"terms are not decaying (a_{start + inspected - 1}={last_increment:.3g} comparable to "
                f"mid-series terms); partial sums grow roughly linearly"
            ),
            partial_sum=total,
            inspected_terms=inspected,
            ratio_estimate=ratio,
        )
    return SeriesVerdict(
        converges=None,
        method="inconclusive",
        detail="no diagnostic reached a decision within the inspected terms",
        partial_sum=total,
        inspected_terms=inspected,
        ratio_estimate=ratio,
    )


def estimate_product_limit(
    failure_term: Callable[[int], float],
    *,
    start: int = 1,
    max_terms: int = 4096,
    relative_tolerance: float = 1e-12,
) -> float:
    """Numerically estimate ``lim_{h->inf} prod_{m=start..h} (1 - a_m)``.

    The evaluation stops early once the remaining terms can no longer move
    the product by more than ``relative_tolerance`` (estimated from a
    geometric bound on the tail), or when the product underflows to zero.

    Raises
    ------
    ConvergenceError
        If the product has not stabilised after ``max_terms`` terms and has
        not collapsed to zero either — the caller should then fall back to a
        symbolic argument.
    """
    max_terms = check_positive_int(max_terms, "max_terms")
    log_product = 0.0
    previous_term = None
    for m in range(start, start + max_terms):
        a = float(failure_term(m))
        if a < 0.0 or a > 1.0 or math.isnan(a):
            raise InvalidParameterError(f"failure term a_{m}={a!r} must lie in [0, 1]")
        if a >= 1.0:
            return 0.0
        log_product += math.log1p(-a)
        if log_product < -745.0:  # exp underflows to 0 below ~-745
            return 0.0
        # Tail bound: if terms decay geometrically with ratio r, the rest of the
        # sum of a_m is at most a * r / (1 - r); be conservative and require a
        # very small current term before declaring the product stable.
        if previous_term is not None and previous_term > 0.0:
            ratio = a / previous_term
            if ratio < 0.999:
                tail_bound = a * ratio / (1.0 - ratio)
                if a + tail_bound < relative_tolerance:
                    return math.exp(log_product)
        if a == 0.0:
            return math.exp(log_product)
        previous_term = a
    raise ConvergenceError(
        f"product did not stabilise after {max_terms} terms "
        f"(current log-product {log_product:.6g})"
    )
