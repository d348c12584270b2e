"""Scalability classification of DHT routing geometries (Section 5 of the paper).

Definition 2 of the paper calls a routing system *scalable* when its
routability converges to a non-zero value as the system size goes to
infinity (for failure probabilities below the percolation point), and shows
this is equivalent to

    lim_{h -> inf} p(h, q) = prod_{m=1..inf} (1 - Q(m)) > 0,

which by Knopp's theorem holds iff ``sum_m Q(m)`` converges.

This module combines two independent routes to the verdict:

* the **analytical** verdict each geometry states about itself
  (:meth:`~repro.core.geometry.RoutingGeometry.scalability`), and
* a **numerical** diagnostic that inspects the actual ``Q(m)`` values
  (series convergence tests from :mod:`repro.core.series` plus a direct
  estimate of the limiting product).

Experiments report both and flag any disagreement, so a buggy closed form
cannot silently carry the paper's conclusion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Union

from ..exceptions import ConvergenceError, InvalidParameterError
from ..validation import check_failure_probability
from .geometry import RoutingGeometry, ScalabilityVerdict, resolve_geometry
from .series import SeriesVerdict, diagnose_series_convergence, estimate_product_limit

__all__ = [
    "ScalabilityAssessment",
    "assess_scalability",
    "numerical_success_limit",
    "scalability_report",
]

#: Failure probability at which the numerical checks are run by default; the
#: paper's Figure 7(b) uses the same operating point.
DEFAULT_PROBE_Q = 0.1

#: Identifier length used as the "horizon" for geometries whose Q(m) depends
#: on d (Symphony); matches the asymptotic setting of Figure 7(a).
DEFAULT_PROBE_D = 100


@dataclass(frozen=True)
class ScalabilityAssessment:
    """Combined analytical + numerical scalability assessment of one geometry.

    Attributes
    ----------
    verdict:
        The geometry's own analytical verdict (the paper's argument).
    probe_q:
        Failure probability used for the numerical checks.
    series_diagnostic:
        Numerical convergence diagnostic of ``sum_m Q(m)`` at ``probe_q``.
    success_limit_estimate:
        Numerical estimate of ``lim_h p(h, q)`` at ``probe_q`` (``None``
        when the estimate did not stabilise).
    consistent:
        Whether the numerical evidence agrees with the analytical verdict.
    """

    verdict: ScalabilityVerdict
    probe_q: float
    series_diagnostic: SeriesVerdict
    success_limit_estimate: Optional[float]
    consistent: bool

    @property
    def scalable(self) -> bool:
        """The analytical verdict (the quantity the paper reports)."""
        return self.verdict.scalable


def numerical_success_limit(
    geometry: RoutingGeometry,
    q: float,
    *,
    d: int = DEFAULT_PROBE_D,
    max_phases: int = 4096,
) -> Optional[float]:
    """Numerically estimate ``lim_{h->inf} p(h, q)`` for a geometry.

    Returns ``None`` when the product has not stabilised within
    ``max_phases`` phases (interpreted by callers as "no numerical verdict"
    rather than an error).
    """
    q = check_failure_probability(q)
    try:
        return estimate_product_limit(
            lambda m: geometry.phase_failure_probability(m, q, d),
            max_terms=max_phases,
        )
    except ConvergenceError:
        return None


def assess_scalability(
    geometry: Union[str, RoutingGeometry],
    *,
    q: float = DEFAULT_PROBE_Q,
    d: int = DEFAULT_PROBE_D,
    max_terms: int = 512,
    **geometry_parameters,
) -> ScalabilityAssessment:
    """Assess one geometry analytically and numerically at failure probability ``q``.

    The numerical side diagnoses the convergence of ``sum_m Q(m)`` and
    estimates the limiting success probability; ``consistent`` records
    whether that evidence matches the analytical verdict (it does for all
    five paper geometries — covered by tests).
    """
    model = resolve_geometry(geometry, **geometry_parameters)
    q = check_failure_probability(q)
    if q in (0.0, 1.0):
        raise InvalidParameterError(
            "scalability is probed at a failure probability strictly inside (0, 1)"
        )
    verdict = model.scalability()
    diagnostic = diagnose_series_convergence(
        lambda m: model.phase_failure_probability(m, q, d),
        max_terms=max_terms,
    )
    limit = numerical_success_limit(model, q, d=d)

    numerical_says_scalable: Optional[bool]
    if diagnostic.converges is not None:
        numerical_says_scalable = diagnostic.converges
    elif limit is not None:
        numerical_says_scalable = limit > 0.0
    else:
        numerical_says_scalable = None
    consistent = numerical_says_scalable is None or numerical_says_scalable == verdict.scalable
    return ScalabilityAssessment(
        verdict=verdict,
        probe_q=q,
        series_diagnostic=diagnostic,
        success_limit_estimate=limit,
        consistent=consistent,
    )


def scalability_report(
    geometries: Sequence[Union[str, RoutingGeometry]],
    *,
    q: float = DEFAULT_PROBE_Q,
    d: int = DEFAULT_PROBE_D,
) -> List[Dict[str, object]]:
    """One row per geometry: the Section 5 classification plus numerical evidence.

    This is the data behind the reproduction's TAB-SCAL experiment.
    """
    if len(geometries) == 0:
        raise InvalidParameterError("geometries must not be empty")
    rows: List[Dict[str, object]] = []
    for geometry in geometries:
        assessment = assess_scalability(geometry, q=q, d=d)
        limit = assessment.success_limit_estimate
        rows.append(
            {
                "geometry": assessment.verdict.geometry,
                "scalable": assessment.verdict.scalable,
                "series_behaviour": assessment.verdict.series_behaviour,
                "numerical_series_verdict": assessment.series_diagnostic.converges,
                "numerical_success_limit": limit if limit is not None else math.nan,
                "consistent": assessment.consistent,
            }
        )
    return rows
