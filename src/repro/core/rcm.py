"""The Reachable Component Method (RCM) as an explicit five-step pipeline.

:class:`ReachableComponentMethod` mirrors Section 4.1 of the paper step by
step, producing an :class:`RCMAnalysis` that records every intermediate
quantity (the distance distribution, the per-distance success
probabilities, the expected reachable-component size and the routability).
Each step reads the :class:`~repro.core.geometry.RoutingGeometry` it was
given, so the analysis is the same number the geometry's own
``routability`` (and :mod:`repro.core.routability`, which wraps it)
computes, laid out step by step; ``tests/test_rcm.py`` checks that the two
agree.  It is part of the public API for tracing a number back to the
paper's steps; the experiments read the geometries directly or through
:mod:`repro.core.routability`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Union

import numpy as np

from ..exceptions import InvalidParameterError
from ..validation import check_failure_probability, check_identifier_length
from .geometry import RoutingGeometry, get_geometry

__all__ = ["RCMAnalysis", "ReachableComponentMethod", "analyze"]


@dataclass(frozen=True)
class RCMAnalysis:
    """All intermediate and final quantities of one RCM evaluation.

    Attributes
    ----------
    geometry:
        Geometry label that was analysed.
    system:
        Representative system name.
    d:
        Identifier length (``N = 2^d`` nodes).
    q:
        Node failure probability.
    distances:
        Hop/phase distances ``h = 1 .. d``.
    distance_counts:
        ``n(h)`` — expected number of nodes at each distance (step 2).
    phase_failure_probabilities:
        ``Q(m)`` for ``m = 1 .. d`` (the Markov-chain ingredient of step 3).
    path_success_probabilities:
        ``p(h, q)`` for ``h = 1 .. d`` (step 3).
    expected_reachable_component:
        ``E[S]`` (step 4); ``inf`` when it exceeds float64 range.
    expected_survivors:
        ``(1 - q) N`` — expected number of surviving nodes.
    routability:
        ``r(N, q)`` (step 5).
    """

    geometry: str
    system: str
    d: int
    q: float
    distances: tuple
    distance_counts: tuple
    phase_failure_probabilities: tuple
    path_success_probabilities: tuple
    expected_reachable_component: float
    expected_survivors: float
    routability: float

    @property
    def n_nodes(self) -> int:
        """System size ``N = 2^d``."""
        return 1 << self.d

    @property
    def failed_path_fraction(self) -> float:
        """``1 - routability``."""
        return 1.0 - self.routability

    @property
    def failed_path_percent(self) -> float:
        """``100 * (1 - routability)`` — the paper's Figure 6 y-axis."""
        return 100.0 * self.failed_path_fraction

    def as_rows(self) -> List[Dict[str, float]]:
        """Per-distance rows (``h``, ``n(h)``, ``Q``, ``p(h, q)``) for tabular reports."""
        return [
            {
                "h": int(h),
                "n_h": float(n),
                "Q": float(failure),
                "p_h": float(success),
            }
            for h, n, failure, success in zip(
                self.distances,
                self.distance_counts,
                self.phase_failure_probabilities,
                self.path_success_probabilities,
            )
        ]


class ReachableComponentMethod:
    """Step-by-step driver of the paper's five-step method for one geometry.

    The intended use is ``ReachableComponentMethod(geometry).analyze(d, q)``;
    the individual ``step*`` methods are public so examples and docs can
    show the method exactly as the paper lays it out.
    """

    def __init__(self, geometry: Union[str, RoutingGeometry], **geometry_parameters) -> None:
        if isinstance(geometry, RoutingGeometry):
            if geometry_parameters:
                raise InvalidParameterError(
                    "geometry parameters can only be given when the geometry is named by string"
                )
            self._geometry = geometry
        else:
            self._geometry = get_geometry(geometry, **geometry_parameters)

    @property
    def geometry(self) -> RoutingGeometry:
        """The analytical geometry model being analysed."""
        return self._geometry

    # ------------------------------------------------------------------ #
    # the five steps of Section 4.1
    # ------------------------------------------------------------------ #
    def step2_distance_distribution(self, d: int) -> np.ndarray:
        """Step 2: the distribution ``n(h)`` of distances from a root node.

        (Step 1 — picking a root and constructing its routing topology — is
        implicit in the geometry model: all roots are statistically
        identical, which is also what lets step 5 use a single ``E[S]``.)
        """
        return self._geometry.distance_distribution(d)

    def step3_success_probabilities(self, d: int, q: float) -> np.ndarray:
        """Step 3: ``p(h, q)`` for every distance, from the geometry's Markov-chain ``Q(m)``."""
        return self._geometry.path_success_probabilities(d, q)

    def step4_expected_reachable_component(self, d: int, q: float) -> float:
        """Step 4: ``E[S] = sum_h n(h) p(h, q)``."""
        return self._geometry.expected_reachable_component(d, q)

    def step5_routability(self, d: int, q: float) -> float:
        """Step 5: ``r = E[S] / ((1 - q) N - 1)``."""
        return self._geometry.routability(q, d=d)

    # ------------------------------------------------------------------ #
    # one-shot analysis
    # ------------------------------------------------------------------ #
    def analyze(self, d: int, q: float) -> RCMAnalysis:
        """Run all five steps and collect every intermediate quantity."""
        d = check_identifier_length(d)
        q = check_failure_probability(q)
        counts = self._geometry.distance_distribution(d)
        failures = self._geometry.phase_failure_probabilities(d, q)
        successes = self._geometry.path_success_probabilities(d, q)
        log_expected = self._geometry.log_expected_reachable_component(d, q)
        expected = math.exp(log_expected) if log_expected < 709.0 else float("inf")
        return RCMAnalysis(
            geometry=self._geometry.name,
            system=self._geometry.system_name,
            d=d,
            q=q,
            distances=tuple(range(1, d + 1)),
            distance_counts=tuple(float(c) for c in counts),
            phase_failure_probabilities=tuple(float(f) for f in failures),
            path_success_probabilities=tuple(float(s) for s in successes),
            expected_reachable_component=expected,
            expected_survivors=(1.0 - q) * float(1 << d) if d < 1024 else float("inf"),
            routability=self._geometry.routability(q, d=d),
        )


def analyze(geometry: Union[str, RoutingGeometry], d: int, q: float, **geometry_parameters) -> RCMAnalysis:
    """Convenience wrapper: run the full RCM for ``geometry`` at (``d``, ``q``)."""
    return ReachableComponentMethod(geometry, **geometry_parameters).analyze(d, q)
