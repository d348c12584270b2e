"""The Reachable Component Method — the paper's analytical framework.

Layers:

* :mod:`repro.core.geometry` / :mod:`repro.core.geometries` — the
  per-geometry ingredients ``n(h)`` and ``Q(m)`` and the one engine that
  derives every RCM quantity from them: ``p(h, q)`` (step 3), ``E[S]``
  (step 4) and the routability ``r(N, q)`` (step 5, read from step 4).
* :mod:`repro.core.routability` — one-line analytical entry points that
  accept a geometry name or instance, and the curve/sweep helpers.
* :mod:`repro.core.scalability` / :mod:`repro.core.series` — the Section 5
  scalability classification and its numerical cross-checks.
"""

from .geometry import (
    REGISTRY,
    RoutingGeometry,
    ScalabilityVerdict,
    get_geometry,
    list_geometries,
    register_geometry,
)
from .geometries import (
    PAPER_GEOMETRIES,
    DeBruijnGeometry,
    HypercubeGeometry,
    RingGeometry,
    SmallWorldGeometry,
    TreeGeometry,
    XorGeometry,
)
from .routability import (
    GeometryCurve,
    compare_geometries,
    failed_path_curve,
    failed_path_percent,
    routability,
    routability_scaling_curve,
)
from .scalability import (
    ScalabilityAssessment,
    assess_scalability,
    numerical_success_limit,
    scalability_report,
)
from .series import (
    SeriesVerdict,
    diagnose_series_convergence,
    estimate_product_limit,
    ratio_test,
)

__all__ = [
    "REGISTRY",
    "RoutingGeometry",
    "ScalabilityVerdict",
    "get_geometry",
    "list_geometries",
    "register_geometry",
    "PAPER_GEOMETRIES",
    "TreeGeometry",
    "HypercubeGeometry",
    "XorGeometry",
    "RingGeometry",
    "SmallWorldGeometry",
    "DeBruijnGeometry",
    "GeometryCurve",
    "compare_geometries",
    "failed_path_curve",
    "failed_path_percent",
    "routability",
    "routability_scaling_curve",
    "ScalabilityAssessment",
    "assess_scalability",
    "numerical_success_limit",
    "scalability_report",
    "SeriesVerdict",
    "diagnose_series_convergence",
    "estimate_product_limit",
    "ratio_test",
]
