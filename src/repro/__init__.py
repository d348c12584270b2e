"""repro — a reproduction of "A General Framework for Scalability and Performance
Analysis of DHT Routing Systems" (Kong, Bridgewater, Roychowdhury; DSN 2006).

The package has two halves that validate each other:

* :mod:`repro.core` — the **Reachable Component Method (RCM)**, the paper's
  analytical framework: closed-form routability ``r(N, q)`` and scalability
  verdicts for the tree (Plaxton), hypercube (CAN), XOR (Kademlia), ring
  (Chord) and small-world (Symphony) routing geometries, plus de Bruijn
  (Koorde).  Each geometry supplies ``n(h)`` and ``Q(m)``;
  :class:`~repro.core.geometry.RoutingGeometry` derives ``p(h, q)``,
  ``E[S]`` and ``r(N, q)`` from them, each in one place.
* :mod:`repro.dht` + :mod:`repro.sim` — from-scratch overlay **simulators**
  for the same five systems (plus the de Bruijn/Koorde extension) and a
  Monte-Carlo static-resilience driver, the stand-in for the simulation
  study the paper compares against.  Each geometry declares its batch
  routing rule once (:mod:`repro.sim.kernelspec`); the kernel backends are
  thin executors of those specs.

Supporting subpackages: :mod:`repro.markov` (absorbing-chain engine and the
paper's routing chains, the cross-check of the closed forms),
:mod:`repro.percolation` (connected vs reachable components, exact routable
pair counts), :mod:`repro.experiments` (one harness per paper figure),
:mod:`repro.workloads` (sweep grids, pair budgets, churn traces),
:mod:`repro.report` (text/CSV tables, the benchmark gate report) and
:mod:`repro.service` (the HTTP service).

Quickstart
----------
>>> from repro import routability, failed_path_percent
>>> 0.9 < routability("xor", q=0.1, d=16) <= 1.0     # Kademlia, N = 2^16, 10% failures
True
>>> from repro import simulate_geometry
>>> sweep = simulate_geometry("hypercube", d=10, failure_probabilities=[0.2], pairs=500, seed=1)
>>> 0.0 <= sweep.results[0].routability <= 1.0
True
"""

from .core import (
    PAPER_GEOMETRIES,
    DeBruijnGeometry,
    GeometryCurve,
    HypercubeGeometry,
    RingGeometry,
    RoutingGeometry,
    ScalabilityAssessment,
    ScalabilityVerdict,
    SmallWorldGeometry,
    TreeGeometry,
    XorGeometry,
    assess_scalability,
    compare_geometries,
    failed_path_curve,
    failed_path_percent,
    get_geometry,
    list_geometries,
    register_geometry,
    routability,
    routability_scaling_curve,
    scalability_report,
)
from .dht import (
    ChordOverlay,
    DeBruijnOverlay,
    HypercubeOverlay,
    IdentifierSpace,
    KademliaOverlay,
    Overlay,
    OVERLAY_CLASSES,
    PlaxtonOverlay,
    RouteResult,
    RoutingMetrics,
    SymphonyOverlay,
    UniformNodeFailure,
)
from .exceptions import (
    ConvergenceError,
    ExperimentError,
    InvalidParameterError,
    ReproError,
    RoutingError,
    TopologyError,
    UnknownGeometryError,
)
from .sim import (
    ResilienceSweepResult,
    StaticResilienceResult,
    build_overlay,
    measure_routability,
    simulate_geometry,
    sweep_failure_probabilities,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # analytical core
    "PAPER_GEOMETRIES",
    "GeometryCurve",
    "RoutingGeometry",
    "ScalabilityVerdict",
    "ScalabilityAssessment",
    "TreeGeometry",
    "HypercubeGeometry",
    "XorGeometry",
    "RingGeometry",
    "SmallWorldGeometry",
    "DeBruijnGeometry",
    "assess_scalability",
    "compare_geometries",
    "failed_path_curve",
    "failed_path_percent",
    "get_geometry",
    "list_geometries",
    "register_geometry",
    "routability",
    "routability_scaling_curve",
    "scalability_report",
    # simulators
    "IdentifierSpace",
    "Overlay",
    "OVERLAY_CLASSES",
    "PlaxtonOverlay",
    "HypercubeOverlay",
    "KademliaOverlay",
    "ChordOverlay",
    "SymphonyOverlay",
    "DeBruijnOverlay",
    "RouteResult",
    "RoutingMetrics",
    "UniformNodeFailure",
    "ResilienceSweepResult",
    "StaticResilienceResult",
    "build_overlay",
    "measure_routability",
    "simulate_geometry",
    "sweep_failure_probabilities",
    # errors
    "ReproError",
    "InvalidParameterError",
    "UnknownGeometryError",
    "RoutingError",
    "TopologyError",
    "ExperimentError",
    "ConvergenceError",
]
