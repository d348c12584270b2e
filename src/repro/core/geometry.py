"""The routing-geometry abstraction at the heart of the RCM framework.

A :class:`RoutingGeometry` encapsulates everything the Reachable Component
Method needs to know about one DHT routing system:

* ``n(h)`` — how many nodes sit ``h`` hops/phases away from a root node in a
  fully populated ``d``-bit identifier space
  (:meth:`RoutingGeometry.distance_distribution`), and
* ``Q(m)`` — the probability that routing fails while the message is ``m``
  phases away from its target
  (:meth:`RoutingGeometry.phase_failure_probability`).

From these two ingredients the base class derives every quantity the paper
reports: the per-distance success probability ``p(h, q)`` (Eq. 5), the
expected reachable-component size ``E[S]`` (step 4 of the RCM), the
routability ``r(N, q)`` (Eq. 1/3), and the fraction of failed paths plotted
in Figures 6 and 7.

Concrete geometries (tree, hypercube, XOR, ring, small-world) live in
:mod:`repro.core.geometries` and register themselves in :data:`REGISTRY`,
so new DHT designs can be analysed by adding a single module.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple, Type

import numpy as np

from ..exceptions import InvalidParameterError, UnknownGeometryError
from ..validation import (
    check_failure_probability,
    check_hop_count,
    check_identifier_length,
    check_node_count,
)

__all__ = [
    "ScalabilityVerdict",
    "RoutingGeometry",
    "REGISTRY",
    "register_geometry",
    "get_geometry",
    "list_geometries",
    "resolve_identifier_length",
]

LN2 = math.log(2.0)


@dataclass(frozen=True)
class ScalabilityVerdict:
    """The paper's Section 5 verdict for one routing geometry.

    Attributes
    ----------
    geometry:
        Geometry label ("tree", "hypercube", ...).
    scalable:
        Whether routability converges to a *positive* value as the system
        size goes to infinity for failure probabilities inside
        ``(0, 1 - p_c)`` (Definition 2).
    series_behaviour:
        How the per-phase failure series ``sum_m Q(m)`` behaves — the
        quantity Knopp's theorem reduces the question to.
    argument:
        A short prose rendering of the paper's argument for this verdict.
    """

    geometry: str
    scalable: bool
    series_behaviour: str
    argument: str


def resolve_identifier_length(d: Optional[int] = None, n_nodes: Optional[int] = None) -> int:
    """Resolve an identifier length from either ``d`` or a power-of-two ``n_nodes``.

    Exactly one of the two must be given.  ``n_nodes`` must be a power of
    two because the paper assumes fully populated identifier spaces; callers
    who want arbitrary sizes should use
    :meth:`RoutingGeometry.routability_for_size`, which interpolates.
    """
    if (d is None) == (n_nodes is None):
        raise InvalidParameterError("specify exactly one of d or n_nodes")
    if d is not None:
        return check_identifier_length(d)
    n_nodes = check_node_count(n_nodes)
    d = n_nodes.bit_length() - 1
    if (1 << d) != n_nodes:
        raise InvalidParameterError(
            f"n_nodes={n_nodes} is not a power of two; use routability_for_size for arbitrary sizes"
        )
    return check_identifier_length(d)


class RoutingGeometry(abc.ABC):
    """Analytical model of one DHT routing geometry under uniform node failure.

    Subclasses provide the two paper-specific ingredients (``n(h)`` and
    ``Q(m)``) plus a scalability verdict; everything else — ``p(h, q)``,
    ``E[S]``, routability, failed-path percentages, asymptotic limits — is
    derived here so that all five geometries share one code path and one set
    of numerical safeguards.
    """

    #: Paper geometry label, e.g. ``"hypercube"``; set by subclasses.
    name: str = ""
    #: Representative deployed system, e.g. ``"CAN"``; set by subclasses.
    system_name: str = ""

    # ------------------------------------------------------------------ #
    # ingredients supplied by each geometry
    # ------------------------------------------------------------------ #
    @abc.abstractmethod
    def log_distance_distribution(self, d: int) -> np.ndarray:
        """``log n(h)`` for ``h = 1 .. d`` as a float array of length ``d``.

        Working in log space keeps the routability ratio well defined for
        the paper's asymptotic setting (``d = 100`` and beyond), where
        ``n(h)`` itself overflows float64.
        """

    @abc.abstractmethod
    def phase_failure_probability(self, m: int, q: float, d: int) -> float:
        """``Q(m)`` — probability of failing a phase with ``m`` phases still to go.

        ``d`` is the identifier length; most geometries ignore it but the
        Symphony small-world model needs it (its shortcut hit probability is
        ``ks / d``).
        """

    @abc.abstractmethod
    def scalability(self) -> ScalabilityVerdict:
        """The paper's Section 5 scalability verdict for this geometry."""

    # ------------------------------------------------------------------ #
    # derived quantities (shared by all geometries)
    # ------------------------------------------------------------------ #
    def max_phases(self, d: int) -> int:
        """Largest possible routing distance in hops/phases (``d`` for all five geometries)."""
        return check_identifier_length(d)

    def distance_distribution(self, d: int) -> np.ndarray:
        """``n(h)`` for ``h = 1 .. d`` (float array; exact for moderate ``d``).

        The distribution always sums to ``N - 1 = 2^d - 1``: every other
        node sits at exactly one distance from the root.
        """
        d = check_identifier_length(d)
        with np.errstate(over="ignore"):
            # For d beyond ~1000 the central binomial coefficients exceed float64
            # range; callers working at that scale use the log-space variant.
            return np.exp(self.log_distance_distribution(d))

    def phase_failure_probabilities(self, d: int, q: float) -> np.ndarray:
        """``[Q(1), ..., Q(d)]`` as a float array."""
        d = check_identifier_length(d)
        q = check_failure_probability(q)
        return np.array(
            [self.phase_failure_probability(m, q, d) for m in range(1, d + 1)],
            dtype=float,
        )

    def path_success_probability(self, h: int, q: float, d: Optional[int] = None) -> float:
        """``p(h, q)`` — probability of successfully routing to a node ``h`` phases away (Eq. 5)."""
        q = check_failure_probability(q)
        if d is None:
            d = h
        h = check_hop_count(h, d)
        log_p = 0.0
        for m in range(1, h + 1):
            failure = self.phase_failure_probability(m, q, d)
            if failure >= 1.0:
                return 0.0
            log_p += math.log1p(-failure)
        return math.exp(log_p)

    def path_success_probabilities(self, d: int, q: float) -> np.ndarray:
        """``[p(1, q), ..., p(d, q)]`` computed with one cumulative product."""
        failures = self.phase_failure_probabilities(d, q)
        successes = 1.0 - failures
        successes = np.clip(successes, 0.0, 1.0)
        return np.cumprod(successes)

    def expected_reachable_component(self, d: int, q: float) -> float:
        """``E[S]`` — expected number of nodes the root can route to (RCM step 4).

        For very large ``d`` the value itself overflows float64 (it is of
        order ``(1 - q) 2^d``); use :meth:`log_expected_reachable_component`
        or :meth:`routability` (which works with ratios) in that regime.
        """
        return math.exp(self.log_expected_reachable_component(d, q))

    def log_expected_reachable_component(self, d: int, q: float) -> float:
        """``log E[S]``, evaluated stably as a max-shifted log-sum-exp over distances."""
        d = check_identifier_length(d)
        q = check_failure_probability(q)
        log_n = self.log_distance_distribution(d)
        p = self.path_success_probabilities(d, q)
        with np.errstate(divide="ignore"):
            log_p = np.where(p > 0.0, np.log(np.clip(p, 1e-320, None)), -np.inf)
        combined = log_n + log_p
        if np.all(np.isneginf(combined)):
            return float("-inf")
        peak = combined.max()
        return float(np.log(np.sum(np.exp(combined - peak))) + peak)

    def routability(self, q: float, *, d: Optional[int] = None, n_nodes: Optional[int] = None) -> float:
        """``r(N, q)`` — the paper's routability (Eq. 1 / Eq. 3).

        Exactly one of ``d`` or ``n_nodes`` (a power of two) must be given.
        The computation works with the ratio ``n(h) / ((1-q) 2^d - 1)`` in
        log space, so it remains accurate for the asymptotic settings of
        Figure 7 (``d = 100`` and larger).

        Edge cases: at ``q = 0`` routability is exactly 1; when the expected
        number of survivors ``(1 - q) 2^d`` does not exceed 1 there are no
        pairs to route between and the routability is reported as 0.
        """
        d = resolve_identifier_length(d, n_nodes)
        q = check_failure_probability(q)
        if q == 0.0:
            return 1.0
        if q == 1.0:
            return 0.0
        # log((1-q) * 2^d - 1), guarded against a non-positive denominator.
        log_expected_survivors = d * LN2 + math.log1p(-q)
        if log_expected_survivors <= 0.0:
            return 0.0
        log_denominator = log_expected_survivors + math.log1p(-math.exp(-log_expected_survivors))
        log_n = self.log_distance_distribution(d)
        p = self.path_success_probabilities(d, q)
        ratio = np.exp(log_n - log_denominator) * p
        value = float(ratio.sum())
        # Not rounding error: at small N the raw sum really exceeds 1.  Before
        # the clamp, smallworld reads up to +2.8% at d=4 (q=0.05) and +0.6% at
        # d=8 (q=0.01), the hypercube +0.16% at d=4 and +1.0% at d=3 (q=0.1),
        # the ring +0.12% at d=4.  For the hypercube the paper's (1-q)N - 1
        # pair-count denominator, below the exact (1-q)(N-1), accounts for it;
        # smallworld stays above 1 (+2.5% at d=4) with the exact one too.  The
        # clamp reports all of these as 1.
        return float(min(max(value, 0.0), 1.0))

    def routability_for_size(self, n_nodes: int, q: float) -> float:
        """Routability for an arbitrary system size ``N``.

        Power-of-two sizes are evaluated exactly; other sizes are
        interpolated linearly in ``log2 N`` between the two neighbouring
        powers of two (the paper only ever evaluates fully populated spaces,
        so this is a presentation convenience for size sweeps such as
        Figure 7(b)).
        """
        n_nodes = check_node_count(n_nodes)
        q = check_failure_probability(q)
        exact_d = math.log2(n_nodes)
        lower = int(math.floor(exact_d))
        upper = int(math.ceil(exact_d))
        if lower == upper:
            return self.routability(q, d=lower)
        lower_value = self.routability(q, d=lower)
        upper_value = self.routability(q, d=upper)
        weight = exact_d - lower
        return (1.0 - weight) * lower_value + weight * upper_value

    def failed_path_fraction(self, q: float, *, d: Optional[int] = None, n_nodes: Optional[int] = None) -> float:
        """``1 - r(N, q)`` — the fraction of failed paths (Figure 6 / 7(a) y-axis)."""
        return 1.0 - self.routability(q, d=d, n_nodes=n_nodes)

    def failed_path_percent(self, q: float, *, d: Optional[int] = None, n_nodes: Optional[int] = None) -> float:
        """``100 * (1 - r(N, q))`` — percent of failed paths."""
        return 100.0 * self.failed_path_fraction(q, d=d, n_nodes=n_nodes)

    def asymptotic_success_probability(self, q: float, *, max_phases: int = 4096, d: Optional[int] = None) -> float:
        """Numerical estimate of ``lim_{h -> inf} p(h, q)`` (Eq. 8's left-hand side).

        ``d`` defaults to ``max_phases`` for geometries whose ``Q(m)``
        depends on the identifier length (Symphony); the paper's asymptotic
        argument scales ``d`` with the routing distance in the same way.
        """
        q = check_failure_probability(q)
        if q == 0.0:
            return 1.0
        if q == 1.0:
            return 0.0
        horizon = d if d is not None else max_phases
        log_p = 0.0
        for m in range(1, max_phases + 1):
            failure = self.phase_failure_probability(m, q, horizon)
            if failure >= 1.0:
                return 0.0
            log_p += math.log1p(-failure)
            if log_p < -745.0:
                return 0.0
        return math.exp(log_p)

    # ------------------------------------------------------------------ #
    # cosmetics
    # ------------------------------------------------------------------ #
    def describe(self) -> str:
        """One-line description used by reports and the CLI."""
        verdict = self.scalability()
        kind = "scalable" if verdict.scalable else "unscalable"
        return f"{self.name} ({self.system_name}): {kind} — {verdict.series_behaviour}"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r}, system={self.system_name!r})"


# ---------------------------------------------------------------------- #
# registry
# ---------------------------------------------------------------------- #
REGISTRY: Dict[str, Type[RoutingGeometry]] = {}

#: Alternative labels accepted by :func:`get_geometry` (system names, common aliases).
ALIASES: Dict[str, str] = {}


def register_geometry(cls: Type[RoutingGeometry]) -> Type[RoutingGeometry]:
    """Class decorator adding a geometry to the registry under its ``name``.

    The geometry's ``system_name`` (lower-cased) is registered as an alias,
    so ``get_geometry("kademlia")`` and ``get_geometry("xor")`` both work.
    """
    if not cls.name:
        raise InvalidParameterError(f"{cls.__name__} does not define a geometry name")
    if cls.name in REGISTRY:
        raise InvalidParameterError(f"geometry {cls.name!r} is already registered")
    REGISTRY[cls.name] = cls
    if cls.system_name:
        ALIASES[cls.system_name.lower()] = cls.name
    return cls


def list_geometries() -> Tuple[str, ...]:
    """Registered geometry names in a stable (sorted) order."""
    return tuple(sorted(REGISTRY))


def get_geometry(name: str, **parameters) -> RoutingGeometry:
    """Instantiate a registered geometry by name or alias.

    Extra keyword arguments are forwarded to the geometry constructor
    (only the small-world geometry takes any: ``near_neighbors`` and
    ``shortcuts``).
    """
    key = str(name).lower()
    key = ALIASES.get(key, key)
    try:
        cls = REGISTRY[key]
    except KeyError as exc:
        raise UnknownGeometryError(
            f"unknown geometry {name!r}; known geometries: {', '.join(list_geometries())}"
        ) from exc
    return cls(**parameters)
