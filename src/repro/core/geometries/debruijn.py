"""De Bruijn shuffle-exchange routing geometry (Koorde) — a framework extension.

The paper analyses five geometries; this module runs a sixth through the
same Reachable Component Method pipeline, exercising the framework's
"plug in ``n(h)`` and ``Q(m)``, derive everything" property (the RCM
counterpart of the simulation side's one-file
:mod:`repro.dht.debruijn` overlay + kernel spec):

* ``n(h) = 2^h`` for ``h < d`` and ``n(d) = 1`` — greedy de Bruijn
  distance is ``d`` minus the longest suffix-prefix overlap, and each hop
  doubles the set of reachable destinations (shift in either bit); the one
  identifier left over goes to the last shell, so the distribution sums to
  ``2^d - 1`` exactly.  This is a model, not the routing's distance
  distribution: a root's suffix self-overlaps make the shells deplete at
  every ``h``, most near saturation.  At ``d = 8`` the exact mean shells
  over all roots (``d`` minus
  :func:`~repro.dht.debruijn.suffix_prefix_overlap`) are
  ``[1.99, 3.96, 7.82, 15.23, 28.82, 51.12, 77.21, 68.84]`` against the
  model's ``[2, 4, 8, 16, 32, 64, 128, 1]``: the last shell holds 68.84
  destinations where the model puts 1, and every shorter shell is smaller
  than the model's.  The model stays as it is until the routing's own
  shells replace it (the de Bruijn distance-distribution item in
  ``ROADMAP.md``).
* ``Q(m) = q`` — like the tree, each hop requires one specific neighbour
  (the shuffle successor extending the overlap), so a phase fails exactly
  when that node failed.

With constant per-phase failure the series ``sum_m Q(m)`` diverges and the
geometry is **unscalable** — the constant out-degree of 2 buys ``O(log N)``
routing with ``O(1)`` state (Koorde's selling point) at the price of zero
routing redundancy, the trade-off the paper's framework makes explicit.
"""

from __future__ import annotations

import math

import numpy as np

from ...validation import check_failure_probability, check_identifier_length, check_positive_int
from ..geometry import RoutingGeometry, ScalabilityVerdict, register_geometry

__all__ = ["DeBruijnGeometry"]

LN2 = math.log(2.0)


@register_geometry
class DeBruijnGeometry(RoutingGeometry):
    """Analytical model of the de Bruijn shuffle-exchange routing geometry."""

    name = "debruijn"
    system_name = "Koorde"

    def log_distance_distribution(self, d: int) -> np.ndarray:
        """``log n(h)``: doubling shells ``2^h``, saturation truncated into ``n(d) = 1``."""
        d = check_identifier_length(d)
        log_n = np.arange(1, d + 1, dtype=float) * LN2
        log_n[-1] = 0.0  # the one identifier left once 2 + 4 + ... + 2^(d-1) are spoken for
        return log_n

    def phase_failure_probability(self, m: int, q: float, d: int) -> float:
        """``Q(m) = q``: the single overlap-extending neighbour must be alive."""
        check_positive_int(m, "phase m")
        q = check_failure_probability(q)
        check_identifier_length(d)
        return q

    def path_success_probability(self, h: int, q: float, d: int | None = None) -> float:
        """``p(h, q) = (1 - q)^h`` (specialised closed form; the generic product agrees)."""
        q = check_failure_probability(q)
        h = check_positive_int(h, "hop count h")
        return (1.0 - q) ** h

    def scalability(self) -> ScalabilityVerdict:
        """Not scalable: constant ``Q(m) = q`` terms make the reachability series diverge."""
        return ScalabilityVerdict(
            geometry=self.name,
            scalable=False,
            series_behaviour="sum_m Q(m) = sum_m q diverges (constant terms)",
            argument=(
                "Every hop shifts in one specific destination bit, so exactly one neighbour "
                "can extend the suffix-prefix overlap: p(h, q) = (1 - q)^h vanishes as h grows "
                "for any q > 0, exactly like the tree geometry — constant degree buys O(1) "
                "state but no routing redundancy."
            ),
        )
