"""Small-world (Symphony) routing geometry — Section 3.5 / 4.3.4 of the paper.

Each node keeps ``kn`` near neighbours and ``ks`` harmonic shortcuts, a
constant total degree.  Per phase (a halving of the remaining ring
distance):

* a shortcut lands in the desired range with probability ``x = ks / d``,
* routing dies when every link of the current node has failed,
  probability ``y = q^(kn + ks)``,
* otherwise a suboptimal hop is taken (probability ``z = 1 - x - y``),
  with at most ``ceil(d / (1 - q))`` suboptimal hops per phase.

Inspecting the chain of Fig. 8(b) gives the phase-independent failure
probability (Eq. 7):

    Q_sym = y * (1 - z^(J + 1)) / (1 - z),   J = ceil(d / (1 - q))

Because ``Q_sym`` does not decay with the phase index, ``sum_m Q_sym``
diverges and the basic Symphony routing geometry is **unscalable** — though,
as the paper stresses, a designer can always raise ``kn``/``ks`` to reach a
target routability at any finite deployment size (explored by the
``symphony_sensitivity`` extension experiment).
"""

from __future__ import annotations

import math

import numpy as np

from ...validation import check_failure_probability, check_identifier_length, check_positive_int
from ..geometry import RoutingGeometry, ScalabilityVerdict, register_geometry
from ._ring_distances import log_ring_distance_distribution

__all__ = ["SmallWorldGeometry"]


@register_geometry
class SmallWorldGeometry(RoutingGeometry):
    """Analytical model of the Symphony small-world routing geometry.

    Parameters
    ----------
    near_neighbors:
        ``kn`` — number of near-neighbour (successor) links per node.
    shortcuts:
        ``ks`` — number of harmonic long-range links per node.

    The paper's Figure 7 uses ``kn = ks = 1``.
    """

    name = "smallworld"
    system_name = "Symphony"

    def __init__(self, near_neighbors: int = 1, shortcuts: int = 1) -> None:
        self._near_neighbors = check_positive_int(near_neighbors, "near_neighbors")
        self._shortcuts = check_positive_int(shortcuts, "shortcuts")

    @property
    def near_neighbors(self) -> int:
        """``kn`` — near neighbours per node."""
        return self._near_neighbors

    @property
    def shortcuts(self) -> int:
        """``ks`` — shortcuts per node."""
        return self._shortcuts

    def log_distance_distribution(self, d: int) -> np.ndarray:
        """Log clockwise ring distance of a uniform destination (same metric as Chord)."""
        return log_ring_distance_distribution(d)

    def _ingredients(self, q: float, d: int) -> tuple:
        """The chain parameters ``(x, y, z, J)`` of Fig. 8(b) for failure probability ``q``."""
        x = self._shortcuts / d
        y = q ** (self._near_neighbors + self._shortcuts)
        z = 1.0 - x - y
        if q >= 1.0:
            suboptimal_cap = 0
        else:
            suboptimal_cap = math.ceil(d / (1.0 - q))
        return x, y, max(0.0, z), suboptimal_cap

    def phase_failure_probability(self, m: int, q: float, d: int) -> float:
        """``Q_sym`` from Eq. 7 — identical for every phase ``m``.

        When the identifier length is so small that ``ks/d + q^(kn+ks) > 1``
        the suboptimal-hop probability is clamped to zero (the chain then
        either advances or fails on the spot); this only occurs for tiny
        ``d`` outside the paper's regime and is covered by tests.
        """
        check_positive_int(m, "phase m")
        q = check_failure_probability(q)
        d = check_identifier_length(d)
        if q == 0.0:
            return 0.0
        if q == 1.0:
            return 1.0
        _, y, z, cap = self._ingredients(q, d)
        if z == 0.0:
            return min(1.0, y)
        if z >= 1.0:  # pragma: no cover - impossible since x, y > 0
            return 1.0
        geometric_mass = (1.0 - z ** (cap + 1)) / (1.0 - z)
        return min(1.0, y * geometric_mass)

    def phase_failure_probability_exact_sum(self, q: float, d: int) -> float:
        """Direct evaluation of ``y * sum_{j=0}^{J} z^j`` (no closed-form shortcut).

        Used by tests to confirm the geometric closed form; the two agree to
        floating-point precision.
        """
        q = check_failure_probability(q)
        d = check_identifier_length(d)
        if q in (0.0, 1.0):
            return q
        _, y, z, cap = self._ingredients(q, d)
        total = 0.0
        power = 1.0
        for _ in range(cap + 1):
            total += power
            power *= z
            if power == 0.0:
                break
        return min(1.0, y * total)

    def scalability(self) -> ScalabilityVerdict:
        """Not scalable: ``Q_sym`` is a phase-independent positive constant."""
        return ScalabilityVerdict(
            geometry=self.name,
            scalable=False,
            series_behaviour="sum_m Q_sym diverges: Q_sym is a positive constant independent of the phase",
            argument=(
                "Each Symphony phase fails with the same constant probability Q_sym (the node degree does "
                "not grow with the system), so sum_m Q_sym diverges and by Knopp's theorem "
                "p(h, q) -> 0 as h grows: the basic small-world routing geometry is unscalable "
                "(Section 5.5).  A deployment can still hit a target routability at a bounded size by "
                "increasing kn or ks."
            ),
        )
