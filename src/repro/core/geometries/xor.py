"""XOR (Kademlia) routing geometry — Section 3.3 / 4.3.2 of the paper.

Neighbour construction is equivalent to the Plaxton tree (``n(h) = C(d, h)``)
but routing may fall back to correcting lower-order bits when the optimal
neighbour has failed.  Inspecting the Markov chain of Fig. 5(b) gives the
per-phase failure probability (Eq. 6):

    Q_xor(m) = q^m * [ 1 + sum_{k=1}^{m-1}  prod_{j=m-k}^{m-1} (1 - q^j) ]

(the ``k``-th summand is the probability of taking ``k`` suboptimal hops and
then finding every remaining useful neighbour dead).  The terms of
``sum_m Q_xor(m)`` are dominated by ``m q^m``, so the series converges and
the geometry is **scalable** — the analytical counterpart of Kademlia/eDonkey
scaling to millions of nodes.
"""

from __future__ import annotations

import numpy as np

from ...validation import check_failure_probability, check_identifier_length, check_positive_int
from ..geometry import RoutingGeometry, ScalabilityVerdict, register_geometry
from ._binomial import log_binomial_distance_distribution

__all__ = ["XorGeometry"]


@register_geometry
class XorGeometry(RoutingGeometry):
    """Analytical model of the XOR (Kademlia) routing geometry."""

    name = "xor"
    system_name = "Kademlia"

    def log_distance_distribution(self, d: int) -> np.ndarray:
        """Binomial: a uniform destination's XOR distance has ``Binomial(d, 1/2)``-distributed phase."""
        return log_binomial_distance_distribution(d)

    def phase_failure_probability(self, m: int, q: float, d: int) -> float:
        """Exact ``Q_xor(m)`` from Eq. 6, evaluated by accumulating the nested products.

        The ``k``-th term's product ``prod_{j=m-k}^{m-1} (1 - q^j)`` is built
        incrementally from ``k = 1`` upwards, so the whole evaluation costs
        ``O(m)`` multiplications.
        """
        m = check_positive_int(m, "phase m")
        q = check_failure_probability(q)
        check_identifier_length(d)
        if q == 0.0:
            return 0.0
        if q == 1.0:
            return 1.0
        q_to_m = q**m
        if q_to_m == 0.0:
            return 0.0
        suboptimal_weight = 0.0
        running_product = 1.0
        for k in range(1, m):
            running_product *= 1.0 - q ** (m - k)
            suboptimal_weight += running_product
            if running_product == 0.0:
                break
        return min(1.0, q_to_m * (1.0 + suboptimal_weight))

    def phase_failure_probability_approximation(self, m: int, q: float) -> float:
        """The paper's small-``q`` approximation of Eq. 6 (``1 - x ≈ e^-x``).

        Provided for completeness and for tests that check the approximation
        against the exact expression; the library always uses the exact form.
        """
        m = check_positive_int(m, "phase m")
        q = check_failure_probability(q)
        if q in (0.0, 1.0):
            return q
        q_to_m = q**m
        correction = (q / (1.0 - q)) * (
            q ** (m - 1) * (m - 1) - (1.0 - q ** (m + 1)) / (1.0 - q)
        )
        return max(0.0, min(1.0, q_to_m * (m + correction)))

    def scalability(self) -> ScalabilityVerdict:
        """Scalable: ``Q_xor(m)`` is dominated by ``m q^m`` terms, so the series converges."""
        return ScalabilityVerdict(
            geometry=self.name,
            scalable=True,
            series_behaviour="sum_m Q_xor(m) converges: Q_xor(m) is dominated by terms of order m q^m",
            argument=(
                "Q_xor(m) = q^m [1 + sum of at most m-1 products each at most 1] <= m q^m, and "
                "sum m q^m converges for q < 1; by Knopp's theorem p(inf, q) > 0, so the XOR "
                "geometry is scalable (Section 5.3) — consistent with Kademlia-based eDonkey "
                "operating at millions of nodes."
            ),
        )
