"""Ring (Chord) routing geometry — Section 3.4 / 4.3.3 of the paper.

Distances are counted in phases on the ring, so ``n(h) = 2^(h-1)``.  The
per-phase failure probability comes from the Markov chain of Fig. 8(a): at
every hop of a phase with ``m`` phases remaining the message sees the full
set of ``m`` finger choices (failure probability ``q^m``) or takes a
suboptimal hop (probability ``q (1 - q^{m-1})``), with at most
``2^(m-1) - 1`` suboptimal hops:

    Q_ring(m) = q^m * (1 - [q (1 - q^{m-1})]^(2^(m-1))) / (1 - q (1 - q^{m-1}))

Because the model does not credit the progress suboptimal hops make, the
resulting ``p(h, q)`` is a **lower bound** on Chord's true success
probability (and the failed-path curve an upper bound) — the gap is
measured by experiment FIG6B.  The geometry is **scalable**: its ``Q(m)``
is dominated term-by-term by a convergent series (the paper argues via
comparison with the XOR chain).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ...validation import check_failure_probability, check_identifier_length, check_positive_int
from ..geometry import RoutingGeometry, ScalabilityVerdict, register_geometry
from ._ring_distances import log_ring_distance_distribution

__all__ = ["RingGeometry"]


@register_geometry
class RingGeometry(RoutingGeometry):
    """Analytical (lower-bound) model of the ring (Chord) routing geometry.

    Parameters
    ----------
    max_suboptimal_hops:
        Optional cap on the number of suboptimal hops per phase.  ``None``
        (default) uses the paper's cap of ``2^(m-1) - 1``; small explicit
        values are used by tests to compare against explicitly constructed
        Markov chains of manageable size.
    """

    name = "ring"
    system_name = "Chord"

    def __init__(self, max_suboptimal_hops: Optional[int] = None) -> None:
        if max_suboptimal_hops is not None:
            max_suboptimal_hops = check_positive_int(max_suboptimal_hops, "max_suboptimal_hops")
        self._max_suboptimal_hops = max_suboptimal_hops

    @property
    def max_suboptimal_hops(self) -> Optional[int]:
        """Configured suboptimal-hop cap (``None`` = the paper's ``2^(m-1) - 1``)."""
        return self._max_suboptimal_hops

    def log_distance_distribution(self, d: int) -> np.ndarray:
        """Log clockwise ring distance of a uniform destination."""
        return log_ring_distance_distribution(d)

    def phase_failure_probability(self, m: int, q: float, d: int) -> float:
        """``Q_ring(m)`` — truncated geometric series over suboptimal hops (Section 4.3.3)."""
        m = check_positive_int(m, "phase m")
        q = check_failure_probability(q)
        check_identifier_length(d)
        if q == 0.0:
            return 0.0
        if q == 1.0:
            return 1.0
        q_to_m = q**m
        suboptimal = q * (1.0 - q ** (m - 1))
        if self._max_suboptimal_hops is None:
            hop_cap = float(2 ** min(m - 1, 1070))  # beyond ~2^1070 the power underflows anyway
        else:
            hop_cap = float(min(self._max_suboptimal_hops, 2 ** min(m - 1, 1070) - 1) + 1)
        if suboptimal == 0.0:
            return min(1.0, q_to_m)
        geometric_mass = (1.0 - suboptimal**hop_cap) / (1.0 - suboptimal)
        return min(1.0, q_to_m * geometric_mass)

    def scalability(self) -> ScalabilityVerdict:
        """Scalable: ``Q_ring(m)`` decays fast enough for the series to converge."""
        return ScalabilityVerdict(
            geometry=self.name,
            scalable=True,
            series_behaviour=(
                "sum_m Q_ring(m) converges: Q_ring(m) <= q^m / (1 - q(1 - q^{m-1})), a geometrically "
                "decaying bound"
            ),
            argument=(
                "The ring chain's suboptimal-hop transition probabilities are strictly larger than the "
                "XOR chain's, so p_ring(h, q) >= p_xor(h, q); since the XOR geometry is scalable, so is "
                "the ring geometry (Section 5.4).  The closed form is in addition only a lower bound on "
                "Chord's true success probability because suboptimal hops actually preserve progress."
            ),
        )
