"""Symphony overlay simulator (the paper's *small-world* geometry).

Nodes sit on a ring of ``N = 2^d`` identifiers.  Each node keeps

* ``kn`` near neighbours — its immediate clockwise successors, and
* ``ks`` shortcuts — long-range links whose clockwise distance is drawn
  from the harmonic (``1/distance``) distribution, Kleinberg's small-world
  construction as used by Symphony.

Routing is greedy clockwise without overshooting the destination, exactly
like Chord, but over a *constant* number of links per node.  Because a
shortcut lands in the distance-halving range only with probability
``ks / d``, each phase takes ``O(log N)`` hops and — more importantly for
the paper — the per-phase failure probability does not decay with the
remaining distance, which is what makes Symphony's basic routing geometry
unscalable in the paper's analysis.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..exceptions import TopologyError
from ..sim.kernelspec import register_kernel_spec
from ..validation import check_identifier_length, check_positive_int
from .chord import make_ring_spec
from .identifiers import IdentifierSpace, ring_distance
from .network import Overlay, make_rng, register_overlay
from .routing import FailureReason, RouteResult, RouteTrace

__all__ = ["SymphonyOverlay", "harmonic_distances"]


def harmonic_distances(
    count: int,
    ring_size: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Draw ``count`` shortcut distances from Symphony's harmonic distribution.

    A draw ``u ~ Uniform(0, 1)`` is mapped to ``distance = ring_size**u``
    (rounded down, clamped to ``[1, ring_size - 1]``), which yields the
    ``p(distance) ∝ 1/distance`` law used by Symphony / Kleinberg
    small-world networks.
    """
    if ring_size < 2:
        raise TopologyError(f"ring size must be at least 2, got {ring_size}")
    uniforms = rng.random(count)
    distances = np.floor(np.power(float(ring_size), uniforms)).astype(np.int64)
    return np.clip(distances, 1, ring_size - 1)


@register_overlay
class SymphonyOverlay(Overlay):
    """Static Symphony (small-world ring) overlay over a fully populated ``d``-bit space."""

    geometry_name = "smallworld"
    system_name = "Symphony"

    def __init__(self, space: IdentifierSpace, tables: np.ndarray, near_neighbors: int) -> None:
        if tables.ndim != 2 or tables.shape[0] != space.size:
            raise TopologyError(
                f"routing tables have shape {tables.shape}, expected ({space.size}, kn + ks)"
            )
        super().__init__(space, tables)
        self._near_count = near_neighbors

    @classmethod
    def build(
        cls,
        d: int,
        *,
        near_neighbors: int = 1,
        shortcuts: int = 1,
        rng: Optional[np.random.Generator] = None,
        seed: Optional[int] = None,
    ) -> "SymphonyOverlay":
        """Build the overlay with ``near_neighbors`` successors and ``shortcuts`` harmonic links per node.

        The paper's Figures 7(a) and 7(b) use ``near_neighbors = shortcuts = 1``.
        """
        d = check_identifier_length(d)
        kn = check_positive_int(near_neighbors, "near_neighbors")
        ks = check_positive_int(shortcuts, "shortcuts")
        space = IdentifierSpace(d)
        n = space.size
        if kn >= n:
            raise TopologyError(
                f"near_neighbors={kn} must be smaller than the number of nodes N={n}"
            )
        generator = make_rng(rng, seed)
        identifiers = np.arange(n, dtype=np.int64)
        # Near neighbours in the first kn columns, shortcuts in the last ks.
        tables = np.empty((n, kn + ks), dtype=np.int32)
        for offset in range(1, kn + 1):
            tables[:, offset - 1] = (identifiers + offset) % n
        for column in range(kn, kn + ks):
            distances = harmonic_distances(n, n, generator)
            tables[:, column] = (identifiers + distances) % n
        return cls(space, tables, kn)

    @property
    def near_neighbor_count(self) -> int:
        """Number of near neighbours (``kn``) each node maintains."""
        return self._near_count

    @property
    def shortcut_count(self) -> int:
        """Number of shortcuts (``ks``) each node maintains."""
        return int(self._table.shape[1]) - self._near_count

    def near_neighbors_of(self, node: int) -> Tuple[int, ...]:
        """The near-neighbour (successor) links of ``node``."""
        node = self._space.validate(node)
        return tuple(int(v) for v in self._table[node, : self._near_count])

    def shortcuts_of(self, node: int) -> Tuple[int, ...]:
        """The long-range shortcut links of ``node``."""
        node = self._space.validate(node)
        return tuple(int(v) for v in self._table[node, self._near_count :])

    def neighbors(self, node: int) -> Tuple[int, ...]:
        """``node``'s near neighbours plus its harmonic long-range shortcuts."""
        node = self._space.validate(node)
        return tuple(int(v) for v in self._table[node])

    def hop_limit(self) -> int:
        """Symphony may need up to ``O(N)`` successor hops once shortcuts have failed."""
        return max(64, 4 * self.n_nodes)

    def route(self, source: int, destination: int, alive: np.ndarray) -> RouteResult:
        """Greedy clockwise routing without overshooting, over near neighbours and shortcuts."""
        alive = self._check_route_arguments(source, destination, alive)
        n = self.n_nodes
        trace = RouteTrace(source, destination, hop_limit=self.hop_limit())
        while trace.current != destination:
            if trace.hop_budget_exhausted:
                return trace.failure(FailureReason.HOP_LIMIT_EXCEEDED)
            current = trace.current
            remaining = ring_distance(current, destination, n)
            best_neighbor = -1
            best_remaining = remaining
            for neighbor in self.neighbors(current):
                if not alive[neighbor]:
                    continue
                progress = ring_distance(current, neighbor, n)
                if progress == 0 or progress > remaining:
                    continue
                distance_after = remaining - progress
                if distance_after < best_remaining:
                    best_remaining = distance_after
                    best_neighbor = neighbor
            if best_neighbor < 0:
                return trace.failure(FailureReason.DEAD_END)
            trace.advance(best_neighbor)
        return trace.success()


# Symphony routes exactly like Chord — greedy clockwise without
# overshooting, just over a constant number of links — so its kernel spec
# is the shared ring declaration under the smallworld label.
register_kernel_spec(make_ring_spec(SymphonyOverlay.geometry_name))
