"""Kademlia overlay simulator (the paper's *XOR* geometry).

The *i*-th routing-table entry of node ``x`` is a node chosen uniformly at
random from the XOR-distance range ``[2^(d-i), 2^(d-i+1))`` — equivalently,
a node that shares ``x``'s first ``i - 1`` bits, differs on bit *i*, and has
uniformly random lower-order bits (the paper spells out this equivalence in
Section 3.3).

Routing is greedy in the XOR metric.  When the neighbour that would correct
the current highest-order differing bit has failed, the message may instead
be forwarded to a neighbour that corrects a lower-order bit — progress that
is not necessarily preserved across phases, which is exactly the behaviour
the paper's XOR Markov chain (Fig. 5(b)) captures.  The message is dropped
only when no alive neighbour reduces the XOR distance.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..exceptions import TopologyError
from ..sim.kernelspec import KernelSpec, register_kernel_spec
from ..validation import check_identifier_length
from .identifiers import IdentifierSpace, xor_distance
from .network import Overlay, make_rng, register_overlay
from .routing import FAILURE_CODES, FailureReason, RouteResult, RouteTrace

__all__ = ["KademliaOverlay"]


@register_overlay
class KademliaOverlay(Overlay):
    """Static Kademlia (XOR) overlay over a fully populated ``d``-bit space."""

    geometry_name = "xor"
    system_name = "Kademlia"

    def __init__(self, space: IdentifierSpace, tables: np.ndarray) -> None:
        super().__init__(space)
        if tables.shape != (space.size, space.d):
            raise TopologyError(
                f"XOR routing tables have shape {tables.shape}, expected {(space.size, space.d)}"
            )
        self._tables = tables

    @classmethod
    def build(
        cls,
        d: int,
        *,
        rng: Optional[np.random.Generator] = None,
        seed: Optional[int] = None,
    ) -> "KademliaOverlay":
        """Build the overlay, drawing each table entry uniformly from its XOR-distance bucket."""
        d = check_identifier_length(d)
        space = IdentifierSpace(d)
        n = space.size
        generator = make_rng(rng, seed)
        identifiers = np.arange(n, dtype=np.int64)
        tables = np.empty((n, d), dtype=np.int64)
        for position in range(1, d + 1):
            flip_mask = 1 << (d - position)
            low_bits = d - position
            prefix_flipped = identifiers ^ flip_mask
            if low_bits == 0:
                tables[:, position - 1] = prefix_flipped
            else:
                keep_mask = ~((1 << low_bits) - 1)
                random_suffix = generator.integers(0, 1 << low_bits, size=n, dtype=np.int64)
                tables[:, position - 1] = (prefix_flipped & keep_mask) | random_suffix
        return cls(space, tables)

    def neighbor_for_bucket(self, node: int, bucket: int) -> int:
        """Routing-table entry of ``node`` for bucket ``bucket`` (1-based; bucket *i* covers XOR distance ``[2^(d-i), 2^(d-i+1))``)."""
        node = self._space.validate(node)
        if bucket < 1 or bucket > self.d:
            raise TopologyError(f"bucket {bucket} outside 1..{self.d}")
        return int(self._tables[node, bucket - 1])

    def neighbors(self, node: int) -> Tuple[int, ...]:
        """One bucket representative per differing-bit position of ``node``."""
        node = self._space.validate(node)
        return tuple(int(v) for v in self._tables[node])

    def _build_neighbor_array(self) -> np.ndarray:
        """Bucket-indexed routing tables (column *i* is the bucket *i + 1* entry)."""
        return self._tables

    def route(self, source: int, destination: int, alive: np.ndarray) -> RouteResult:
        """Greedy XOR routing: forward to the alive neighbour closest to the destination.

        The next hop must strictly reduce the XOR distance (no back-tracking);
        when no alive neighbour does, the message is dropped.
        """
        alive = self._check_route_arguments(source, destination, alive)
        trace = RouteTrace(source, destination, hop_limit=self.hop_limit())
        while trace.current != destination:
            if trace.hop_budget_exhausted:
                return trace.failure(FailureReason.HOP_LIMIT_EXCEEDED)
            current = trace.current
            current_distance = xor_distance(current, destination)
            best_neighbor = -1
            best_distance = current_distance
            for neighbor in self._tables[current]:
                neighbor = int(neighbor)
                if not alive[neighbor]:
                    continue
                distance = xor_distance(neighbor, destination)
                if distance < best_distance:
                    best_distance = distance
                    best_neighbor = neighbor
            if best_neighbor < 0:
                return trace.failure(FailureReason.DEAD_END)
            trace.advance(best_neighbor)
        return trace.success()


# --------------------------------------------------------------------- #
# kernel spec — the one batch declaration of the XOR routing rule
# --------------------------------------------------------------------- #
def _xor_key(ops):
    """XOR distance to the destination; distinct across distinct neighbours,
    so equal keys imply the same (duplicated) table entry.  A dead
    neighbour arrives as ``cur``, whose key ``cur ^ dst`` the accept rule
    rejects and every usable neighbour undercuts."""

    def key(consts, neighbor, cur, dst):
        return neighbor ^ dst

    return key


def _xor_accept(ops):
    """The winner must strictly reduce the XOR distance (the scalar dead-end rule)."""

    def accept(consts, best_key, cur, dst):
        return best_key < (cur ^ dst)

    return accept


register_kernel_spec(
    KernelSpec(
        geometry=KademliaOverlay.geometry_name,
        kind="scan",
        fail_code=FAILURE_CODES[FailureReason.DEAD_END],
        key=_xor_key,
        accept=_xor_accept,
    )
)
