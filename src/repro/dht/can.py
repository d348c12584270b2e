"""Hypercube overlay simulator (the paper's *hypercube* geometry, representing CAN).

Every node is linked to the ``d`` identifiers at Hamming distance one (one
neighbour per bit).  Routing is greedy on the Hamming distance: at each hop
the message may be forwarded to *any* alive neighbour that corrects one of
the remaining differing bits, in any order.  With ``m`` bits left to
correct there are ``m`` usable neighbours, so a hop fails only when all of
them failed — probability ``q^m`` — which is what makes the hypercube
geometry scalable in the paper's analysis.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from ..sim.kernelspec import KernelSpec, register_kernel_spec
from ..validation import check_identifier_length
from .identifiers import IdentifierSpace
from .network import Overlay, make_rng, register_overlay
from .routing import FAILURE_CODES, FailureReason, RouteResult, RouteTrace

__all__ = ["HypercubeOverlay"]


@register_overlay
class HypercubeOverlay(Overlay):
    """Static hypercube (CAN-like) overlay over a fully populated ``d``-bit space.

    The topology is deterministic — node ``x`` is linked to ``x`` with each
    single bit flipped — so :meth:`build` needs no randomness; an optional
    generator only influences tie-breaking during routing when
    ``random_tie_break=True`` is passed to :meth:`route`.
    """

    geometry_name = "hypercube"
    system_name = "CAN"

    def __init__(self, space: IdentifierSpace) -> None:
        super().__init__(space)
        self._flip_masks = tuple(1 << (space.d - position) for position in range(1, space.d + 1))

    @classmethod
    def build(
        cls,
        d: int,
        *,
        rng: Optional[np.random.Generator] = None,
        seed: Optional[int] = None,
    ) -> "HypercubeOverlay":
        """Build the overlay for a ``d``-bit identifier space.

        ``rng`` and ``seed`` are accepted for interface uniformity with the
        randomised overlays but are not used: the hypercube wiring is fully
        determined by ``d``.
        """
        d = check_identifier_length(d)
        make_rng(rng, seed)  # validates the rng/seed combination
        return cls(IdentifierSpace(d))

    def neighbors(self, node: int) -> Tuple[int, ...]:
        """The ``d`` bit-flip neighbours of ``node`` (one per dimension)."""
        node = self._space.validate(node)
        return tuple(node ^ mask for mask in self._flip_masks)

    def _build_neighbor_array(self) -> np.ndarray:
        identifiers = np.arange(self.n_nodes, dtype=np.int32)
        masks = np.asarray(self._flip_masks, dtype=np.int32)
        return identifiers[:, None] ^ masks[None, :]

    def progressing_neighbors(self, node: int, destination: int, alive: np.ndarray) -> List[int]:
        """Alive neighbours of ``node`` that reduce the Hamming distance to ``destination``."""
        node = self._space.validate(node)
        destination = self._space.validate(destination)
        differing = node ^ destination
        candidates: List[int] = []
        for mask in self._flip_masks:
            if differing & mask:
                neighbor = node ^ mask
                if alive[neighbor]:
                    candidates.append(neighbor)
        return candidates

    def route(
        self,
        source: int,
        destination: int,
        alive: np.ndarray,
        *,
        rng: Optional[np.random.Generator] = None,
    ) -> RouteResult:
        """Greedy bit-correcting routing; any alive neighbour fixing a differing bit may be used.

        When ``rng`` is given, the next hop is chosen uniformly at random
        among the progressing alive neighbours (the symmetric choice assumed
        by the analysis); otherwise the neighbour correcting the
        highest-order differing bit is chosen deterministically.  The two
        policies have identical failure probability because the usable
        neighbours at each step are exchangeable under uniform failures.
        """
        alive = self._check_route_arguments(source, destination, alive)
        trace = RouteTrace(source, destination, hop_limit=self.hop_limit())
        while trace.current != destination:
            if trace.hop_budget_exhausted:
                return trace.failure(FailureReason.HOP_LIMIT_EXCEEDED)
            candidates = self.progressing_neighbors(trace.current, destination, alive)
            if not candidates:
                return trace.failure(FailureReason.DEAD_END)
            if rng is None:
                # All candidates reduce the Hamming distance by exactly one, so
                # the smallest identifier is a deterministic, reproducible choice.
                next_hop = min(candidates)
            else:
                next_hop = int(candidates[int(rng.integers(0, len(candidates)))])
            trace.advance(next_hop)
        return trace.success()


# --------------------------------------------------------------------- #
# kernel spec — the one batch declaration of the hypercube routing rule
# --------------------------------------------------------------------- #
def _hypercube_neighbor_bits(ops):
    """A neighbour's flipped bit, ``neighbor ^ cur``: the driver ORs these over
    the masked row into the alive-neighbour bitset (bit ``j`` set iff
    ``cur ^ 2^j`` is alive).  A dead neighbour arrives as ``cur`` and adds
    nothing; on a fused stack's virtual identifiers (``cell * 2^d + node``)
    the cell base cancels in the XOR.
    """

    def neighbor_bits(consts, neighbor, cur):
        return neighbor ^ cur

    return neighbor_bits


def _hypercube_advance(ops):
    """Greedy bit correction: the scalar min-identifier rule as bit arithmetic.

    Among the differing bits whose neighbour is alive (``row``, the
    alive-neighbour bitset), clear the highest set bit of ``cur`` (the
    largest decrease) or, when none is set, set the lowest clear bit (the
    smallest increase) — exactly the scalar min-identifier choice.
    """

    highest_set_bit = ops.highest_set_bit
    where = ops.where

    def advance(consts, table, alive, cur, dst, row):
        usable = row & (cur ^ dst)
        decreasing = usable & cur
        clear_highest = highest_set_bit(decreasing)  # undefined at 0; masked below
        increasing = usable & ~cur
        set_lowest = increasing & -increasing
        bit = where(decreasing != 0, clear_highest, set_lowest)
        # usable == 0 leaves bit == 0, i.e. next == cur, discarded via ok.
        return cur ^ bit, usable != 0

    return advance


register_kernel_spec(
    KernelSpec(
        geometry=HypercubeOverlay.geometry_name,
        kind="direct",
        fail_code=FAILURE_CODES[FailureReason.DEAD_END],
        advance=_hypercube_advance,
        neighbor_bits=_hypercube_neighbor_bits,
    )
)
