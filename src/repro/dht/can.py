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
        by the analysis); otherwise the smallest of their identifiers is
        chosen deterministically: the one clearing the highest differing bit
        set in the current node or, when none is set, setting the lowest.
        The two policies have identical failure probability because the
        usable neighbours at each step are exchangeable under uniform
        failures.
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
def _hypercube_key(ops):
    """The neighbour's identifier, lowered by ``2^(d+1)`` when it flips a differing bit.

    A neighbour flips a differing bit iff it is closer to ``dst`` in XOR
    distance than ``cur``: the change ``(neighbor ^ dst) - (cur ^ dst)`` is
    then ``-2^j``, otherwise ``+2^j`` (or ``0`` for a dead neighbour, which
    arrives as ``cur``).  Masking that change with ``-2^(d+1)`` keeps
    ``-2^(d+1)`` for the negative ones and ``0`` for the rest, so no branch
    is needed.  Every progressing key then lies below the row's cell base
    ``cur - (cur & (2^d - 1))`` and every other key at or above it, and
    among the progressing ones the least key is the least identifier: the
    scalar oracle's ``min(candidates)``.  Equal keys name the same
    neighbour: only dead ones share a key, and all arrive as ``cur``.
    """

    def key(consts, neighbor, cur, dst):
        return neighbor + (((neighbor ^ dst) - (cur ^ dst)) & (-2 * (consts[1] + 1)))

    return key


def _hypercube_accept(ops):
    """Some progressing alive neighbour existed iff the winning key lies below the cell base."""

    def accept(consts, best_key, cur, dst):
        return best_key < cur - (cur & consts[1])

    return accept


def _hypercube_first_column(ops):
    """The column of the oracle's favourite bit: the highest differing bit set
    in ``cur`` (the largest decrease) or, when none is, the lowest clear one
    (the smallest increase).

    Column ``c`` flips bit ``d-1-c`` (:meth:`HypercubeOverlay._build_neighbor_array`),
    so bit ``j`` sits in column ``d - bit_length(2^j)``.
    """
    bit_length = ops.bit_length
    where = ops.where

    def first_column(consts, cur, dst):
        differing = cur ^ dst
        decreasing = differing & cur
        increasing = differing & ~cur
        return consts[0] - bit_length(where(decreasing != 0, decreasing, increasing & -increasing))

    return first_column


def _hypercube_next_column(ops):
    """The column of the next bit in the oracle's order (``d`` when none is left).

    The order visits the differing bits set in ``cur`` from high to low,
    then the clear ones from low to high: ascending identifiers of the
    progressing neighbours, so the first alive one is their minimum.
    """
    bit_length = ops.bit_length
    where = ops.where

    def next_column(consts, cur, dst, column):
        differing = cur ^ dst
        bit = (consts[1] + 1) >> (column + 1)  # column's bit, 2^(d-1-column)
        # All ones while the order clears bits (this bit is set in cur), 0
        # once it sets them: -bit >> d is -1 for every bit below 2^d.
        clearing = -(cur & bit) >> consts[0]
        # Still to clear: the differing bits of cur below this one.  Then to
        # set: the clear differing bits, above this one once setting began.
        lower = differing & cur & (bit - 1) & clearing
        higher = differing & ~cur & (-(bit + bit) | clearing)
        return consts[0] - bit_length(where(lower != 0, lower, higher & -higher))

    return next_column


register_kernel_spec(
    KernelSpec(
        geometry=HypercubeOverlay.geometry_name,
        kind="scan",
        fail_code=FAILURE_CODES[FailureReason.DEAD_END],
        key=_hypercube_key,
        accept=_hypercube_accept,
        first_column=_hypercube_first_column,
        next_column=_hypercube_next_column,
    )
)
