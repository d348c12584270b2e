"""De Bruijn shuffle-exchange overlay (the *debruijn* geometry, representing Koorde).

This module is the proof of the KernelSpec refactor's "new geometry = one
file" property: everything the simulation stack needs for a sixth routing
geometry lives here — the scalar :meth:`DeBruijnOverlay.route` oracle, the
:class:`~repro.sim.kernelspec.KernelSpec` declaring the batch routing step
once, and both registrations.  Importing :mod:`repro.dht` wires the
geometry through ``route_pairs``/``route_pairs_stacked``, every kernel
backend, the :class:`~repro.sim.engine.SweepRunner` grid (all failure
models, any worker count), ``rcm simulate`` and the
conformance harness, with no other file changed.

Topology: node ``x`` links to its two de Bruijn shuffle successors
``(2x) mod 2^d`` and ``(2x + 1) mod 2^d``.  The two shift fixed points
(``0`` and ``2^d - 1``), whose shuffle successor would be themselves, carry
the exchange link ``x ^ 1`` in that table slot instead — routing never
requires the replaced entry (see below), so the substitution only keeps the
table free of self-loops.

Routing (Koorde-style, stateless): let the *overlap* of ``(x, y)`` be the
longest suffix of ``x`` that is a prefix of ``y``.  The message holder
shifts in the single destination bit that extends the overlap —
``next = ((x << 1) | bit) & (2^d - 1)`` with ``bit`` the first destination
bit past the overlap — so the overlap grows by at least one per hop and the
message arrives in at most ``d`` hops.  Exactly one neighbour extends the
overlap; if it failed, the message is dropped
(:attr:`FailureReason.REQUIRED_NEIGHBOR_FAILED`), making de Bruijn a
tree-like *required-neighbour* geometry: ``Q(m) = q`` per phase, hence
unscalable under the paper's criterion (see
:class:`repro.core.geometries.debruijn.DeBruijnGeometry`).
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..sim.kernelspec import KernelSpec, register_kernel_spec
from ..validation import check_identifier_length
from .identifiers import IdentifierSpace
from .network import Overlay, make_rng, register_overlay
from .routing import FAILURE_CODES, FailureReason, RouteResult, RouteTrace

__all__ = ["DeBruijnOverlay", "suffix_prefix_overlap"]


def suffix_prefix_overlap(x: int, y: int, d: int) -> int:
    """Longest ``l`` in ``[0, d - 1]`` with the low ``l`` bits of ``x`` equal to
    the high ``l`` bits of ``y``.

    This is the de Bruijn routing potential: the greedy distance from ``x``
    to ``y`` is ``d - overlap`` (an overlap of ``d`` would mean ``x == y``,
    which routing never queries).
    """
    best = 0
    for length in range(1, d):
        if (x & ((1 << length) - 1)) == (y >> (d - length)):
            best = length
    return best


@register_overlay
class DeBruijnOverlay(Overlay):
    """Static de Bruijn shuffle-exchange overlay over a fully populated ``d``-bit space.

    The wiring is deterministic — like the hypercube, :meth:`build` needs no
    randomness and accepts ``rng``/``seed`` only for interface uniformity.
    """

    geometry_name = "debruijn"
    system_name = "Koorde"

    def __init__(self, space: IdentifierSpace) -> None:
        super().__init__(space)
        self._mask = space.size - 1

    @classmethod
    def build(
        cls,
        d: int,
        *,
        rng: Optional[np.random.Generator] = None,
        seed: Optional[int] = None,
    ) -> "DeBruijnOverlay":
        """Build the overlay for a ``d``-bit identifier space."""
        d = check_identifier_length(d)
        make_rng(rng, seed)  # validates the rng/seed combination
        return cls(IdentifierSpace(d))

    def shuffle_successors(self, node: int) -> Tuple[int, int]:
        """The two de Bruijn successors ``(2x) mod 2^d`` and ``(2x + 1) mod 2^d``."""
        node = self._space.validate(node)
        shifted = (node << 1) & self._mask
        return shifted, shifted | 1

    def neighbors(self, node: int) -> Tuple[int, ...]:
        """The two shuffle successors of ``node`` (exchange link at the shift fixed points)."""
        even, odd = self.shuffle_successors(node)
        # The two shift fixed points would list themselves; they carry the
        # exchange link x ^ 1 in that slot instead (never required by routing).
        if even == node:
            even = node ^ 1
        if odd == node:
            odd = node ^ 1
        return (even, odd)

    def _build_neighbor_array(self) -> np.ndarray:
        identifiers = np.arange(self.n_nodes, dtype=np.int32)
        shifted = (identifiers << 1) & self._mask
        even = shifted.copy()
        odd = shifted | 1
        even[even == identifiers] ^= 1
        odd[odd == identifiers] = identifiers[odd == identifiers] ^ 1
        return np.stack([even, odd], axis=1)

    def required_next_hop(self, node: int, destination: int) -> int:
        """The single neighbour extending the suffix-prefix overlap toward ``destination``."""
        node = self._space.validate(node)
        destination = self._space.validate(destination)
        overlap = suffix_prefix_overlap(node, destination, self.d)
        bit = (destination >> (self.d - overlap - 1)) & 1
        return ((node << 1) | bit) & self._mask

    def route(self, source: int, destination: int, alive: np.ndarray) -> RouteResult:
        """Shift in the next destination bit each hop; drop if that neighbour failed.

        The overlap grows by at least one per hop, so paths never revisit a
        node and take at most ``d`` hops.
        """
        alive = self._check_route_arguments(source, destination, alive)
        trace = RouteTrace(source, destination, hop_limit=self.hop_limit())
        while trace.current != destination:
            if trace.hop_budget_exhausted:
                return trace.failure(FailureReason.HOP_LIMIT_EXCEEDED)
            next_hop = self.required_next_hop(trace.current, destination)
            if not alive[next_hop]:
                return trace.failure(FailureReason.REQUIRED_NEIGHBOR_FAILED)
            trace.advance(next_hop)
        return trace.success()


# --------------------------------------------------------------------- #
# kernel spec — the one batch declaration of the de Bruijn routing rule
# --------------------------------------------------------------------- #
def _debruijn_advance(ops):
    """Shift in the destination bit extending the suffix-prefix overlap.

    The overlap is found by scanning candidate lengths in ascending order
    and keeping the last match — the element-wise rendering of
    :func:`suffix_prefix_overlap`'s maximum.
    """

    where = ops.where
    alive_at = ops.alive

    def advance(consts, table, alive, cur, dst):
        d = consts[0]
        mask = consts[1]
        local_cur = cur & mask
        local_dst = dst & mask
        base = cur - local_cur  # the fused stack's cell offset (0 for cell 0)
        overlap = local_cur & 0  # a zero of the operand type/shape
        for length in range(1, d):
            match = (local_cur & ((1 << length) - 1)) == (local_dst >> (d - length))
            overlap = where(match, length, overlap)
        bit = (local_dst >> (d - overlap - 1)) & 1
        next_hop = base + (((local_cur << 1) | bit) & mask)
        return next_hop, alive_at(alive, next_hop)

    return advance


register_kernel_spec(
    KernelSpec(
        geometry=DeBruijnOverlay.geometry_name,
        kind="direct",
        fail_code=FAILURE_CODES[FailureReason.REQUIRED_NEIGHBOR_FAILED],
        advance=_debruijn_advance,
    )
)
