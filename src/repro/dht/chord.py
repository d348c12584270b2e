"""Chord overlay simulator (the paper's *ring* geometry).

Nodes sit on a ring of ``N = 2^d`` identifiers.  Node ``a`` keeps ``d``
fingers, the *i*-th at clockwise distance in ``[2^(d-i), 2^(d-i+1))``.
The paper analyses the *randomised* variant, where the distance is drawn
uniformly from that range; the classic deterministic variant (finger at
exactly distance ``2^(d-i)``) is also provided and used by ablation
experiments.

Routing is greedy on the ring: the message is always forwarded to the alive
finger that gets closest to the destination *without overshooting it*.
Unlike the tree and XOR geometries, progress made by a suboptimal hop is
preserved by later hops — this is why the paper's analytical ring curve is
only a bound (an upper bound on failed paths / lower bound on routability),
a gap quantified by experiment FIG6B.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..exceptions import TopologyError
from ..sim.kernelspec import KernelSpec, register_kernel_spec
from ..validation import check_identifier_length
from .identifiers import IdentifierSpace, ring_distance
from .network import Overlay, make_rng, register_overlay
from .routing import FAILURE_CODES, FailureReason, RouteResult, RouteTrace

__all__ = ["ChordOverlay", "FINGER_MODES", "make_ring_spec"]

FINGER_MODES = ("randomized", "deterministic")


@register_overlay
class ChordOverlay(Overlay):
    """Static Chord (ring) overlay over a fully populated ``d``-bit space."""

    geometry_name = "ring"
    system_name = "Chord"

    def __init__(self, space: IdentifierSpace, tables: np.ndarray, finger_mode: str) -> None:
        super().__init__(space)
        if tables.shape != (space.size, space.d):
            raise TopologyError(
                f"ring routing tables have shape {tables.shape}, expected {(space.size, space.d)}"
            )
        if finger_mode not in FINGER_MODES:
            raise TopologyError(f"unknown finger mode {finger_mode!r}; expected one of {FINGER_MODES}")
        self._tables = tables
        self._finger_mode = finger_mode

    @classmethod
    def build(
        cls,
        d: int,
        *,
        finger_mode: str = "randomized",
        rng: Optional[np.random.Generator] = None,
        seed: Optional[int] = None,
    ) -> "ChordOverlay":
        """Build the overlay; ``finger_mode`` selects randomised or classic fingers.

        Either way, column ``k`` of every node's table (finger ``k + 1``)
        lies at clockwise offset ``[2^(d-1-k), 2^(d-k))`` from the node.
        The ring spec's column order relies on that bucket property: no
        finger before the remaining distance's bucket can be used, and each
        later one makes strictly less progress.
        """
        d = check_identifier_length(d)
        if finger_mode not in FINGER_MODES:
            raise TopologyError(f"unknown finger mode {finger_mode!r}; expected one of {FINGER_MODES}")
        space = IdentifierSpace(d)
        n = space.size
        generator = make_rng(rng, seed)
        identifiers = np.arange(n, dtype=np.int64)
        tables = np.empty((n, d), dtype=np.int64)
        for finger in range(1, d + 1):
            low = 1 << (d - finger)
            high = min(n, 1 << (d - finger + 1))
            if finger_mode == "deterministic" or high - low <= 1:
                offsets = np.full(n, low, dtype=np.int64)
            else:
                offsets = generator.integers(low, high, size=n, dtype=np.int64)
            tables[:, finger - 1] = (identifiers + offsets) % n
        return cls(space, tables, finger_mode)

    @property
    def finger_mode(self) -> str:
        """Which finger construction was used (``"randomized"`` or ``"deterministic"``)."""
        return self._finger_mode

    def finger(self, node: int, index: int) -> int:
        """The ``index``-th finger of ``node`` (1-based; finger 1 reaches roughly half-way around)."""
        node = self._space.validate(node)
        if index < 1 or index > self.d:
            raise TopologyError(f"finger index {index} outside 1..{self.d}")
        return int(self._tables[node, index - 1])

    def neighbors(self, node: int) -> Tuple[int, ...]:
        """The finger table of ``node``: successors at power-of-two ring offsets."""
        node = self._space.validate(node)
        return tuple(int(v) for v in self._tables[node])

    def _build_neighbor_array(self) -> np.ndarray:
        """Finger tables (column *i* is the finger *i + 1* entry)."""
        return self._tables

    def route(self, source: int, destination: int, alive: np.ndarray) -> RouteResult:
        """Greedy clockwise routing without overshooting the destination."""
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
            for neighbor in self._tables[current]:
                neighbor = int(neighbor)
                if not alive[neighbor]:
                    continue
                progress = ring_distance(current, neighbor, n)
                if progress == 0 or progress > remaining:
                    continue  # no progress, or it would overshoot the destination
                distance_after = remaining - progress
                if distance_after < best_remaining:
                    best_remaining = distance_after
                    best_neighbor = neighbor
            if best_neighbor < 0:
                return trace.failure(FailureReason.DEAD_END)
            trace.advance(best_neighbor)
        return trace.success()


# --------------------------------------------------------------------- #
# kernel spec — the one batch declaration of greedy clockwise routing,
# shared by every ring-flavoured geometry (Chord here, Symphony in
# symphony.py) via :func:`make_ring_spec`.
# --------------------------------------------------------------------- #
def _ring_key(ops):
    """Clockwise distance from the candidate to the destination, ``(dst - neighbor) mod 2^d``.

    For a usable candidate — progress ``p = (neighbor - cur) mod 2^d`` with
    ``1 <= p <= r``, ``r = (dst - cur) mod 2^d`` the remaining distance —
    that is exactly the distance left after the hop, ``r - p < r``.  Every
    unusable candidate gets a key of at least ``r``: a dead neighbour
    arrives as ``cur`` itself (progress 0, key ``r``), and one that would
    overshoot (``p > r``) wraps around to ``2^d + r - p >= r + 1``.  So an unusable
    candidate never beats a usable one, and :func:`_ring_accept` takes a
    winner iff its key is below ``r``: the same choice as the scalar oracle
    with no usability test in the key.

    The modulus is a power of two, so ``x mod 2^d`` is ``x & (2^d - 1)``
    (two's complement makes that hold for negative differences too).
    Same-cell differences stay inside ``(-modulus, modulus)`` on a
    disjoint-union view, so the physical modulus recovers the clockwise
    distances.  Ties among usable keys imply the same neighbour identifier,
    so the drivers' first-minimum rule reproduces the scalar
    first-strict-improvement scan.
    """

    def key(consts, neighbor, cur, dst):
        return (dst - neighbor) & consts[1]

    return key


def _ring_accept(ops):
    """Some usable neighbour existed iff the winning key undercuts the remaining distance."""

    def accept(consts, best_key, cur, dst):
        return best_key < ((dst - cur) & consts[1])

    return accept


def _finger_first_column(ops):
    """The finger bucket holding the remaining distance: the only one that may overshoot.

    Column ``k`` of a Chord table holds the finger at clockwise offset in
    ``[2^(d-1-k), 2^(d-k))`` (:meth:`ChordOverlay.build`).  With ``b`` the
    bit length of the remaining distance, columns before ``d - b`` overshoot
    and column ``d - b`` may, so the scan starts there.
    """
    bit_length = ops.bit_length

    def first_column(consts, cur, dst):
        return consts[0] - bit_length((dst - cur) & consts[1])

    return first_column


def _finger_next_column(ops):
    """The next finger bucket: past the first, offsets shrink and never overshoot,
    so each later column makes strictly less progress than the one before."""

    def next_column(consts, cur, dst, column):
        return column + 1

    return next_column


def make_ring_spec(geometry: str, *, finger_buckets: bool = False) -> KernelSpec:
    """The greedy-clockwise :class:`KernelSpec` under ``geometry``'s label.

    ``finger_buckets`` declares that column ``k`` of every table row lies at
    clockwise offset ``[2^(d-1-k), 2^(d-k))`` (Chord's finger construction),
    so the scan may stop at the first usable column in column order.  Tables
    without that property (Symphony's harmonic shortcuts) keep the full scan.
    """
    order = {}
    if finger_buckets:
        order = {"first_column": _finger_first_column, "next_column": _finger_next_column}
    return KernelSpec(
        geometry=geometry,
        kind="scan",
        fail_code=FAILURE_CODES[FailureReason.DEAD_END],
        key=_ring_key,
        accept=_ring_accept,
        **order,
    )


register_kernel_spec(make_ring_spec(ChordOverlay.geometry_name, finger_buckets=True))
