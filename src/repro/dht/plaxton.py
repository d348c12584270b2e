"""Plaxton-tree overlay simulator (the paper's *tree* geometry).

Each node keeps one neighbour per bit position: the *i*-th neighbour shares
the node's first ``i - 1`` bits and differs on the *i*-th bit.  Routing from
a source to a destination repeatedly forwards to the neighbour that corrects
the current highest-order differing bit; if that single neighbour has
failed, the message is dropped — the tree geometry offers no alternative
path, which is exactly why the paper finds it unscalable.

Two table modes are provided:

``"matched-suffix"`` (default)
    The *i*-th neighbour of ``x`` is ``x`` with bit *i* flipped and every
    other bit unchanged.  This is the geometric abstraction used by the
    paper's analysis (and by Gummadi et al.): the hop distance between two
    nodes equals their Hamming distance, so ``n(h) = C(d, h)`` and
    ``p(h, q) = (1 - q)^h``.

``"random-suffix"``
    The classic Plaxton/PRR construction: the *i*-th neighbour matches the
    node's first ``i - 1`` bits, differs on bit *i*, and has uniformly
    random lower-order bits.  Routing still corrects one prefix bit per hop
    but the hop count to a destination is no longer exactly the Hamming
    distance.  Used by the ablation experiments.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..exceptions import TopologyError
from ..sim.kernelspec import KernelSpec, register_kernel_spec
from ..validation import check_identifier_length
from .identifiers import IdentifierSpace, highest_differing_bit
from .network import Overlay, make_rng, register_overlay
from .routing import FAILURE_CODES, FailureReason, RouteResult, RouteTrace

__all__ = ["PlaxtonOverlay", "TABLE_MODES"]

TABLE_MODES = ("matched-suffix", "random-suffix")


@register_overlay
class PlaxtonOverlay(Overlay):
    """Static Plaxton-tree overlay over a fully populated ``d``-bit space."""

    geometry_name = "tree"
    system_name = "Plaxton"

    def __init__(self, space: IdentifierSpace, tables: np.ndarray, table_mode: str) -> None:
        if tables.shape != (space.size, space.d):
            raise TopologyError(
                f"tree routing tables have shape {tables.shape}, expected {(space.size, space.d)}"
            )
        if table_mode not in TABLE_MODES:
            raise TopologyError(f"unknown table mode {table_mode!r}; expected one of {TABLE_MODES}")
        super().__init__(space, tables)
        self._table_mode = table_mode

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    @classmethod
    def build(
        cls,
        d: int,
        *,
        table_mode: str = "matched-suffix",
        rng: Optional[np.random.Generator] = None,
        seed: Optional[int] = None,
    ) -> "PlaxtonOverlay":
        """Build the overlay for a ``d``-bit identifier space.

        ``rng``/``seed`` only matter in ``"random-suffix"`` mode, where the
        lower-order bits of each table entry are drawn uniformly at random.
        """
        d = check_identifier_length(d)
        if table_mode not in TABLE_MODES:
            raise TopologyError(f"unknown table mode {table_mode!r}; expected one of {TABLE_MODES}")
        space = IdentifierSpace(d)
        n = space.size
        generator = make_rng(rng, seed)
        identifiers = np.arange(n, dtype=np.int64)
        tables = np.empty((n, d), dtype=np.int32)
        for position in range(1, d + 1):
            flip_mask = 1 << (d - position)
            flipped = identifiers ^ flip_mask
            if table_mode == "matched-suffix":
                tables[:, position - 1] = flipped
            else:
                low_bits = d - position
                if low_bits == 0:
                    tables[:, position - 1] = flipped
                else:
                    keep_mask = ~((1 << low_bits) - 1)
                    random_suffix = generator.integers(0, 1 << low_bits, size=n, dtype=np.int64)
                    tables[:, position - 1] = (flipped & keep_mask) | random_suffix
        return cls(space, tables, table_mode)

    # ------------------------------------------------------------------ #
    # overlay API
    # ------------------------------------------------------------------ #
    @property
    def table_mode(self) -> str:
        """Which table construction was used (``"matched-suffix"`` or ``"random-suffix"``)."""
        return self._table_mode

    def neighbor_for_bit(self, node: int, position: int) -> int:
        """Routing-table entry of ``node`` for bit ``position`` (1-based from the MSB)."""
        node = self._space.validate(node)
        if position < 1 or position > self.d:
            raise TopologyError(f"bit position {position} outside 1..{self.d}")
        return int(self._table[node, position - 1])

    def neighbors(self, node: int) -> Tuple[int, ...]:
        """One prefix-correcting entry per digit position of ``node``."""
        node = self._space.validate(node)
        return tuple(int(v) for v in self._table[node])

    def route(self, source: int, destination: int, alive: np.ndarray) -> RouteResult:
        """Correct the highest-order differing bit each hop; drop if that neighbour failed."""
        alive = self._check_route_arguments(source, destination, alive)
        trace = RouteTrace(source, destination, hop_limit=self.hop_limit())
        while trace.current != destination:
            if trace.hop_budget_exhausted:
                return trace.failure(FailureReason.HOP_LIMIT_EXCEEDED)
            position = highest_differing_bit(trace.current, destination, self.d)
            next_hop = int(self._table[trace.current, position - 1])
            if not alive[next_hop]:
                return trace.failure(FailureReason.REQUIRED_NEIGHBOR_FAILED)
            trace.advance(next_hop)
        return trace.success()


# --------------------------------------------------------------------- #
# kernel spec — the one batch declaration of the tree routing rule
# --------------------------------------------------------------------- #
def _tree_advance(ops):
    """Forward to the single neighbour correcting the leftmost differing bit."""
    # Primitives become plain closure variables: both executors resolve them
    # at factory time (Numba compiles closed-over dispatchers directly).
    bit_length = ops.bit_length
    alive_at = ops.alive

    def advance(consts, table, alive, cur, dst):
        local = cur & consts[1]
        # Column of the highest-order differing bit: position - 1 =
        # d - bit_length(cur ^ dst); bit_length >= 1 while routing.
        position = bit_length(cur ^ dst)
        next_hop = table[local, consts[0] - position] + (cur - local)
        return next_hop, alive_at(alive, next_hop)

    return advance


register_kernel_spec(
    KernelSpec(
        geometry=PlaxtonOverlay.geometry_name,
        kind="direct",
        fail_code=FAILURE_CODES[FailureReason.REQUIRED_NEIGHBOR_FAILED],
        advance=_tree_advance,
    )
)
