"""NumPy kernel backend: the vectorized executor of the KernelSpec layer.

This backend contains **no per-geometry routing logic**.  Every routing
rule lives in its geometry's :class:`~repro.sim.kernelspec.KernelSpec`
(registered next to the scalar oracle in :mod:`repro.dht`); this module
merely executes specs vectorized: :meth:`NumpyBackend.prepare` binds the
spec's masked-row, masked-entry and per-hop functions
(:func:`~repro.sim.kernelspec.vector_rows`,
:func:`~repro.sim.kernelspec.vector_entries`,
:func:`~repro.sim.kernelspec.vector_step`) to one survival vector, and
:meth:`NumpyBackend.run` iterates the step over the active pair set one hop
at a time.

Ring and XOR scans are *ordered*: their specs declare a column order
(their tables are sorted by distance bucket), so a hop first runs passes
that read one masked entry per pending pair in that order and settle
every pair whose column is accepted or whose order runs out; the pairs
still pending get the full-row ``argmin`` scan.  The step plans its
passes from its pair count, the alive share of their cells and whether it
reads the full masked table (see
:func:`~repro.sim.kernelspec._planned_passes`), so at high failure rates,
where few pairs settle per pass, on small steps, where a pass's fixed cost
dominates, and on most steps past the crossover, where the full scan is a
plain gather, it goes straight to the full scan.

Masking costs what routing visits.  Each hop masks only the rows it
gathers; once the rows gathered so far plus the next hop's active set would
reach the table's row count, the prepared state builds the whole masked
table once and every later hop — of this chunk and of every later chunk
routed under the same state — gathers from it instead.  That crossover is
the observed break-even of the two forms, not a tuned constant: a sparse
batch (a churn window, a large sweep group) never pays for rows it does not
visit, and a dense one (small overlays, many pairs) pays for each row once.
Both forms apply the same row function, so the choice cannot change any
outcome.  An ordered scan's passes read single entries of the same rows:
masked per pass before the table exists, gathered from it afterwards.

Every step routes under one flat survival vector, indexed by the same
identifiers the pairs carry.  The fused multi-cell path reuses the executor
unchanged by routing over a *disjoint union* of the overlay's cells (see
``repro.sim.engine._UnionOverlayView``): virtual identifier
``cell * n_nodes + node`` and a flattened mask stack; specs read the
physical table at ``cur & (2^d - 1)`` and add the cell base back, so a
single mask is simply a stack of one.
"""

from __future__ import annotations

from typing import Callable, Tuple

import numpy as np

from ..kernelspec import (
    KernelSpec,
    MaskedReaders,
    get_kernel_spec,
    vector_entries,
    vector_rows,
    vector_step,
)
from .base import HOP_LIMIT_CODE, SUCCESS_CODE, KernelBackend

__all__ = ["NumpyBackend", "KERNEL_BLOCK"]


#: Rows masked per call while the full masked table is built: the row
#: function's ``(rows, degree)`` temporaries stay cache-sized even for a
#: union table of millions of rows.  Rows are independent, so blocking
#: cannot change any entry.  A hop steps its whole active set at once; the
#: routing driver's pair chunk (``repro.sim.engine._MAX_BATCH_PAIRS``) caps
#: those per-hop temporaries.
KERNEL_BLOCK = 2048


def _masked_table(rows: Callable, n_rows: int, dtype) -> np.ndarray:
    """Every identifier's masked row, built once in :data:`KERNEL_BLOCK`-row blocks."""
    ids = np.arange(n_rows, dtype=dtype)
    first = rows(ids[:KERNEL_BLOCK])
    table = np.empty((n_rows,) + first.shape[1:], dtype=first.dtype)
    table[:KERNEL_BLOCK] = first
    for start in range(KERNEL_BLOCK, n_rows, KERNEL_BLOCK):
        table[start : start + KERNEL_BLOCK] = rows(ids[start : start + KERNEL_BLOCK])
    # Shared by every later hop and chunk: a buggy kernel must fault loudly
    # rather than silently corrupt it.
    table.setflags(write=False)
    return table


def _table_entries(table: np.ndarray) -> Callable:
    """The masked-entry function reading the full masked table."""
    flat, degree = table.reshape(-1), table.shape[1]

    def entries(ids: np.ndarray, columns: np.ndarray) -> np.ndarray:
        return flat[ids * degree + columns]

    return entries


class _PreparedMask:
    """One survival vector's step function plus its masked rows, computed on demand."""

    def __init__(self, spec: KernelSpec, overlay, alive: np.ndarray) -> None:
        self.spec = spec
        self.step = vector_step(spec, overlay, alive)
        self._readers = MaskedReaders(
            vector_rows(spec, overlay, alive), vector_entries(spec, overlay, alive), False
        )
        self._dtype = overlay.neighbor_array().dtype
        self._n_rows = alive.size
        self._gathered = 0

    def readers_for_hop(self, n_active: int) -> MaskedReaders:
        """How the next hop over ``n_active`` pairs reads its masked rows.

        Masks the gathered rows (or single entries) until the rows visited,
        plus this hop's, would reach the row count; from then on, gathers
        from the full masked table.
        """
        rows, entries, from_table = self._readers
        if rows is None or from_table:
            return self._readers
        if self._gathered + n_active < self._n_rows:
            self._gathered += n_active
            return self._readers
        table = _masked_table(rows, self._n_rows, self._dtype)
        self._readers = MaskedReaders(
            table.__getitem__, None if entries is None else _table_entries(table), True
        )
        return self._readers


class NumpyBackend(KernelBackend):
    """The vectorized hop loop: advance all active pairs one hop per iteration.

    A pair is active from iteration 0 until it terminates and hops exactly
    once per iteration it is active, so every active pair has taken
    ``iteration`` hops — the scalar path's per-step hop-budget check reduces
    to one counter comparison, and per-pair hop counts are written only at
    the three termination events (arrival, drop, budget exhaustion).
    """

    name = "numpy"

    def prepare(self, overlay, alive: np.ndarray):
        """Bind the spec's step and masked rows to this mask; no table work yet."""
        return _PreparedMask(get_kernel_spec(overlay.geometry_name), overlay, alive)

    def update(self, overlay, state, alive: np.ndarray):
        """Rebind a prepared state to another mask (masking happens per hop)."""
        return _PreparedMask(state.spec, overlay, alive)

    def run(
        self, overlay, state, sources: np.ndarray, destinations: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Advance every pair one hop per vectorized step until all terminate."""
        n_pairs = sources.size
        hop_limit = overlay.hop_limit()
        current = sources.copy()
        hops = np.zeros(n_pairs, dtype=np.int64)
        succeeded = np.zeros(n_pairs, dtype=bool)
        codes = np.full(n_pairs, SUCCESS_CODE, dtype=np.int8)
        active = np.arange(n_pairs, dtype=np.int64)  # end-points differ by precondition
        iteration = 0

        while active.size:
            if iteration >= hop_limit:
                # The scalar path checks the budget before every forwarding
                # step; the failed hop is not counted, so hops stays at the
                # limit.
                codes[active] = HOP_LIMIT_CODE
                hops[active] = iteration
                break
            next_hop, ok, fail_code = state.step(
                current[active], destinations[active], state.readers_for_hop(active.size)
            )
            if not ok.all():
                dropped = active[~ok]
                codes[dropped] = fail_code
                hops[dropped] = iteration  # the failed hop is not counted
                next_hop = next_hop[ok]
                active = active[ok]
            current[active] = next_hop
            arrived = next_hop == destinations[active]
            if arrived.any():
                delivered = active[arrived]
                succeeded[delivered] = True
                hops[delivered] = iteration + 1
                active = active[~arrived]
            iteration += 1

        return succeeded, hops, codes
