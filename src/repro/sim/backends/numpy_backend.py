"""NumPy kernel backend: the vectorized executor of the KernelSpec layer.

This backend contains **no per-geometry routing logic**.  Every routing
rule lives in its geometry's :class:`~repro.sim.kernelspec.KernelSpec`
(registered next to the scalar oracle in :mod:`repro.dht`); this module
merely executes specs vectorized: :meth:`NumpyBackend.prepare` binds the
spec's masked-row and per-hop functions
(:func:`~repro.sim.kernelspec.vector_rows`,
:func:`~repro.sim.kernelspec.vector_step`) to one survival vector, and
:meth:`NumpyBackend.run` iterates the step over the active pair set one hop
at a time.

Masking costs what routing visits.  Each hop masks only the rows it
gathers; once the rows gathered so far plus the next hop's active set would
reach the table's row count, the prepared state builds the whole masked
table once and every later hop — of this chunk and of every later chunk
routed under the same state — gathers from it instead.  That crossover is
the observed break-even of the two forms, not a tuned constant: a sparse
batch (a churn step, a large sweep group) never pays for rows it does not
visit, and a dense one (small overlays, many pairs) pays for each row once.
Both forms apply the same row function, so the choice cannot change any
outcome.

Every step routes under one flat survival vector, indexed by the same
identifiers the pairs carry.  The fused multi-cell path reuses the executor
unchanged by routing over a *disjoint union* of the overlay's cells (see
``repro.sim.engine._UnionOverlayView``): virtual identifier
``cell * n_nodes + node`` and a flattened mask stack; specs read the
physical table at ``cur & (2^d - 1)`` and add the cell base back, so a
single mask is simply a stack of one.
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple

import numpy as np

from ..kernelspec import KernelSpec, get_kernel_spec, vector_rows, vector_step
from .base import HOP_LIMIT_CODE, SUCCESS_CODE, KernelBackend

__all__ = ["NumpyBackend", "KERNEL_BLOCK"]


#: Active pairs handed to a step kernel per call.  Kernels allocate a handful
#: of ``(batch, degree)`` temporaries per hop; blocking the batch keeps those
#: resident in cache even when a fused multi-cell batch is hundreds of
#: thousands of pairs wide.  Kernels are row-independent, so blocking cannot
#: change any outcome.
KERNEL_BLOCK = 2048


def _masked_table(rows: Callable, n_rows: int, dtype) -> np.ndarray:
    """Every identifier's masked row, built once in cache-sized blocks."""
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


class _PreparedMask:
    """One survival vector's step function plus its masked rows, computed on demand."""

    def __init__(self, spec: KernelSpec, overlay, alive: np.ndarray) -> None:
        self.spec = spec
        self.step = vector_step(spec, overlay, alive)
        self._rows = vector_rows(spec, overlay, alive)
        self._dtype = overlay.neighbor_array().dtype
        self._n_rows = alive.size
        self._gathered = 0
        self._table: Optional[np.ndarray] = None

    def rows_for_hop(self, n_active: int) -> Optional[Callable]:
        """The masked-row function the next hop over ``n_active`` pairs reads.

        Masks the gathered rows until they, plus this hop, would reach the
        row count; from then on, a gather from the full masked table.
        """
        if self._rows is None:
            return None
        if self._table is None:
            if self._gathered + n_active < self._n_rows:
                self._gathered += n_active
                return self._rows
            self._table = _masked_table(self._rows, self._n_rows, self._dtype)
        return self._table.__getitem__


def _step_blocked(step, rows, cur: np.ndarray, dst: np.ndarray):
    """Run one hop's step over cache-sized blocks of the active set."""
    size = cur.size
    if size <= KERNEL_BLOCK:
        return step(cur, dst, None if rows is None else rows(cur))
    next_hop = np.empty(size, dtype=cur.dtype)
    ok = np.empty(size, dtype=bool)
    fail_code = SUCCESS_CODE
    for start in range(0, size, KERNEL_BLOCK):
        stop = start + KERNEL_BLOCK
        block = cur[start:stop]
        block_next, block_ok, fail_code = step(
            block, dst[start:stop], None if rows is None else rows(block)
        )
        next_hop[start:stop] = block_next
        ok[start:stop] = block_ok
    return next_hop, ok, fail_code


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
            next_hop, ok, fail_code = _step_blocked(
                state.step,
                state.rows_for_hop(active.size),
                current[active],
                destinations[active],
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
