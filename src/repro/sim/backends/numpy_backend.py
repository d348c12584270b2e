"""NumPy kernel backend: the vectorized executor of the KernelSpec layer.

This backend contains **no per-geometry routing logic**.  Every routing
rule lives in its geometry's :class:`~repro.sim.kernelspec.KernelSpec`
(registered next to the scalar oracle in :mod:`repro.dht`); this module
merely executes specs vectorized: :meth:`NumpyBackend.prepare` binds the
spec's per-hop step (:func:`~repro.sim.kernelspec.vector_step`) to one
survival vector, and :meth:`NumpyBackend.run` iterates it over the active
pair set one hop at a time.

Ring, XOR and hypercube scans are *ordered*: their specs declare a column
order (their tables are sorted by distance bucket, or by flipped bit), so
a hop first runs passes that read one raw entry per pending pair in that
order and settle every pair whose entry is accepted and alive, or whose
order runs out; the pairs still pending get the full-row ``argmin`` scan
over rows with dead entries replaced by the row's own id.  The step plans its
passes from its pair count and the alive share of their cells (see
:func:`~repro.sim.kernelspec._planned_passes`), so at high failure rates,
where few pairs settle per pass, and on small steps, where a pass's fixed
cost dominates, it goes straight to the full scan.

Masking costs what routing visits: each hop masks only the rows it gathers
(an ordered scan's passes read single entries and their aliveness), so a
batch never pays for a row it does not visit.

Every step routes under one flat survival vector, indexed by the same
identifiers the pairs carry: the routing driver
(``repro.sim.engine._dispatch_stack``) hands over the flattened mask stack
and int32 virtual identifiers ``cell * n_nodes + node``, and specs read the
overlay's own int32 table at ``cur & (2^d - 1)`` and add the cell base
back, so a single mask is simply a stack of one.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..kernelspec import get_kernel_spec, vector_step
from .base import HOP_LIMIT_CODE, SUCCESS_CODE, KernelBackend

__all__ = ["NumpyBackend"]


class NumpyBackend(KernelBackend):
    """The vectorized hop loop: advance all active pairs one hop per iteration.

    A pair is active from iteration 0 until it terminates and hops exactly
    once per iteration it is active, so every active pair has taken
    ``iteration`` hops — the scalar path's per-step hop-budget check reduces
    to one counter comparison.  The loop carries the active pairs' indices,
    current nodes and destinations already compacted, and compacts them
    once per hop in which some pair terminates; that hop also writes every
    active pair's hop count, so a pair's last write is the one at its end
    (arrival, drop or budget exhaustion).  Success is read off the failure
    codes at the end, and an arrival's count then gains the hop it arrived by.
    """

    name = "numpy"

    def prepare(self, overlay, alive: np.ndarray):
        """The spec's step bound to this mask; masking happens per hop."""
        return vector_step(get_kernel_spec(overlay.geometry_name), overlay, alive)

    def update(self, overlay, state, alive: np.ndarray):
        """Bind the step to another mask: a fresh :meth:`prepare`."""
        return self.prepare(overlay, alive)

    def run(
        self, overlay, state, sources: np.ndarray, destinations: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Advance every pair one hop per vectorized step until all terminate."""
        n_pairs = sources.size
        hop_limit = overlay.hop_limit()
        hops = np.zeros(n_pairs, dtype=np.int64)
        codes = np.full(n_pairs, SUCCESS_CODE, dtype=np.int8)
        active = np.arange(n_pairs, dtype=np.int64)  # end-points differ by precondition
        cur, dst = sources, destinations
        iteration = 0

        while active.size:
            if iteration >= hop_limit:
                # The scalar path checks the budget before every forwarding
                # step; the failed hop is not counted, so hops stays at the
                # limit.
                codes[active] = HOP_LIMIT_CODE
                hops[active] = iteration
                break
            cur, ok, fail_code = state(cur, dst)
            keep = np.flatnonzero(ok & (cur != dst))
            if keep.size < active.size:
                # A pair's hop count is last written at the hop it ends.
                hops[active] = iteration
                codes[active[~ok]] = fail_code
                active, cur, dst = active.take(keep), cur.take(keep), dst.take(keep)
            iteration += 1

        # Every pair ends exactly once: arrived, dropped or out of budget.
        # Only an arrival counts the hop it ended at.
        succeeded = codes == SUCCESS_CODE
        hops += succeeded
        return succeeded, hops, codes
