"""JIT kernel backend: the per-pair executor of the KernelSpec layer
(Numba, optional ``pip install .[fast]``).

Like the NumPy backend, this module contains **no per-geometry routing
logic**.  Each geometry's rule lives in its registered
:class:`~repro.sim.kernelspec.KernelSpec`; this executor instantiates the
spec's element-wise functions with the *scalar* primitive set
(:data:`repro.sim.kernelspec.SCALAR_OPS`), wraps them in the generic
per-pair step and hop loop (:func:`~repro.sim.kernelspec.scalar_step`,
:func:`~repro.sim.kernelspec.make_pair_loop`), and — when Numba is
importable — compiles the whole chain with ``@njit``.  Each pair is then
routed from source to termination inside one compiled loop over the
overlay's own int32 table, with aliveness looked up in bit-packed uint64
words: no per-hop Python dispatch, no ``(batch, degree)`` temporaries.  The loop
masks each candidate as it reads it.

Numba is an optional extra, and the loops are deliberately buildable
without it: ``python_loop_backend()`` returns the *same* spec functions and
the *same* generic loops as plain Python.  That property is what keeps the
backend testable everywhere — the conformance harness runs the uncompiled
loops against the scalar oracle and the NumPy backend on every CI leg, so
the exact code Numba compiles is property-tested with or without Numba.
(The uncompiled loops are orders of magnitude slower than the NumPy backend
and are never selected by the registry — they exist for verification only.)

The hop bookkeeping is the shared scalar-oracle contract: ``hops`` counts
forwarding steps actually taken, the failed hop of a dropped message is not
counted, and the hop budget is checked before every forwarding step.
"""

from __future__ import annotations

import importlib.util
from typing import Dict, Tuple

import numpy as np

from ..kernelspec import (
    SCALAR_OPS,
    KernelSpec,
    Ops,
    get_kernel_spec,
    make_pair_loop,
    routing_consts,
    scalar_step,
)
from .base import (
    HOP_LIMIT_CODE,
    SUCCESS_CODE,
    KernelBackend,
    pack_alive_words,
)

__all__ = ["NumbaBackend", "NUMBA_AVAILABLE", "python_loop_backend"]

#: Whether the optional Numba extra is installed.  Detected via find_spec so
#: importing this module (and hence ``repro.sim``) never pays Numba's ~1s
#: import cost; the actual import — and the loop compilation it enables —
#: happens lazily, the first time a JIT backend is constructed.
NUMBA_AVAILABLE = importlib.util.find_spec("numba") is not None


_NJIT_OPS = None


def _njit_ops() -> Ops:  # pragma: no cover - exercised only on the Numba CI leg
    """The scalar primitive set compiled with ``@njit``, once, on first use.

    These wrap the *same* function objects as :data:`SCALAR_OPS`, so the
    compiled primitives are exactly the ones the uncompiled parity legs
    exercise.
    """
    global _NJIT_OPS
    if _NJIT_OPS is None:
        import numba

        inline = numba.njit(inline="always")
        _NJIT_OPS = Ops(
            where=inline(SCALAR_OPS.where),
            bit_length=inline(SCALAR_OPS.bit_length),
            alive=inline(SCALAR_OPS.alive),
        )
    return _NJIT_OPS


def _build_pair_loop(spec: KernelSpec, jit: bool):
    """The per-pair loop for ``spec``: the generic driver closed over the
    spec's scalar step, compiled when ``jit`` is set."""
    if not jit:
        return make_pair_loop(scalar_step(spec), HOP_LIMIT_CODE, spec.fail_code)
    import numba  # pragma: no cover - exercised only on the Numba CI leg

    step = scalar_step(spec, _njit_ops(), numba.njit(inline="always"))
    return numba.njit(nogil=True)(make_pair_loop(step, HOP_LIMIT_CODE, spec.fail_code))


class NumbaBackend(KernelBackend):
    """Per-pair hop loops over the int32 neighbour table and uint64 aliveness words.

    ``prepare`` resolves the geometry's spec, builds (and memoizes) its
    compiled loop and packs the survival vector into uint64 words; the loop
    reads the overlay's own table.  ``run`` hands whole chunks to one loop
    call — the only Python-level work per chunk is the call itself.
    """

    name = "numba"

    def __init__(self, jit: bool = True) -> None:
        if jit and not NUMBA_AVAILABLE:
            raise ImportError(
                "the numba backend requires the optional 'fast' extra "
                "(pip install 'repro-rcm[fast]')"
            )
        self._jit = bool(jit)
        self._loops: Dict[KernelSpec, object] = {}
        if not jit:
            # Honest metadata: results are identical, but speed is not.
            self.name = "numba-python"

    @property
    def jit_enabled(self) -> bool:
        """True when the loops run compiled (False only for the test-only variant)."""
        return self._jit

    def _loop_for(self, spec: KernelSpec):
        loop = self._loops.get(spec)
        if loop is None:
            loop = _build_pair_loop(spec, self._jit)
            self._loops[spec] = loop
        return loop

    def prepare(self, overlay, alive: np.ndarray):
        """Resolve the spec, build its loop and pack the aliveness words."""
        spec = get_kernel_spec(overlay.geometry_name)
        consts = routing_consts(overlay)
        return spec, self._loop_for(spec), consts, overlay.neighbor_array(), pack_alive_words(alive)

    def update(self, overlay, state, alive: np.ndarray):
        """Rebind a prepared state to another mask: only the aliveness words change."""
        return (*state[:4], pack_alive_words(alive))

    def run(
        self, overlay, state, sources: np.ndarray, destinations: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Route all pairs through the compiled (or plain-Python) per-pair hop loop."""
        _, loop, consts, table, words = state
        sources = np.ascontiguousarray(sources, dtype=table.dtype)
        destinations = np.ascontiguousarray(destinations, dtype=table.dtype)
        n_pairs = sources.size
        succeeded = np.zeros(n_pairs, dtype=bool)
        hops = np.zeros(n_pairs, dtype=np.int64)
        codes = np.full(n_pairs, SUCCESS_CODE, dtype=np.int8)
        loop(consts, table, words, sources, destinations, overlay.hop_limit(), succeeded, hops, codes)
        return succeeded, hops, codes


def python_loop_backend() -> NumbaBackend:
    """The uncompiled-loop variant, for parity testing in any environment.

    Runs the exact spec functions and generic loops Numba would compile, as
    plain Python — far too slow for real sweeps, never returned by the
    registry.
    """
    return NumbaBackend(jit=False)
