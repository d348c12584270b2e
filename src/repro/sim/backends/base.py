"""Kernel-backend protocol shared by every routing-kernel implementation.

A *kernel backend* owns the innermost layer of the batch engine: given an
:class:`~repro.dht.network.Overlay`, a batch of (source, destination) pairs
as int32 virtual identifiers ``cell * 2^d + node`` and the flattened
survival-mask stack they index, it advances every pair hop by hop until
termination over the overlay's own int32 table
(:meth:`~repro.dht.network.Overlay.neighbor_array`) and reports the
per-pair ``(succeeded, hops, failure_code)`` triples.  Everything above the
backend — argument validation, mask stacking, the virtual identifiers,
sweep fan-out — is backend-agnostic and lives in :mod:`repro.sim.engine`.

The contract every backend must honour is the repo's routing invariant:
**bit-identical outcomes, pair-for-pair, to the scalar
:meth:`Overlay.route` oracle** (and hence to every other backend).  A
backend may reorganise *how* the hops are computed (vectorized NumPy passes,
JIT-compiled per-pair loops, …) but never *what* they compute — and since
the KernelSpec refactor it may not *define* what they compute either: the
routing rules live in :mod:`repro.sim.kernelspec` registrations, one per
geometry, and backends only execute them.  The conformance harness
(:mod:`repro.sim.conformance`, driven by ``tests/test_kernelspec.py``)
enforces the invariant across every registered geometry.
"""

from __future__ import annotations

import abc
import sys
from typing import Tuple

import numpy as np

from ...dht.routing import FAILURE_CODES, FailureReason

__all__ = [
    "SUCCESS_CODE",
    "DEAD_END_CODE",
    "REQUIRED_FAILED_CODE",
    "HOP_LIMIT_CODE",
    "KernelBackend",
    "pack_alive_words",
]

#: Integer failure codes shared by every backend (the
#: :data:`repro.dht.routing.FAILURE_CODES` encoding).
SUCCESS_CODE = FAILURE_CODES[FailureReason.NONE]
DEAD_END_CODE = FAILURE_CODES[FailureReason.DEAD_END]
REQUIRED_FAILED_CODE = FAILURE_CODES[FailureReason.REQUIRED_NEIGHBOR_FAILED]
HOP_LIMIT_CODE = FAILURE_CODES[FailureReason.HOP_LIMIT_EXCEEDED]


def pack_alive_words(alive: np.ndarray) -> np.ndarray:
    """Pack a boolean survival vector into uint64 aliveness words.

    Bit ``i % 64`` of word ``i // 64`` is set iff ``alive[i]``; trailing pad
    bits of the last word are zero (i.e. out-of-range identifiers read as
    dead, which no correct kernel ever queries).
    """
    if sys.byteorder == "little":
        bits = np.packbits(alive, bitorder="little")
        pad = (-bits.size) % 8
        if pad:
            bits = np.concatenate([bits, np.zeros(pad, dtype=np.uint8)])
        return bits.view(np.uint64)
    # Portable fallback for big-endian hosts (packbits + view assumes the
    # byte order of the uint64 words matches the bit packing).
    words = np.zeros((alive.size + 63) // 64, dtype=np.uint64)
    set_indices = np.flatnonzero(alive)
    np.bitwise_or.at(
        words, set_indices >> 6, np.uint64(1) << (set_indices & 63).astype(np.uint64)
    )
    return words


class KernelBackend(abc.ABC):
    """One implementation of the per-hop routing kernels.

    Subclasses implement :meth:`prepare` (bind one survival vector for a
    routed batch) and :meth:`run` (route one chunk of pairs to termination),
    and may override :meth:`update` (rebind a prepared state to another
    vector).  The engine's routing driver decides how a batch is chunked
    (``repro.sim.engine._dispatch_stack``); a backend only executes chunks.
    """

    #: Registry name ("numpy", "numba", ...).
    name: str = ""

    @abc.abstractmethod
    def prepare(self, overlay, alive: np.ndarray):
        """Bind the routing state for one batch.

        Called once per ``(overlay, flattened mask stack)`` batch; the
        returned opaque state (the NumPy backend's bound step, the Numba
        backend's packed aliveness words) is threaded into every :meth:`run`
        chunk.
        """

    @abc.abstractmethod
    def run(
        self, overlay, state, sources: np.ndarray, destinations: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Route one chunk of pairs to termination.

        Returns the aligned per-pair arrays ``(succeeded, hops,
        failure_codes)`` with the exact scalar-oracle semantics: ``hops``
        counts forwarding steps actually taken (the failed hop of a dropped
        message is not counted) and ``failure_codes`` uses the
        :data:`repro.dht.routing.FAILURE_CODES` encoding.
        """

    def update(self, overlay, state, alive: np.ndarray):
        """Rebind a state from :meth:`prepare` on this overlay to another survival vector.

        Specs hold no mask-dependent state, so rebinding does no table work;
        the returned state routes exactly as a fresh :meth:`prepare` under
        ``alive``, which is what this base implementation returns.
        """
        return self.prepare(overlay, alive)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r})"
