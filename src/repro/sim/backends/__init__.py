"""Pluggable kernel backends — the thin executors of the KernelSpec layer.

The engine's innermost layer is pluggable, but since the KernelSpec refactor
the backends contain no routing rules of their own: every geometry declares
its routing step once (:mod:`repro.sim.kernelspec`, registered next to the
scalar oracle in :mod:`repro.dht`) and each backend merely *executes*
registered specs:

* ``numpy`` — the vectorized executor (always available).
* ``numba`` — JIT-compiled per-pair hop loops over the same spec bodies
  (optional extra, ``pip install .[fast]``); ~an order of magnitude faster
  on large sweeps.

``resolve_backend("auto")`` picks the fastest available backend, which is
what every entry point defaults to; ``--backend numpy|numba`` on the CLI (or
the ``backend=`` keyword of the measurement APIs) pins one explicitly.
Requesting ``numba`` where Numba is not installed falls back to ``numpy``
with a warning (emitted once per process) rather than failing — backend
choice can never change any measured number, only wall-clock time, because
every backend is bound by the same invariant: bit-identical outcomes,
pair-for-pair, to the scalar ``Overlay.route`` oracle (property-tested by
the conformance harness, :mod:`repro.sim.conformance`).
"""

from __future__ import annotations

import warnings
from typing import Callable, Dict, Tuple, Union

from ...exceptions import InvalidParameterError
from .base import KernelBackend, pack_alive_words
from .numba_backend import NUMBA_AVAILABLE, NumbaBackend, python_loop_backend
from .numpy_backend import NumpyBackend

__all__ = [
    "KernelBackend",
    "NumpyBackend",
    "NumbaBackend",
    "NUMBA_AVAILABLE",
    "BACKEND_CHOICES",
    "available_backends",
    "check_backend",
    "default_backend_name",
    "resolve_backend",
    "python_loop_backend",
    "pack_alive_words",
]

_NUMPY_BACKEND = NumpyBackend()
# Constructed on first request (constructing it imports Numba and compiles
# the spec loops, which costs ~1s — never pay that for numpy-only runs).
_NUMBA_BACKEND = None


def _numba_backend() -> NumbaBackend:
    global _NUMBA_BACKEND
    if _NUMBA_BACKEND is None:
        _NUMBA_BACKEND = NumbaBackend()
    return _NUMBA_BACKEND


#: The backend registry: name -> (importable now?, constructor, install
#: hint).  Ordered slowest first; ``BACKEND_CHOICES``,
#: ``available_backends()`` and the not-importable fallback warning are all
#: derived from it, so CLI help, validation and diagnostics always reflect
#: the live registry rather than hand-maintained strings.
_BACKEND_REGISTRY: Dict[str, Tuple[Callable[[], bool], Callable[[], KernelBackend], str]] = {
    "numpy": (lambda: True, lambda: _NUMPY_BACKEND, "a core dependency"),
    "numba": (lambda: NUMBA_AVAILABLE, _numba_backend, "pip install 'repro-rcm[fast]'"),
}

#: Valid values of the ``backend`` argument / ``--backend`` CLI option.
BACKEND_CHOICES = ("auto", *_BACKEND_REGISTRY)

#: Whether the unavailable-backend fallback warning has been emitted
#: already.  Resolution happens in every SweepRunner construction and worker
#: dispatch; warning once per process keeps a pinned-but-unavailable backend
#: from spamming one warning per task.
_FALLBACK_WARNED = False


def available_backends() -> Tuple[str, ...]:
    """Names of the backends importable in this environment, slowest first."""
    return tuple(
        name for name, (importable, _, _) in _BACKEND_REGISTRY.items() if importable()
    )


def check_backend(backend: str) -> str:
    """Validate a backend name shared by every measurement entry point."""
    if backend not in BACKEND_CHOICES:
        raise InvalidParameterError(
            f"unknown kernel backend {backend!r}; expected one of {BACKEND_CHOICES}"
        )
    return backend


def _warn_backend_unavailable(name: str, install_hint: str) -> None:
    global _FALLBACK_WARNED
    if _FALLBACK_WARNED:
        return
    _FALLBACK_WARNED = True
    warnings.warn(
        f"the {name} backend was requested but is not importable in this "
        f"environment ({install_hint}); falling back to the numpy backend "
        "(warning emitted once per process)",
        RuntimeWarning,
        stacklevel=3,
    )


def resolve_backend(backend: Union[str, KernelBackend, None] = "auto") -> KernelBackend:
    """Resolve a backend name (or pass an instance through) to a :class:`KernelBackend`.

    ``"auto"`` (and ``None``) select the fastest available backend — the JIT
    backend when Numba is importable, the NumPy backend otherwise.
    Requesting ``"numba"`` without Numba installed degrades gracefully to
    the NumPy backend with a :class:`RuntimeWarning` (once per process);
    results are identical either way, only slower.
    """
    if isinstance(backend, KernelBackend):
        return backend
    if backend is None:
        backend = "auto"
    check_backend(backend)
    if backend == "auto":
        # Last importable registry entry: the registry is ordered slowest first.
        name = available_backends()[-1]
        return _BACKEND_REGISTRY[name][1]()
    importable, constructor, install_hint = _BACKEND_REGISTRY[backend]
    if not importable():
        _warn_backend_unavailable(backend, install_hint)
        return _NUMPY_BACKEND
    return constructor()


def default_backend_name() -> str:
    """The name ``"auto"`` resolves to in this environment."""
    return resolve_backend("auto").name
