"""Vectorized batch simulation engine for the Monte-Carlo resilience studies.

The scalar overlay simulators (:meth:`repro.dht.network.Overlay.route`) route
one (source, destination) pair at a time through pure-Python loops — faithful
to the paper's routing rules but orders of magnitude too slow for the
Gummadi-style resilience sweeps the analysis is validated against.  This
module routes *all* sampled survivor pairs of one ``(geometry, d, q, seed)``
cell simultaneously in NumPy batch operations: per hop, every still-active
pair selects its next neighbour from the alive-masked routing tables, and
pairs terminate individually with the same success/failure bookkeeping the
scalar path produces.

The batch kernels are exact replicas of the scalar routing rules — same
next-hop choice, same tie-breaking, same hop budget — so for any pair the
batch engine reports the identical ``(succeeded, hops, FailureReason)``
triple that :meth:`Overlay.route` would.  The scalar path is kept as the
oracle; the conformance harness (:mod:`repro.sim.conformance`) property-
tests the agreement pair-for-pair on every registered overlay geometry.

Each geometry's batch routing step is declared exactly once, as a
:class:`~repro.sim.kernelspec.KernelSpec` registered next to its scalar
oracle; the pluggable backends (:mod:`repro.sim.backends`) are thin
executors of those specs — the vectorized NumPy executor is always
available, and a JIT executor (Numba, optional ``.[fast]`` extra) compiles
the same spec bodies into per-pair loops.  Every entry point takes a
``backend`` argument (``"auto"`` — the default — selects the fastest
available); backend choice can never change a measured number, because all
backends are property-tested bit-identical to the scalar oracle.

Layered on top:

* :func:`route_pairs` — route a batch of pairs on one overlay under one
  survival mask, returning a :class:`BatchRouteOutcome` of flat arrays.
* :func:`route_pairs_stacked` — the fused multi-cell variant: pairs carry a
  per-pair cell index into a stacked ``(n_cells, n_nodes)`` survival-mask
  matrix, so every cell of a sweep that shares one overlay advances in the
  same vectorized hop.  Kernels are row-independent, so stacked outcomes are
  bit-identical to routing each cell separately.
* :class:`SweepRunner` — fan a ``(geometry × failure-model × severity ×
  replicate)`` grid out across ``multiprocessing`` workers, with
  deterministic per-cell seeding (identical results for any worker count)
  and memoization of completed cells.  The failure-model axis draws from
  the scenario library in :mod:`repro.dht.failures` (uniform, targeted,
  regional, subtree, composite), and mask generation is held to the same
  bit-identity invariant as routing: every model produces the same masks on
  the scalar and batch paths.  Cells that share an overlay build are
  dispatched as one task, which builds that overlay wherever it runs (in
  process or in a pool worker) and routes all of its cells.
* :func:`_route_cell_groups` — the one cell-group executor behind every
  static-failure driver and the churn loop: already-sampled cells of one
  overlay in, one stacked routing call, per-cell metrics out.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
import zlib
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Mapping, MutableMapping, Optional, Sequence, Tuple, Union

import numpy as np

from ..dht import OVERLAY_CLASSES, Overlay
from ..dht.failures import check_failure_model_kind, make_failure_model
from ..dht.metrics import RoutingMetrics, summarize_routes
from ..dht.routing import FAILURE_CODES, FailureReason, failure_reason_from_code
from ..exceptions import InvalidParameterError, RoutingError, UnknownGeometryError
from ..validation import check_failure_probability, check_non_negative_int, check_positive_int
from ..workloads.generators import PairWorkload
from .backends import (
    BACKEND_CHOICES,
    KernelBackend,
    available_backends,
    check_backend,
    resolve_backend,
)
from .sampling import sample_survivor_pair_arrays

__all__ = [
    "BatchRouteOutcome",
    "route_pairs",
    "route_pairs_stacked",
    "BACKEND_CHOICES",
    "KernelBackend",
    "available_backends",
    "check_backend",
    "resolve_backend",
    "SweepCell",
    "SweepCellResult",
    "SweepRunStats",
    "SweepRunner",
    "PROFILE_PHASES",
]

#: The kernel backend accepted by the routing entry points: a registry name
#: ("auto", "numpy", "numba"), a :class:`KernelBackend` instance, or ``None``
#: (same as "auto").
BackendLike = Union[str, KernelBackend, None]

_SUCCESS_CODE = FAILURE_CODES[FailureReason.NONE]


@dataclass(frozen=True)
class BatchRouteOutcome:
    """Per-pair outcomes of one batched routing run, as flat arrays.

    The arrays are aligned: entry ``i`` of each describes the attempt from
    ``sources[i]`` to ``destinations[i]``.  ``hops`` counts forwarding steps
    actually taken (the failed hop of a dropped message is not counted,
    matching ``len(RouteResult.path) - 1`` of the scalar path), and
    ``failure_codes`` holds the :data:`repro.dht.routing.FAILURE_CODES`
    encoding of each pair's :class:`~repro.dht.routing.FailureReason`.
    """

    sources: np.ndarray
    destinations: np.ndarray
    succeeded: np.ndarray
    hops: np.ndarray
    failure_codes: np.ndarray

    @property
    def n_pairs(self) -> int:
        """Number of routed pairs."""
        return int(self.sources.size)

    def failure_reason(self, index: int) -> FailureReason:
        """The :class:`FailureReason` of pair ``index`` (``NONE`` on success)."""
        return failure_reason_from_code(self.failure_codes[index])

    def failure_reason_counts(self) -> Dict[FailureReason, int]:
        """Count of failed pairs per failure reason (reasons that occurred only)."""
        counts: Dict[FailureReason, int] = {}
        # Codes are small non-negative ints, so one bincount pass replaces a
        # sort-based unique plus one scan per distinct code.
        occurrences = np.bincount(self.failure_codes, minlength=len(FAILURE_CODES))
        for code, count in enumerate(occurrences):
            if code == _SUCCESS_CODE or not count:
                continue
            counts[failure_reason_from_code(code)] = int(count)
        return counts

    def to_metrics(self) -> RoutingMetrics:
        """Summarise the batch into the same :class:`RoutingMetrics` the scalar path yields."""
        attempts = self.n_pairs
        successes = int(np.count_nonzero(self.succeeded))
        failures = attempts - successes
        success_hops = int(self.hops[self.succeeded].sum())
        failed_hops = int(self.hops[~self.succeeded].sum())
        return RoutingMetrics(
            attempts=attempts,
            successes=successes,
            mean_hops_successful=(success_hops / successes) if successes else float("nan"),
            mean_hops_failed=(failed_hops / failures) if failures else float("nan"),
            failure_reasons=self.failure_reason_counts(),
        )

    def sliced(self, start: int, stop: int) -> "BatchRouteOutcome":
        """The outcome restricted to pairs ``[start, stop)`` (array views, no copies).

        Used by the fused drivers to split one stacked run back into its
        per-cell outcomes.
        """
        return BatchRouteOutcome(
            sources=self.sources[start:stop],
            destinations=self.destinations[start:stop],
            succeeded=self.succeeded[start:stop],
            hops=self.hops[start:stop],
            failure_codes=self.failure_codes[start:stop],
        )


def _wrap_outcome(
    sources: np.ndarray, destinations: np.ndarray, triple: Tuple[np.ndarray, np.ndarray, np.ndarray]
) -> BatchRouteOutcome:
    """Assemble a backend's ``(succeeded, hops, codes)`` triple into an outcome."""
    succeeded, hops, codes = triple
    return BatchRouteOutcome(
        sources=sources,
        destinations=destinations,
        succeeded=succeeded,
        hops=hops,
        failure_codes=codes,
    )


def _check_endpoints(
    overlay: Overlay, sources: np.ndarray, destinations: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Endpoint checks of a pair batch: equal-length, in range, distinct."""
    sources = np.asarray(sources, dtype=np.int64)
    destinations = np.asarray(destinations, dtype=np.int64)
    if sources.ndim != 1 or destinations.ndim != 1 or sources.shape != destinations.shape:
        raise RoutingError(
            f"sources and destinations must be equal-length 1-D arrays, got shapes "
            f"{sources.shape} and {destinations.shape}"
        )
    n = overlay.n_nodes
    for label, endpoints in (("source", sources), ("destination", destinations)):
        if endpoints.size and (endpoints.min() < 0 or endpoints.max() >= n):
            raise RoutingError(f"batch contains a {label} outside the identifier space [0, {n})")
    if np.any(sources == destinations):
        raise RoutingError("source and destination must differ")
    return sources, destinations


def _check_stacked_arguments(
    overlay: Overlay,
    sources: np.ndarray,
    destinations: np.ndarray,
    alive_stack: np.ndarray,
    cell_indices: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Validate a fused multi-cell batch: stacked masks plus per-pair cell rows."""
    sources, destinations = _check_endpoints(overlay, sources, destinations)
    n = overlay.n_nodes
    alive_stack = np.asarray(alive_stack)
    if alive_stack.dtype != np.bool_:
        alive_stack = alive_stack.astype(bool)
    if alive_stack.ndim != 2 or alive_stack.shape[1] != n:
        raise RoutingError(
            f"stacked survival mask has shape {alive_stack.shape}, expected (n_cells, {n})"
        )
    cell_indices = np.asarray(cell_indices, dtype=np.int64)
    if cell_indices.shape != sources.shape:
        raise RoutingError(
            f"cell_indices has shape {cell_indices.shape}, expected {sources.shape}"
        )
    n_cells = alive_stack.shape[0]
    if cell_indices.size and (cell_indices.min() < 0 or cell_indices.max() >= n_cells):
        raise RoutingError(f"batch contains a cell index outside the mask stack [0, {n_cells})")
    if sources.size and not (
        alive_stack[cell_indices, sources].all() and alive_stack[cell_indices, destinations].all()
    ):
        raise RoutingError(
            "routability is defined over surviving pairs: both end-points must be alive "
            "in their cell's survival mask"
        )
    return sources, destinations, alive_stack, cell_indices


def route_pairs(
    overlay: Overlay,
    sources: Sequence[int],
    destinations: Sequence[int],
    alive: np.ndarray,
    *,
    backend: BackendLike = None,
) -> BatchRouteOutcome:
    """Route every (source, destination) pair on ``overlay`` under one survival mask.

    This is the batched equivalent of calling :meth:`Overlay.route` once per
    pair: outcomes agree pair-for-pair with the scalar path (same hops, same
    success flag, same failure reason).  ``backend`` selects the kernel backend
    (:func:`repro.sim.backends.resolve_backend`); every backend produces
    bit-identical outcomes, so the choice only affects speed.

    A single mask is a stack of one: this entry point validates and routes
    it as the one-row stack of the fused multi-cell path, through the same
    :func:`_dispatch_stack` driver.

    Raises
    ------
    RoutingError
        Under the same misuse conditions as the scalar path: a pair with
        identical end-points, a dead end-point, an out-of-space identifier
        or a malformed survival mask.
    """
    resolved = resolve_backend(backend)
    single_cell = np.zeros(np.shape(sources), dtype=np.int64)
    sources, destinations, alive_stack, cell_indices = _check_stacked_arguments(
        overlay, sources, destinations, np.asarray(alive)[np.newaxis], single_cell
    )
    return _dispatch_stack(overlay, resolved, sources, destinations, alive_stack, cell_indices)


#: Pairs one backend ``run`` call routes.  The driver splits wider batches
#: into chunks of this size under one prepared state, which caps both the
#: per-hop ``(pairs,)`` state arrays of a large fused sweep and the NumPy
#: kernels' ``(pairs, degree)`` temporaries (each hop steps its whole active
#: set at once).  Pairs are routed independently, so the split cannot change
#: any outcome.  A sweep group of 8 cells of 2000 pairs fits in one chunk.
_MAX_BATCH_PAIRS = 1 << 14

#: Virtual identifiers ``cell * 2^d + node`` one disjoint union may use: the
#: int32 range the driver hands a backend, like the overlay's own table.
_VIRTUAL_ID_SPAN = int(np.iinfo(np.int32).max) + 1


def _cells_per_union(overlay) -> int:
    """How many cells of ``overlay`` one disjoint union routes at most.

    The most cells whose virtual identifiers all fit in int32
    (:data:`_VIRTUAL_ID_SPAN`), at least one: 2^15 cells at d=16.  The
    routing driver splits wider stacks into sub-unions of this width.
    """
    return max(1, _VIRTUAL_ID_SPAN >> int(overlay.d))


def _cells_per_window(pairs_per_cell: int) -> int:
    """How many cells of ``pairs_per_cell`` pairs one streamed window holds.

    A window holds at most one pair chunk (:data:`_MAX_BATCH_PAIRS`), at
    least one cell: 8 cells of 2000 pairs.  The churn loop collects its
    steps into windows of this width, so a run of any length holds at most
    one window of masks and pairs.
    """
    return max(1, _MAX_BATCH_PAIRS // pairs_per_cell)


def route_pairs_stacked(
    overlay: Overlay,
    sources: Sequence[int],
    destinations: Sequence[int],
    alive_stack: np.ndarray,
    cell_indices: Sequence[int],
    *,
    backend: BackendLike = None,
) -> BatchRouteOutcome:
    """Route pairs from many sweep cells of one overlay in a single fused batch.

    ``alive_stack`` is a ``(n_cells, n_nodes)`` boolean matrix — one survival
    mask per cell — and ``cell_indices[i]`` names the mask row pair ``i``
    routes under, so a whole ``(q × replicate)`` column of a sweep grid
    advances per vectorized hop instead of one small kernel launch per cell.
    Internally the batch routes over a disjoint union of the cells (see
    :func:`_dispatch_stack`), so a hop costs what it costs on one cell.
    Pairs are routed independently, so outcomes are
    bit-identical to calling :func:`route_pairs` once per cell with that
    cell's mask; mask rows no pair references (e.g. degenerate cells) are
    simply ignored.

    Pairs are routed in chunks of at most :data:`_MAX_BATCH_PAIRS`, which
    bounds the per-hop working set, and stacks too wide for int32 virtual
    identifiers are routed as sub-unions.  Neither split can change any
    outcome.

    Raises
    ------
    RoutingError
        Under the conditions of :func:`route_pairs`, plus a cell index
        outside the stack or an end-point that is dead *in its own cell's
        mask* (aliveness in another cell's mask does not count).
    """
    resolved = resolve_backend(backend)
    sources, destinations, alive_stack, cell_indices = _check_stacked_arguments(
        overlay, sources, destinations, alive_stack, cell_indices
    )
    return _dispatch_stack(overlay, resolved, sources, destinations, alive_stack, cell_indices)


def _dispatch_stack(
    overlay: Overlay,
    resolved: KernelBackend,
    sources: np.ndarray,
    destinations: np.ndarray,
    alive_stack: np.ndarray,
    cell_indices: np.ndarray,
) -> BatchRouteOutcome:
    """The one routing driver behind :func:`route_pairs` and
    :func:`route_pairs_stacked` (arguments already validated).

    A stack of any height, one included, routes as a disjoint union of its
    cells: pair ``i`` travels between the virtual identifiers
    ``cell_indices[i] * 2^d + node`` (int32, like the overlay's table)
    under the flattened mask stack.  Because ``n_nodes = 2^d``, the cell
    offset lives in bits above the identifier space: specs read the
    overlay's own table at ``cur & (2^d - 1)`` and add the cell base
    ``cur - local`` back, and the offset cancels in every same-cell XOR and
    drops out of every same-cell difference.  So each pair follows exactly
    the trajectory it would take on the overlay under its own cell's mask,
    and no table is copied.  Stacks wider than :func:`_cells_per_union`
    cells are split into sub-unions of that width, so every virtual
    identifier fits in int32.  Each sub-union is prepared once and its
    pairs are routed in chunks of at most :data:`_MAX_BATCH_PAIRS` under
    that one state.
    """
    n_cells = alive_stack.shape[0]
    cells_per_union = _cells_per_union(overlay)
    if n_cells > cells_per_union:
        # Keep virtual identifiers in int32: route sub-unions and scatter
        # the per-pair results back.  Cells are independent, so the split
        # cannot change any outcome.
        succeeded = np.empty(sources.size, dtype=bool)
        hops = np.empty(sources.size, dtype=np.int64)
        codes = np.empty(sources.size, dtype=np.int8)
        for start in range(0, n_cells, cells_per_union):
            stop = start + cells_per_union
            selected = (cell_indices >= start) & (cell_indices < stop)
            sub_outcome = _dispatch_stack(
                overlay,
                resolved,
                sources[selected],
                destinations[selected],
                alive_stack[start:stop],
                cell_indices[selected] - start,
            )
            succeeded[selected] = sub_outcome.succeeded
            hops[selected] = sub_outcome.hops
            codes[selected] = sub_outcome.failure_codes
        return BatchRouteOutcome(
            sources=sources,
            destinations=destinations,
            succeeded=succeeded,
            hops=hops,
            failure_codes=codes,
        )
    offsets = cell_indices * overlay.n_nodes
    triple = _route_chunks(
        resolved,
        overlay,
        (sources + offsets).astype(np.int32),
        (destinations + offsets).astype(np.int32),
        alive_stack.reshape(-1),
    )
    # Report the physical end-points, not the union's virtual identifiers.
    return _wrap_outcome(sources, destinations, triple)


def _route_chunks(
    resolved: KernelBackend,
    overlay: Overlay,
    sources: np.ndarray,
    destinations: np.ndarray,
    alive: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Route one (sub-)union's pairs in :data:`_MAX_BATCH_PAIRS` chunks under one prepared state.

    Pairs are routed independently, so chunking cannot change any outcome;
    it only caps the per-hop working set of a very wide batch.
    """
    state = resolved.prepare(overlay, alive)
    n_pairs = sources.size
    if n_pairs <= _MAX_BATCH_PAIRS:
        return resolved.run(overlay, state, sources, destinations)
    succeeded = np.empty(n_pairs, dtype=bool)
    hops = np.empty(n_pairs, dtype=np.int64)
    codes = np.empty(n_pairs, dtype=np.int8)
    for start in range(0, n_pairs, _MAX_BATCH_PAIRS):
        stop = start + _MAX_BATCH_PAIRS
        chunk = resolved.run(overlay, state, sources[start:stop], destinations[start:stop])
        succeeded[start:stop], hops[start:stop], codes[start:stop] = chunk
    return succeeded, hops, codes


# --------------------------------------------------------------------- #
# sweep grid fan-out
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class SweepCell:
    """One independent cell of a resilience sweep grid.

    A cell is one ``(geometry, d, model, severity, replicate)`` combination;
    replicates are independent failure patterns (the ``trials`` of the
    library sweeps in :mod:`repro.sim.static_resilience`).  ``model`` names
    a failure-model registry kind
    (:data:`repro.dht.failures.FAILURE_MODEL_KINDS`) and ``q`` is that
    model's severity — the failure probability for the default uniform
    model, the failed fraction for the targeted/correlated models.  Each
    cell derives its own random seeds from the runner's base seed, so its
    result is a pure function of the cell key — the property that makes
    worker fan-out deterministic and memoization sound.
    """

    geometry: str
    d: int
    q: float
    replicate: int
    model: str = "uniform"


@dataclass(frozen=True)
class SweepCellResult:
    """Measured metrics of one completed sweep cell."""

    cell: SweepCell
    pairs: int
    metrics: RoutingMetrics
    #: True when fewer than two nodes survived the failure pattern (extreme q);
    #: such cells contribute no routing attempts.
    degenerate: bool = False


@dataclass(frozen=True)
class SweepRunStats:
    """Cache accounting for one :meth:`SweepRunner.run` call.

    ``requested`` counts every cell of the submitted grid; ``memo_hits``
    were recalled from the runner's in-memory memo, ``store_hits`` from the
    persistent cell store (when one is attached), and ``computed`` actually
    ran kernels.  The three always sum to ``requested``.  The sweep service
    surfaces these as the per-job cells-cached vs cells-computed counts.
    """

    requested: int
    memo_hits: int
    store_hits: int
    computed: int

    @property
    def cached(self) -> int:
        """Cells served without kernel execution (memo + persistent store)."""
        return self.memo_hits + self.store_hits


def _cell_entropy(base_seed: int, purpose: str, cell_key: Tuple) -> List[int]:
    """Deterministic, platform-independent entropy words for one cell seed."""
    words = [int(base_seed), zlib.crc32(purpose.encode("utf-8"))]
    for part in cell_key:
        if isinstance(part, str):
            words.append(zlib.crc32(part.encode("utf-8")))
        elif isinstance(part, float):
            words.append(int(round(part * 10**9)))
        else:
            words.append(int(part))
    return words


# Overlays are deterministic functions of their build seed, so worker
# processes (and the in-process path) cache them per build key instead of
# rebuilding one per q cell.  The cache is a small bounded LRU: one entry
# per overlay keeps mixed-geometry grids from thrashing rebuilds, while the
# bound caps the memory a long-lived worker can accumulate.  The service
# runs shards in threads that share it, so every read, reorder and eviction
# holds the lock; builds do not (two threads may build one key, and either
# copy is the same overlay).
_OVERLAY_CACHE: OrderedDict[Tuple, Overlay] = OrderedDict()
_OVERLAY_CACHE_CAPACITY = 4
_OVERLAY_CACHE_LOCK = threading.Lock()


def _reset_overlay_cache_lock() -> None:
    """A forked pool worker starts with a free lock, whatever other threads held."""
    global _OVERLAY_CACHE_LOCK
    _OVERLAY_CACHE_LOCK = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_reset_overlay_cache_lock)


def _cached_overlay(
    geometry: str,
    d: int,
    replicate: int,
    base_seed: int,
    overlay_options: Tuple[Tuple[str, object], ...],
) -> Overlay:
    key = (geometry, d, replicate, base_seed, overlay_options)
    with _OVERLAY_CACHE_LOCK:
        overlay = _OVERLAY_CACHE.get(key)
        if overlay is not None:
            _OVERLAY_CACHE.move_to_end(key)
            return overlay
    if geometry not in OVERLAY_CLASSES:
        raise UnknownGeometryError(
            f"unknown geometry {geometry!r}; expected one of {sorted(OVERLAY_CLASSES)}"
        )
    build_rng = np.random.default_rng(
        np.random.SeedSequence(_cell_entropy(base_seed, "overlay", (geometry, d, replicate)))
    )
    overlay = OVERLAY_CLASSES[geometry].build(d, rng=build_rng, **dict(overlay_options))
    with _OVERLAY_CACHE_LOCK:
        _OVERLAY_CACHE[key] = overlay
        while len(_OVERLAY_CACHE) > _OVERLAY_CACHE_CAPACITY:
            _OVERLAY_CACHE.popitem(last=False)
    return overlay


def _cell_routing_rng(base_seed: int, cell: SweepCell) -> np.random.Generator:
    """The per-cell routing stream every grid driver samples a cell from.

    Uniform cells keep the original ``(geometry, d, replicate, q)`` entropy
    key so their streams — and every benchmark reference vendored against
    them — stay bit-identical; non-uniform models extend the key with the
    model kind so each model gets an independent stream at the same
    severity.
    """
    key: Tuple = (cell.geometry, cell.d, cell.replicate, cell.q)
    if cell.model != "uniform":
        key = key + (cell.model,)
    return np.random.default_rng(
        np.random.SeedSequence(_cell_entropy(base_seed, "routing", key))
    )


def _sample_cell(
    overlay, cell: SweepCell, pairs: int, base_seed: int
) -> Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Sample one cell's survival mask and pairs; ``None`` marks a degenerate cell."""
    rng = _cell_routing_rng(base_seed, cell)
    model = make_failure_model(cell.model, cell.q).bind(overlay)
    alive = model.sample(overlay.n_nodes, rng)
    if np.count_nonzero(alive) < 2:
        return None
    sources, destinations = sample_survivor_pair_arrays(alive, pairs, rng)
    return alive, sources, destinations


# --------------------------------------------------------------------- #
# per-phase profiling
# --------------------------------------------------------------------- #
#: Phases the sweep profiler attributes wall time to.  ``overlay_build``
#: covers overlay construction (or its recall from the overlay cache),
#: ``mask_generation`` the survival-mask and pair sampling, ``kernel_hops``
#: the routing kernels themselves, and ``reduction`` the per-cell metric
#: summarisation.
PROFILE_PHASES = (
    "overlay_build",
    "mask_generation",
    "kernel_hops",
    "reduction",
)


class _PhaseClock:
    """Accumulates wall time per named phase into ``timings``.

    The bracketing is two ``perf_counter`` calls per phase — harmless next
    to the work being timed.  Sweep tasks return their (picklable) timings
    to the :class:`SweepRunner`, so its profile covers worker processes as
    well as in-process dispatch; the churn loop passes its caller's
    ``profile`` mapping in as ``timings``.
    """

    def __init__(self, timings: Optional[MutableMapping[str, float]] = None) -> None:
        self.timings = {} if timings is None else timings
        self._phase: Optional[str] = None
        self._started = 0.0

    def start(self, phase: str) -> None:
        self._phase = phase
        self._started = time.perf_counter()

    def stop(self) -> None:
        if self._phase is not None:
            self.add(self._phase, time.perf_counter() - self._started)
            self._phase = None

    def add(self, phase: str, seconds: float) -> None:
        self.timings[phase] = self.timings.get(phase, 0.0) + seconds


def _route_cell_groups(
    overlay,
    groups: Sequence[Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]]],
    *,
    backend: BackendLike = None,
    clock: Optional[_PhaseClock] = None,
) -> List[Optional[RoutingMetrics]]:
    """Route already-sampled cells of one overlay; per-cell metrics in order.

    Each group is one cell's ``(mask, sources, destinations)``, or ``None``
    for a degenerate cell (which maps to ``None``).  A sweep's cells are its
    ``q`` points and replicates; a churn window's cells are its steps.  Every
    other cell is routed in a single :func:`route_pairs_stacked` call whose
    outcome is sliced back per cell; the stacked kernels are
    row-independent, so each cell's metrics are bit-identical to routing it
    alone.  ``clock`` optionally accumulates the ``kernel_hops`` and
    ``reduction`` phases.
    """
    clock = _PhaseClock() if clock is None else clock
    metrics: List[Optional[RoutingMetrics]] = [None] * len(groups)
    routed = [index for index, group in enumerate(groups) if group is not None]
    if not routed:
        return metrics
    masks, sources, destinations = zip(*(groups[index] for index in routed))
    counts = [cell_sources.size for cell_sources in sources]
    clock.start("kernel_hops")
    outcome = route_pairs_stacked(
        overlay,
        np.concatenate(sources),
        np.concatenate(destinations),
        np.stack(masks),
        np.repeat(np.arange(len(routed), dtype=np.int64), counts),
        backend=backend,
    )
    clock.stop()
    clock.start("reduction")
    stop = 0
    for index, count in zip(routed, counts):
        start, stop = stop, stop + count
        metrics[index] = outcome.sliced(start, stop).to_metrics()
    clock.stop()
    return metrics


def _measure_cells(
    overlay,
    cells: Sequence[SweepCell],
    pairs: int,
    base_seed: int,
    *,
    backend: BackendLike = None,
    clock: Optional[_PhaseClock] = None,
) -> List[SweepCellResult]:
    """Sample each cell of one overlay from its own stream, then route them as one group."""
    clock = _PhaseClock() if clock is None else clock
    clock.start("mask_generation")
    groups = [_sample_cell(overlay, cell, pairs, base_seed) for cell in cells]
    clock.stop()
    metrics = _route_cell_groups(overlay, groups, backend=backend, clock=clock)
    return [
        SweepCellResult(cell=cell, pairs=pairs, metrics=summarize_routes([]), degenerate=True)
        if cell_metrics is None
        else SweepCellResult(cell=cell, pairs=pairs, metrics=cell_metrics)
        for cell, cell_metrics in zip(cells, metrics)
    ]


def _run_group(spec: Tuple) -> Tuple[List[SweepCellResult], Dict[str, float]]:
    """Measure every cell sharing one overlay build, in process or in a pool worker.

    The task builds (or recalls from :data:`_OVERLAY_CACHE`) its own overlay,
    so a spec is only cell identities and runner parameters — top-level and
    picklable for the worker pool.
    """
    cells, pairs, base_seed, overlay_options, backend_name = spec
    clock = _PhaseClock()
    clock.start("overlay_build")
    first = cells[0]
    overlay = _cached_overlay(first.geometry, first.d, first.replicate, base_seed, overlay_options)
    clock.stop()
    results = _measure_cells(overlay, cells, pairs, base_seed, backend=backend_name, clock=clock)
    return results, clock.timings


class SweepRunner:
    """Fan a ``(geometry × model × severity × replicate)`` resilience grid across
    worker processes.

    Every cell of the grid is seeded independently from ``base_seed`` (see
    :class:`SweepCell`), so the measured metrics are identical for any
    ``workers`` setting and any execution order — ``workers`` only changes
    wall-clock time.  Completed cells are memoized on the runner; re-running
    an overlapping grid only computes the missing cells.

    All pending cells that share an overlay build — every ``q`` of one
    ``(geometry, replicate)`` — are dispatched as **one** task routed by
    the cell-group executor (:func:`_route_cell_groups`).  The task builds
    (or recalls) its overlay wherever it runs — in process, or with
    ``workers > 1`` in a persistent pool worker — so overlays of different
    groups are built in parallel, each by the process that routes it.

    Parameters
    ----------
    pairs:
        Surviving (source, destination) pairs sampled per cell.
    replicates:
        Independent failure patterns per ``(geometry, q)`` point (the
        ``trials`` of :func:`~repro.sim.static_resilience.simulate_geometry`).
    workers:
        Worker processes to spread tasks over; ``1`` runs everything
        in-process.  The pool is created lazily and persists across ``run``
        calls; ``close()`` (or using the runner as a context manager)
        releases it.
    backend:
        Kernel backend for the routing hops (name or
        :class:`~repro.sim.backends.KernelBackend`); ``"auto"`` (default)
        selects the fastest available.  Workers inherit the resolved
        backend, and results are bit-identical for every choice.
    overlay_options:
        Extra keyword arguments forwarded to the overlay builders (e.g.
        ``near_neighbors``/``shortcuts`` for Symphony).
    cell_store:
        Optional persistent cell cache (duck-typed; canonically a
        :class:`repro.service.store.ResultStore`).  Pending cells missing
        from the in-memory memo are looked up in the store before any
        kernel runs, and freshly computed cells are written back — so an
        identical cell is never simulated twice across processes,
        requests or CLI invocations.  Because every cell result is a pure
        function of its ``(geometry, d, replicate, q[, model])`` identity
        plus ``pairs``/``base_seed``/overlay options, recalled results are
        bit-identical to recomputing them.  :attr:`last_run_stats` reports
        the memo/store/computed split of the most recent :meth:`run`.
    """

    def __init__(
        self,
        *,
        pairs: int = PairWorkload.pairs,
        replicates: int = PairWorkload.trials,
        workers: int = 1,
        base_seed: int = PairWorkload.seed,
        backend: BackendLike = None,
        overlay_options: Optional[Mapping[str, object]] = None,
        cell_store=None,
    ) -> None:
        self._pairs = check_positive_int(pairs, "pairs")
        self._replicates = check_positive_int(replicates, "replicates")
        self._workers = check_positive_int(workers, "workers")
        # Seed 0 is valid (np.random accepts it, and PairWorkload.derived_seed
        # can produce it), so only negatives are rejected.
        self._base_seed = check_non_negative_int(base_seed, "base_seed")
        # Resolve once so "auto" (and a numba request without Numba) pins to
        # a concrete backend that every dispatch — in-process or pooled —
        # routes through.  Task specs carry the registry *name* when the
        # resolved backend is the registry's own instance (workers re-resolve
        # locally; JIT dispatchers need not pickle), and the instance itself
        # for custom backends (which must then be picklable for workers > 1).
        resolved = resolve_backend(backend)
        self._backend_name = resolved.name
        try:
            canonical = resolve_backend(resolved.name) is resolved
        except InvalidParameterError:
            canonical = False
        self._spec_backend: BackendLike = resolved.name if canonical else resolved
        self._overlay_options = tuple(sorted((overlay_options or {}).items()))
        self._cell_store = cell_store
        self._completed: Dict[SweepCell, SweepCellResult] = {}
        self._profile: Dict[str, float] = {}
        self._last_run_stats = SweepRunStats(requested=0, memo_hits=0, store_hits=0, computed=0)
        self._last_adaptive_report = None
        self._pool = None
        self._pool_size = 0

    @property
    def completed_cells(self) -> int:
        """Number of distinct cells memoized so far."""
        return len(self._completed)

    @property
    def backend_name(self) -> str:
        """Name of the resolved kernel backend every dispatch routes through."""
        return self._backend_name

    @property
    def last_run_stats(self) -> SweepRunStats:
        """Cache accounting of the most recent :meth:`run` (or :meth:`sweep`) call.

        For an adaptive sweep the counters are totals across every
        allocation round, so they describe the whole sweep exactly as they
        do for a uniform one.
        """
        return self._last_run_stats

    @property
    def last_adaptive_report(self):
        """The :class:`~repro.sim.adaptive.AdaptiveReport` of the most recent
        adaptive (or replayed) :meth:`sweep`, or ``None`` if the last sweep
        was uniform."""
        return self._last_adaptive_report

    @property
    def profile(self) -> Dict[str, float]:
        """Accumulated per-phase wall time (seconds) over every dispatched task.

        Keys are drawn from :data:`PROFILE_PHASES`.  Worker-side phases are
        summed across processes, so with ``workers > 1`` the total can
        exceed elapsed wall-clock time; ratios between phases are the
        meaningful signal.  Memoized cells add nothing (no work ran).
        """
        return dict(self._profile)

    def _absorb_timings(self, timings: Mapping[str, float]) -> None:
        for phase, seconds in timings.items():
            self._profile[phase] = self._profile.get(phase, 0.0) + seconds

    # ------------------------------------------------------------------ #
    # worker-pool lifecycle
    # ------------------------------------------------------------------ #
    def _ensure_pool(self, task_count: int):
        """The persistent worker pool, sized to ``min(workers, tasks)``.

        A dispatch with more tasks than the existing pool has processes (and
        head-room under ``workers``) recreates the pool at the larger size;
        otherwise the existing pool is reused.
        """
        desired = min(self._workers, task_count)
        if self._pool is not None and self._pool_size < desired:
            self.close()
        if self._pool is None:
            self._pool = multiprocessing.get_context().Pool(processes=desired)
            self._pool_size = desired
        return self._pool

    def close(self) -> None:
        """Release the persistent worker pool (memoized results are kept)."""
        if self._pool is not None:
            self._pool.terminate()
            self._pool.join()
            self._pool = None
            self._pool_size = 0

    def __enter__(self) -> "SweepRunner":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - best-effort cleanup
        try:
            self.close()
        except Exception:
            pass

    def _grid(
        self,
        geometries: Sequence[str],
        d: int,
        failure_probabilities: Sequence[float],
        failure_models: Optional[Sequence[str]] = None,
    ) -> List[SweepCell]:
        if not geometries:
            raise InvalidParameterError("geometries must not be empty")
        if not len(failure_probabilities):
            raise InvalidParameterError("failure_probabilities must not be empty")
        models = ("uniform",) if failure_models is None else tuple(failure_models)
        if not models:
            raise InvalidParameterError("failure_models must not be empty")
        models = tuple(check_failure_model_kind(model) for model in models)
        # Replicate-major before q: consecutive cells share one overlay build,
        # so a worker's overlay cache hits across the q values it is handed.
        # Models sit between geometry and replicate, so every model of one
        # (geometry, replicate) lands in the same fused overlay group.
        return [
            SweepCell(geometry=g, d=d, q=check_failure_probability(q), replicate=r, model=m)
            for g in geometries
            for m in models
            for r in range(self._replicates)
            for q in failure_probabilities
        ]

    def run(
        self,
        geometries: Sequence[str],
        d: int,
        failure_probabilities: Sequence[float],
        failure_models: Optional[Sequence[str]] = None,
    ) -> Dict[SweepCell, SweepCellResult]:
        """Compute (or recall) every cell of the grid; returns cell -> result.

        ``failure_models`` names the failure-model kinds of the grid's model
        axis (:data:`repro.dht.failures.FAILURE_MODEL_KINDS`); the default
        is the paper's uniform model only.  ``failure_probabilities`` are
        the severities of the severity axis, interpreted by each model.
        """
        grid = self._grid(geometries, d, failure_probabilities, failure_models)
        return self.run_cells(grid)

    def run_cells(self, cells: Sequence[SweepCell]) -> Dict[SweepCell, SweepCellResult]:
        """Compute (or recall) an explicit list of grid cells; cell -> result.

        This is the one execution path behind :meth:`run` (which expands a
        rectangular grid into it) and the adaptive allocator (which submits
        exactly the cells each round's schedule calls for): memo lookup,
        persistent-store recall, grouped dispatch, store write-back
        and :attr:`last_run_stats` accounting all live here.  Duplicate
        cells in ``cells`` are computed once and reported once in the
        stats.
        """
        requested = list(dict.fromkeys(cells))
        pending = [cell for cell in requested if cell not in self._completed]
        memo_hits = len(requested) - len(pending)
        store_hits = 0
        if pending and self._cell_store is not None:
            recalled = self._cell_store.get_cells(
                pending,
                pairs=self._pairs,
                base_seed=self._base_seed,
                overlay_options=self._overlay_options,
            )
            for cell, result in recalled.items():
                self._completed[cell] = result
            store_hits = len(recalled)
            pending = [cell for cell in pending if cell not in self._completed]
        if pending:
            results = self._run_groups(pending)
            for result in results:
                self._completed[result.cell] = result
            if self._cell_store is not None:
                self._cell_store.put_cells(
                    results,
                    pairs=self._pairs,
                    base_seed=self._base_seed,
                    overlay_options=self._overlay_options,
                )
        self._last_run_stats = SweepRunStats(
            requested=len(requested),
            memo_hits=memo_hits,
            store_hits=store_hits,
            computed=len(pending),
        )
        return {cell: self._completed[cell] for cell in requested}

    def _run_groups(self, pending: List[SweepCell]) -> List[SweepCellResult]:
        """The one dispatch: one task per overlay build, routed as a stacked batch.

        Each task builds its own overlay (:func:`_run_group`); with more
        than one group and ``workers > 1`` the tasks are mapped over the
        persistent pool, otherwise they run in process, in order.
        """
        groups: Dict[Tuple, List[SweepCell]] = {}
        for cell in pending:
            groups.setdefault((cell.geometry, cell.d, cell.replicate), []).append(cell)
        shared = (self._pairs, self._base_seed, self._overlay_options, self._spec_backend)
        specs = [(tuple(cells),) + shared for cells in groups.values()]
        if self._workers > 1 and len(specs) > 1:
            grouped = self._ensure_pool(len(specs)).map(_run_group, specs, chunksize=1)
        else:
            grouped = [_run_group(spec) for spec in specs]
        results = []
        for group, timings in grouped:
            self._absorb_timings(timings)
            results.extend(group)
        return results

    def sweep(
        self,
        geometry: str,
        d: int,
        failure_probabilities: Sequence[float],
        failure_model: str = "uniform",
        *,
        adaptive=None,
        replay_allocation=None,
    ) -> "ResilienceSweepResult":
        """Run one geometry's sweep under one failure model and pool replicates
        into the standard result types.

        ``adaptive`` optionally switches from the uniform ``replicates``
        budget to variance-adaptive trial allocation (an
        :class:`~repro.sim.adaptive.AdaptiveConfig`): the sweep then runs in
        rounds, freezing each ``q`` point once its pooled routability CI
        half-width reaches the target, and :attr:`last_adaptive_report`
        records what was consumed (its ``ledger`` is the replayable
        record).  Cells keep their uniform entropy keys (round ``k`` is
        replicate ``k``), so every consumed cell — and any result-store
        hit — is byte-equal to the uniform sweep's.  ``replay_allocation`` instead replays a
        recorded :class:`~repro.sim.adaptive.AllocationLedger` exactly,
        reproducing the adaptive run's rows bit-identically.  With neither,
        behaviour (and every measured byte) is unchanged.
        """
        failure_model = check_failure_model_kind(failure_model)
        if adaptive is not None or replay_allocation is not None:
            return self._sweep_adaptive(
                geometry, d, failure_probabilities, failure_model, adaptive, replay_allocation
            )
        self._last_adaptive_report = None
        cell_results = self.run([geometry], d, failure_probabilities, [failure_model])
        replicates = range(self._replicates)
        points = [
            (q, [cell_results[SweepCell(geometry, d, q, r, failure_model)] for r in replicates])
            for q in failure_probabilities
        ]
        return self._pooled(geometry, d, points, failure_model)

    def _pooled(self, geometry: str, d: int, points, failure_model: str) -> "ResilienceSweepResult":
        """Pool ``(q, cell results)`` points with this runner's pairs and backend."""
        # Imported here: static_resilience imports this module at load time.
        from .static_resilience import _pool_sweep

        return _pool_sweep(
            geometry, OVERLAY_CLASSES[geometry].system_name, d, points,
            pairs=self._pairs, backend_name=self._backend_name, failure_model=failure_model,
        )

    def _sweep_adaptive(
        self,
        geometry: str,
        d: int,
        failure_probabilities: Sequence[float],
        failure_model: str,
        adaptive,
        replay_allocation,
    ) -> "ResilienceSweepResult":
        """The adaptive/replayed branch of :meth:`sweep` (arguments validated
        here; the uniform branch stays byte-for-byte untouched)."""
        from .adaptive import AdaptiveConfig, AllocationLedger, SweepPoint, run_allocation

        if not len(failure_probabilities):
            raise InvalidParameterError("failure_probabilities must not be empty")
        if geometry not in OVERLAY_CLASSES:
            raise UnknownGeometryError(
                f"unknown geometry {geometry!r}; expected one of {sorted(OVERLAY_CLASSES)}"
            )
        if replay_allocation is not None:
            if adaptive is not None:
                raise InvalidParameterError(
                    "pass either adaptive or replay_allocation, not both"
                )
            if not isinstance(replay_allocation, AllocationLedger):
                raise InvalidParameterError(
                    "replay_allocation must be an AllocationLedger "
                    f"(got {type(replay_allocation).__name__})"
                )
            if (
                replay_allocation.pairs != self._pairs
                or replay_allocation.base_seed != self._base_seed
            ):
                raise InvalidParameterError(
                    "allocation ledger was recorded at "
                    f"pairs={replay_allocation.pairs}, base_seed={replay_allocation.base_seed}; "
                    f"this runner is configured with pairs={self._pairs}, "
                    f"base_seed={self._base_seed} — replayed rows would not be bit-identical"
                )
            config = replay_allocation.config
        else:
            if not isinstance(adaptive, AdaptiveConfig):
                raise InvalidParameterError(
                    f"adaptive must be an AdaptiveConfig (got {type(adaptive).__name__})"
                )
            config = adaptive.resolved(self._replicates)
        points = [
            SweepPoint(
                geometry=geometry, d=d, q=check_failure_probability(q), model=failure_model
            )
            for q in failure_probabilities
        ]
        # One run_cells call per allocation round: fused dispatch groups are
        # rebuilt from each round's schedule, and the round stats accumulate
        # so last_run_stats describes the whole adaptive sweep.
        totals = {"requested": 0, "memo_hits": 0, "store_hits": 0, "computed": 0}

        def run_round(batch):
            outcome = self.run_cells(batch)
            stats = self._last_run_stats
            totals["requested"] += stats.requested
            totals["memo_hits"] += stats.memo_hits
            totals["store_hits"] += stats.store_hits
            totals["computed"] += stats.computed
            return outcome

        results, report = run_allocation(points, run_round, config, replay=replay_allocation)
        self._last_run_stats = SweepRunStats(**totals)
        self._last_adaptive_report = report
        return self._pooled(geometry, d, [(point.q, results[point]) for point in points], failure_model)
