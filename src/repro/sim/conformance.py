"""Spec-conformance harness: the guard on the two-copy routing invariant.

Since the KernelSpec refactor each routing rule exists in exactly **two**
places — the scalar :meth:`Overlay.route` oracle and the geometry's
registered :class:`~repro.sim.kernelspec.KernelSpec` — and this harness is
what keeps them equal.  It auto-discovers every registered geometry (no
test edits when a new geometry ships) and property-tests the spec against
the oracle across every execution shape the generic drivers derive:

* **backends** — the vectorized NumPy executor, the uncompiled per-pair
  loops (the exact code Numba compiles, runnable everywhere), and the JIT
  executor when Numba is importable;
* **dispatch modes** — single-mask, stacked disjoint-union batches
  (contiguous and shuffled cell indices), and multi-chunk routing with the
  engine's pair chunk lowered to :data:`CHUNK_PAIRS`;
* **failure models** — every registry kind in
  :data:`repro.dht.failures.FAILURE_MODEL_KINDS`,
  :func:`~repro.sim.static_resilience.measure_routability` vs the sweep
  reference (:func:`_oracle_measure_routability`);
* **column orders** — a scan spec with a column order routes the oracle
  batches and the crossover batches under every NumPy pass plan: the
  planner's own, every pass the order allows (:func:`forced_passes`
  ``"every"``) and none (``"none"``, the full scan alone), each equal to
  the oracle pair for pair;
* **overlay variants** — the whole battery runs again on each
  :data:`OVERLAY_VARIANTS` overlay (Chord's deterministic fingers);
* **masking crossover** — three stacked batches per geometry and backend
  (:data:`CROSSOVER_BATCHES`): one that never reaches the NumPy
  executor's full-masked-table crossover, one past it from hop 0, and one
  that crosses it mid-route, each equal to the oracle pair for pair;
* **churn** — :func:`~repro.sim.churn.simulate_churn` (windows of steps
  routed as one stacked batch each) vs the churn reference
  (:func:`_oracle_churn`), per-step metrics and final RNG position alike;
* **worker counts** — :class:`~repro.sim.engine.SweepRunner` grids over
  all registered geometries, pooled vs in-process, and the runner's
  grouped dispatch vs the per-cell reference (:func:`_per_cell_reference`).

The two scalar-oracle references route what the public paths sample —
neither copies a sampling loop.  The sweep reference routes the cells
:func:`~repro.sim.engine._sample_cell` draws for ``measure_routability``
(trial ``k`` is replicate ``k``); the churn reference routes the step
trajectory :func:`~repro.sim.churn._churn_trajectory` yields for
``simulate_churn``.
They are the only scalar-oracle measurement paths in the package.

``tests/test_kernelspec.py`` drives these checks through pytest;
``python -m repro.sim.conformance`` runs the full battery standalone (the
CI conformance leg) and exits non-zero on the first violation.
"""

from __future__ import annotations

import sys
import zlib
from typing import Dict, List, Optional, Sequence, Tuple
from unittest import mock

import numpy as np

from ..dht import OVERLAY_CLASSES, Overlay, make_rng
from ..dht.failures import FAILURE_MODEL_KINDS, survival_mask
from ..dht.metrics import RoutingMetrics, summarize_routes
from ..exceptions import UnknownGeometryError
from ..validation import check_failure_probability, check_positive_int
from . import engine, kernelspec
from .backends import NUMBA_AVAILABLE, python_loop_backend, resolve_backend
from .backends.base import HOP_LIMIT_CODE
from .churn import ChurnConfig, ChurnSimulationResult, _churn_trajectory, simulate_churn
from .engine import (
    BackendLike,
    SweepCell,
    SweepCellResult,
    SweepRunner,
    _cached_overlay,
    _sample_cell,
    route_pairs,
    route_pairs_stacked,
)
from .kernelspec import get_kernel_spec, registered_geometries
from .sampling import sample_survivor_pair_arrays
from .static_resilience import (
    StaticResilienceResult,
    _base_seed,
    _model_kind,
    _pooled_result,
    measure_routability,
)

__all__ = [
    "CONFORMANCE_D",
    "WORKER_COUNTS",
    "conformance_backends",
    "conformance_geometries",
    "build_conformance_overlay",
    "assert_oracle_parity",
    "CHUNK_PAIRS",
    "chunked_routing",
    "assert_stacked_parity",
    "assert_hop_limit_parity",
    "crossover_batch",
    "assert_crossover_parity",
    "OVERLAY_VARIANTS",
    "FORCED_PASS_PLANS",
    "forced_passes",
    "assert_column_order_parity",
    "assert_failure_model_parity",
    "assert_churn_parity",
    "assert_worker_parity",
    "assert_reference_parity",
    "run_conformance",
    "main",
]

#: Identifier length of the harness overlays (64 nodes: big enough for every
#: failure reason to occur, small enough to route against the scalar oracle).
CONFORMANCE_D = 6

#: Worker counts the sweep-dispatch check covers (pooled counts deliberately
#: include a non-divisor of the grid size).
WORKER_COUNTS = (1, 3, 4)

#: Severities the oracle-parity check samples, from none to nearly all nodes
#: failed: an ordered scan mostly stops at its first column at low q and
#: mostly runs out of columns at high q.
PARITY_SEVERITIES = (0.0, 0.1, 0.3, 0.6, 0.9)

#: Overlay options each geometry's battery also runs on, besides the
#: default build.
OVERLAY_VARIANTS: Dict[str, Tuple[Dict[str, str], ...]] = {
    "ring": ({"finger_mode": "deterministic"},),
}

#: The NumPy ordered scan's pass plans the harness forces.  At harness sizes
#: the planner (``kernelspec._planned_passes``) seldom plans a pass, so
#: without forcing, the passes would go unchecked.
FORCED_PASS_PLANS = ("every", "none")

#: The engine's pair chunk while :func:`chunked_routing` is active: small
#: enough that every harness batch routes in several chunks, and prime so
#: chunk boundaries never line up with cell boundaries.
CHUNK_PAIRS = 29


def chunked_routing():
    """Lower the routing driver's pair chunk to :data:`CHUNK_PAIRS` for a ``with`` block.

    Production batches rarely reach the real chunk size
    (``repro.sim.engine._MAX_BATCH_PAIRS``); lowering it lets harness-sized
    batches exercise the multi-chunk path, one prepared state across chunks.
    """
    return mock.patch.object(engine, "_MAX_BATCH_PAIRS", CHUNK_PAIRS)


def conformance_geometries() -> Tuple[str, ...]:
    """Registered spec geometries, verified to have a matching overlay oracle."""
    geometries = registered_geometries()
    missing = [g for g in geometries if g not in OVERLAY_CLASSES]
    if missing:  # pragma: no cover - registration bug guard
        raise UnknownGeometryError(
            f"kernel specs registered without overlay oracles: {missing}"
        )
    return geometries


def conformance_backends() -> List[Tuple[str, BackendLike]]:
    """Every backend implementation testable in this environment.

    The uncompiled per-pair loops always run (so the code Numba compiles is
    verified on every CI leg); the JIT executor joins when importable.
    """
    backends: List[Tuple[str, BackendLike]] = [
        ("numpy", "numpy"),
        ("python-loop", python_loop_backend()),
    ]
    if NUMBA_AVAILABLE:
        backends.append(("numba-jit", resolve_backend("numba")))
    return backends


def build_conformance_overlay(
    geometry: str, d: int = CONFORMANCE_D, seed: int = 2006, **options
) -> Overlay:
    """One deterministic overlay per geometry (seeded like the test fixtures)."""
    return OVERLAY_CLASSES[geometry].build(d, seed=seed, **options)


def _deterministic_seed(label: str) -> int:
    # crc32, not hash(): sampled batches must not vary with PYTHONHASHSEED,
    # or a parity failure would be unreproducible.
    return zlib.crc32(label.encode("utf-8"))


def _sampled_batch(overlay: Overlay, q: float, pairs: int, seed: int):
    rng = np.random.default_rng(seed)
    alive = survival_mask(overlay.n_nodes, q, rng)
    if int(alive.sum()) < 2:
        return None
    sources, destinations = sample_survivor_pair_arrays(alive, pairs, rng)
    return alive, sources, destinations


def assert_oracle_parity(
    overlay: Overlay,
    backend: BackendLike,
    *,
    q: float,
    pairs: int = 120,
    seed: Optional[int] = None,
) -> int:
    """Batch outcomes equal the scalar oracle pair-for-pair; returns pairs checked."""
    if seed is None:
        seed = _deterministic_seed(f"conformance-{overlay.geometry_name}-{q}")
    sampled = _sampled_batch(overlay, q, pairs, seed)
    if sampled is None:
        return 0
    alive, sources, destinations = sampled
    outcome = route_pairs(overlay, sources, destinations, alive, backend=backend)
    cells = np.zeros(outcome.n_pairs, dtype=np.int64)
    _assert_pairs_match_oracle(overlay, outcome, alive[np.newaxis], cells, (overlay.geometry_name, q))
    return outcome.n_pairs


def _assert_pairs_match_oracle(
    overlay: Overlay, outcome, alive_stack: np.ndarray, cells: np.ndarray, context: Tuple
) -> None:
    """Every pair of ``outcome`` equals ``overlay.route`` under its own cell's mask."""
    for i in range(outcome.n_pairs):
        source, destination = int(outcome.sources[i]), int(outcome.destinations[i])
        oracle = overlay.route(source, destination, alive_stack[cells[i]])
        pair = (*context, i, source, destination)
        assert bool(outcome.succeeded[i]) == oracle.succeeded, pair
        assert int(outcome.hops[i]) == oracle.hops, pair
        assert outcome.failure_reason(i) is oracle.failure_reason, pair


def assert_stacked_parity(
    overlay: Overlay,
    backend: BackendLike,
    *,
    qs: Sequence[float] = PARITY_SEVERITIES,
    pairs: int = 80,
    seed: int = 97,
) -> int:
    """Stacked (fused) outcomes equal per-cell outcomes, shuffled and chunked alike."""
    rng = np.random.default_rng(seed)
    masks, sources, destinations = [], [], []
    for q in qs:
        alive = survival_mask(overlay.n_nodes, q, rng)
        if int(alive.sum()) < 2:
            continue
        src, dst = sample_survivor_pair_arrays(alive, pairs, rng)
        masks.append(alive)
        sources.append(src)
        destinations.append(dst)
    if not masks:
        return 0
    per_cell = [
        route_pairs(overlay, src, dst, alive, backend=backend)
        for alive, src, dst in zip(masks, sources, destinations)
    ]
    flat_sources = np.concatenate(sources)
    flat_destinations = np.concatenate(destinations)
    cell_indices = np.repeat(np.arange(len(masks), dtype=np.int64), pairs)
    # A fixed shuffle exercises non-contiguous cell indices through the
    # disjoint-union driver; the inverse permutation undoes it for comparison.
    order = np.random.default_rng(7).permutation(flat_sources.size)
    inverse = np.argsort(order)
    arguments = (flat_sources[order], flat_destinations[order], np.stack(masks), cell_indices[order])
    variants = {"stacked": route_pairs_stacked(overlay, *arguments, backend=backend)}
    assert flat_sources.size > CHUNK_PAIRS, (overlay.geometry_name, "one chunk only")
    with chunked_routing():
        variants["stacked+chunked"] = route_pairs_stacked(overlay, *arguments, backend=backend)
    expected_succeeded = np.concatenate([o.succeeded for o in per_cell])
    expected_hops = np.concatenate([o.hops for o in per_cell])
    expected_codes = np.concatenate([o.failure_codes for o in per_cell])
    for label, outcome in variants.items():
        context = (overlay.geometry_name, label)
        assert np.array_equal(outcome.succeeded[inverse], expected_succeeded), context
        assert np.array_equal(outcome.hops[inverse], expected_hops), context
        assert np.array_equal(outcome.failure_codes[inverse], expected_codes), context
    return flat_sources.size * len(variants)


class _HopLimited:
    """An overlay view with a deliberately tiny hop budget.

    Forces the HOP_LIMIT_EXCEEDED branch of every executor; everything else
    delegates to the wrapped overlay.
    """

    def __init__(self, overlay: Overlay, hop_limit: int) -> None:
        self._overlay = overlay
        self._limit = hop_limit

    def __getattr__(self, item):
        return getattr(self._overlay, item)

    def hop_limit(self) -> int:
        return self._limit


def assert_hop_limit_parity(
    overlay: Overlay,
    backend: BackendLike,
    *,
    hop_limit: int = 2,
    pairs: int = 32,
) -> int:
    """Budget-exhaustion bookkeeping is identical across executors.

    The scalar oracle's budget lives inside ``Overlay.route`` (which reads
    its own ``hop_limit()``), so the cross-check here is against the NumPy
    executor — itself oracle-parity-tested above — on a wrapped overlay
    whose budget is small enough to bite.
    """
    limited = _HopLimited(overlay, hop_limit)
    alive = np.ones(overlay.n_nodes, dtype=bool)
    sources = np.arange(0, min(pairs, overlay.n_nodes // 2), dtype=np.int64)
    # Bitwise complements: maximal Hamming/XOR distance and a long clockwise
    # walk, so a 2-hop budget bites on every geometry.
    destinations = (overlay.n_nodes - 1) - sources
    reference = route_pairs(limited, sources, destinations, alive, backend="numpy")
    outcome = route_pairs(limited, sources, destinations, alive, backend=backend)
    context = (overlay.geometry_name, "hop-limit")
    assert np.array_equal(reference.succeeded, outcome.succeeded), context
    assert np.array_equal(reference.hops, outcome.hops), context
    assert np.array_equal(reference.failure_codes, outcome.failure_codes), context
    # The tiny budget must actually bite, or the branch went unexercised.
    assert (reference.failure_codes == HOP_LIMIT_CODE).any(), context
    return int(sources.size)


#: The three masking-crossover batches: ``(side, cells, pairs per cell)``.
#: The NumPy executor masks the rows each hop gathers until the rows gathered
#: so far plus the next hop's active set would reach the stack's row count
#: (``cells * 2^d``), then builds the full masked table once.  ``below`` never
#: gets there, ``above`` is there from hop 0 (pairs >= rows) and
#: ``mid-route`` crosses after hop 0 (pairs < rows <= rows visited).
CROSSOVER_BATCHES = (("below", 16, 1), ("above", 2, 80), ("mid-route", 2, 48))


def crossover_batch(overlay: Overlay, side: str):
    """One :data:`CROSSOVER_BATCHES` stack at ``q = 0.3``:
    ``(alive_stack, sources, destinations, cells)``."""
    _, n_cells, per_cell = next(batch for batch in CROSSOVER_BATCHES if batch[0] == side)
    rng = np.random.default_rng(_deterministic_seed(f"crossover-{overlay.geometry_name}-{side}"))
    masks, sources, destinations = [], [], []
    while len(masks) < n_cells:
        alive = survival_mask(overlay.n_nodes, 0.3, rng)
        if int(alive.sum()) >= 2:
            src, dst = sample_survivor_pair_arrays(alive, per_cell, rng)
            masks.append(alive)
            sources.append(src)
            destinations.append(dst)
    cells = np.repeat(np.arange(n_cells, dtype=np.int64), per_cell)
    return np.stack(masks), np.concatenate(sources), np.concatenate(destinations), cells


def _rows_visited(outcome) -> int:
    """Rows a per-hop driver gathers routing ``outcome``'s batch: one per pair
    per hop it is active — a dropped pair's failed hop included."""
    dropped = ~outcome.succeeded & (outcome.failure_codes != HOP_LIMIT_CODE)
    return int(outcome.hops.sum()) + int(dropped.sum())


def assert_crossover_parity(overlay: Overlay, backend: BackendLike) -> int:
    """Each crossover batch equals the oracle pair for pair and lies on its side."""
    checked = 0
    for side, _, _ in CROSSOVER_BATCHES:
        stack, sources, destinations, cells = crossover_batch(overlay, side)
        outcome = route_pairs_stacked(overlay, sources, destinations, stack, cells, backend=backend)
        _assert_pairs_match_oracle(overlay, outcome, stack, cells, (overlay.geometry_name, side))
        rows, visited = stack.size, _rows_visited(outcome)
        landed = "above" if sources.size >= rows else "below" if visited < rows else "mid-route"
        assert landed == side, (overlay.geometry_name, side, sources.size, visited, rows)
        checked += outcome.n_pairs
    return checked


def forced_passes(plan: str):
    """Force the NumPy ordered scan's pass plan for a ``with`` block.

    ``"every"`` runs every pass the column order allows, so no pair reaches
    the full scan; ``"none"`` hands every pair to the full scan at once.
    Both must route exactly as the planner's mix of the two does.
    """
    if plan not in FORCED_PASS_PLANS:
        raise ValueError(f"unknown pass plan {plan!r}; expected one of {FORCED_PASS_PLANS}")

    def planned(pending, degree, expected_yield, from_table):
        return degree if plan == "every" else 0

    return mock.patch.object(kernelspec, "_planned_passes", planned)


def assert_column_order_parity(overlay: Overlay, backend: BackendLike) -> int:
    """Under each forced pass plan, an ordered scan equals the oracle.

    Routes the oracle-parity batches at every :data:`PARITY_SEVERITIES`
    value and the three crossover batches (so passes read both the per-hop
    masked entries and the full masked table).  Specs without a column
    order check nothing and return ``0``.
    """
    if get_kernel_spec(overlay.geometry_name).first_column is None:
        return 0
    checked = 0
    for plan in FORCED_PASS_PLANS:
        with forced_passes(plan):
            for q in PARITY_SEVERITIES:
                checked += assert_oracle_parity(overlay, backend, q=q)
            checked += assert_crossover_parity(overlay, backend)
    return checked


def _oracle_metrics(
    overlay: Overlay, alive: np.ndarray, sources: np.ndarray, destinations: np.ndarray
) -> RoutingMetrics:
    """Route sampled pairs one at a time through the scalar ``Overlay.route`` oracle."""
    return summarize_routes(
        overlay.route(source, destination, alive)
        for source, destination in zip(sources.tolist(), destinations.tolist())
    )


def _oracle_measure_routability(
    overlay: Overlay,
    q: float,
    *,
    pairs: int,
    trials: int,
    seed: Optional[int] = None,
    failure_model: str = "uniform",
) -> StaticResilienceResult:
    """The sweep reference: ``measure_routability``'s own cells, routed by the oracle.

    Trial ``k`` is the cell with replicate ``k``, sampled by
    :func:`~repro.sim.engine._sample_cell` — the groups the engine's
    cell-group executor (:func:`~repro.sim.engine._route_cell_groups`)
    takes — so for equal arguments the result must equal
    :func:`~repro.sim.static_resilience.measure_routability`'s.
    """
    q, kind, base_seed = check_failure_probability(q), _model_kind(failure_model), _base_seed(seed)
    cells = [
        SweepCell(overlay.geometry_name, overlay.d, q, replicate, kind)
        for replicate in range(check_positive_int(trials, "trials"))
    ]
    groups = [_sample_cell(overlay, cell, pairs, base_seed) for cell in cells]
    return _pooled_result(
        overlay.geometry_name, overlay.system_name, overlay.d, q,
        [None if group is None else _oracle_metrics(overlay, *group) for group in groups],
        pairs=pairs, failure_model=kind,
    )


def _oracle_churn(
    overlay: Overlay,
    config: ChurnConfig,
    *,
    rng: Optional[np.random.Generator] = None,
    seed: Optional[int] = None,
) -> ChurnSimulationResult:
    """The churn reference: ``simulate_churn``'s step trajectory, routed by the oracle.

    Each step is routed alone, pair by pair; for equal arguments the rows
    — and the generator's final position — must equal
    :func:`~repro.sim.churn.simulate_churn`'s.
    """
    steps = tuple(
        finish(
            metrics=summarize_routes([]) if pairs is None else _oracle_metrics(overlay, usable, *pairs)
        )
        for usable, pairs, finish in _churn_trajectory(overlay, config, make_rng(rng, seed))
    )
    return ChurnSimulationResult(
        geometry=overlay.geometry_name, d=overlay.d, config=config, steps=steps
    )


def assert_failure_model_parity(
    overlay: Overlay,
    backend: BackendLike,
    *,
    kind: str,
    severity: float = 0.35,
    pairs: int = 80,
    trials: int = 2,
    seed: int = 29,
) -> int:
    """Engine metrics equal the sweep reference's under one failure-model kind."""
    sampling = dict(pairs=pairs, trials=trials, seed=seed, failure_model=kind)
    measured = measure_routability(overlay, severity, backend=backend, **sampling)
    expected = _oracle_measure_routability(overlay, severity, **sampling)
    context = (overlay.geometry_name, kind)
    assert measured.degenerate_trials == expected.degenerate_trials, context
    _assert_metrics_equal(measured.metrics, expected.metrics, context)
    return measured.metrics.attempts


def assert_churn_parity(
    overlay: Overlay,
    backend: BackendLike,
    *,
    steps: int = 6,
    pairs: int = 40,
    seed: Optional[int] = None,
) -> int:
    """``simulate_churn`` per-step metrics and RNG consumption equal the churn reference's.

    Heavy leave/rejoin rates and a repair every third step move the usable
    mask in both directions, so the steps of one window route under masks
    that differ by joins and by leaves.
    """
    if seed is None:
        seed = _deterministic_seed(f"churn-{overlay.geometry_name}")
    config = ChurnConfig(
        leave_probability=0.15, rejoin_probability=0.1,
        steps_per_epoch=steps, pairs_per_step=pairs, repair_every=3,
    )
    generators = [np.random.default_rng(seed) for _ in range(2)]
    measured = simulate_churn(overlay, config, rng=generators[0], backend=backend)
    expected = _oracle_churn(overlay, config, rng=generators[1])
    context = (overlay.geometry_name, "churn")
    assert len(measured.steps) == len(expected.steps), context
    for step, reference in zip(measured.steps, expected.steps):
        _assert_metrics_equal(step.metrics, reference.metrics, (*context, step.step))
    # Routing consumes no randomness: both runs leave the stream in one place.
    assert generators[0].random() == generators[1].random(), context
    return sum(step.metrics.attempts for step in measured.steps)


def _assert_metrics_equal(measured, expected, context: Tuple) -> None:
    """Field-wise metrics equality; ``nan`` means (no such attempts) match ``nan``."""
    assert measured.attempts == expected.attempts, context
    assert measured.successes == expected.successes, context
    assert measured.failure_reasons == expected.failure_reasons, context
    for field in ("mean_hops_successful", "mean_hops_failed"):
        a, b = getattr(measured, field), getattr(expected, field)
        assert a == b or (np.isnan(a) and np.isnan(b)), (*context, field)


def assert_worker_parity(
    geometries: Sequence[str],
    backend: BackendLike,
    *,
    workers: Sequence[int] = WORKER_COUNTS,
    d: int = CONFORMANCE_D,
    qs: Sequence[float] = (0.1, 0.5),
    pairs: int = 40,
    replicates: int = 2,
    base_seed: int = 321,
) -> int:
    """SweepRunner grids over ``geometries`` are identical for every worker count."""
    grids: Dict[int, Dict] = {}
    for count in workers:
        with SweepRunner(
            pairs=pairs,
            replicates=replicates,
            workers=count,
            base_seed=base_seed,
            backend=backend,
        ) as runner:
            grids[count] = runner.run(list(geometries), d, list(qs))
    reference = grids[workers[0]]
    for count, grid in grids.items():
        assert grid.keys() == reference.keys(), count
        for cell, expected in reference.items():
            _assert_metrics_equal(grid[cell].metrics, expected.metrics, (count, cell))
    return len(reference) * len(grids)


def _per_cell_reference(
    cells: Sequence[SweepCell], *, pairs: int, base_seed: int, backend: BackendLike = None
) -> Dict[SweepCell, SweepCellResult]:
    """Every grid cell measured alone, in process: the reference for grouped dispatch.

    Each cell gets its overlay build (:func:`~repro.sim.engine._cached_overlay`),
    its own entropy stream (:func:`~repro.sim.engine._sample_cell`) and one
    single-mask :func:`route_pairs` call — no grouping, stacking or worker
    pool — so :class:`SweepRunner` results can be checked against it.
    """
    results: Dict[SweepCell, SweepCellResult] = {}
    for cell in cells:
        overlay = _cached_overlay(cell.geometry, cell.d, cell.replicate, base_seed, ())
        sampled = _sample_cell(overlay, cell, pairs, base_seed)
        if sampled is None:
            metrics, degenerate = summarize_routes([]), True
        else:
            alive, sources, destinations = sampled
            outcome = route_pairs(overlay, sources, destinations, alive, backend=backend)
            metrics, degenerate = outcome.to_metrics(), False
        results[cell] = SweepCellResult(
            cell=cell, pairs=pairs, metrics=metrics, degenerate=degenerate
        )
    return results


def assert_reference_parity(
    geometries: Sequence[str],
    backend: BackendLike,
    *,
    d: int = CONFORMANCE_D,
    qs: Sequence[float] = (0.1, 0.5, 1.0),
    pairs: int = 40,
    replicates: int = 2,
    base_seed: int = 321,
) -> int:
    """A SweepRunner grid equals the per-cell reference, cell for cell.

    ``q = 1.0`` kills every node, so degenerate cells are compared too.
    """
    with SweepRunner(
        pairs=pairs, replicates=replicates, base_seed=base_seed, backend=backend
    ) as runner:
        grid = runner.run(list(geometries), d, list(qs))
    reference = _per_cell_reference(list(grid), pairs=pairs, base_seed=base_seed, backend=backend)
    for cell, expected in reference.items():
        assert grid[cell].degenerate == expected.degenerate, cell
        _assert_metrics_equal(grid[cell].metrics, expected.metrics, (cell,))
    return len(reference)


def _require_assertions() -> None:
    """The harness is built on assert statements; refuse to no-op under -O.

    With ``python -O`` (or ``PYTHONOPTIMIZE``) every parity assert is
    stripped and the harness would print success while verifying nothing —
    fail loudly instead of lying.
    """
    if not __debug__:
        raise RuntimeError(
            "the conformance harness requires assertions; run it without "
            "python -O / PYTHONOPTIMIZE"
        )


def run_conformance(
    geometry: str,
    *,
    d: int = CONFORMANCE_D,
    failure_model_kinds: Sequence[str] = FAILURE_MODEL_KINDS,
    overlay_options: Optional[Dict[str, str]] = None,
) -> Dict[str, int]:
    """The full single-geometry battery; returns per-check pair counts."""
    _require_assertions()
    overlay = build_conformance_overlay(geometry, d, **(overlay_options or {}))
    checked: Dict[str, int] = {}
    for label, backend in conformance_backends():
        for q in PARITY_SEVERITIES:
            checked[f"oracle[{label},q={q}]"] = assert_oracle_parity(overlay, backend, q=q)
        checked[f"stacked[{label}]"] = assert_stacked_parity(overlay, backend)
        checked[f"hop-limit[{label}]"] = assert_hop_limit_parity(overlay, backend)
        checked[f"crossover[{label}]"] = assert_crossover_parity(overlay, backend)
    # Pass plans exist only in the NumPy executor; the per-pair loops
    # always return at the first accepted column.
    checked["column-order[numpy]"] = assert_column_order_parity(overlay, "numpy")
    # Failure-model parity is mask-generation + routing; one backend suffices
    # per kind (cross-backend routing parity is covered above).
    for kind in failure_model_kinds:
        checked[f"model[{kind}]"] = assert_failure_model_parity(
            overlay, "numpy", kind=kind
        )
    checked["churn"] = assert_churn_parity(overlay, "numpy")
    return checked


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run the whole harness: every geometry, every backend, plus worker parity."""
    _require_assertions()
    geometries = conformance_geometries()
    backends = [label for label, _ in conformance_backends()]
    print(f"conformance: geometries={list(geometries)} backends={backends}")
    failures = 0
    batteries = [(geometry, geometry, None) for geometry in geometries]
    for geometry, variants in OVERLAY_VARIANTS.items():
        for options in variants:
            label = ",".join(f"{name}={value}" for name, value in options.items())
            batteries.append((f"{geometry}[{label}]", geometry, options))
    for name, geometry, options in batteries:
        try:
            checked = run_conformance(geometry, overlay_options=options)
        except AssertionError as error:  # pragma: no cover - only on violation
            failures += 1
            print(f"  {name}: FAILED {error}")
            continue
        total = sum(checked.values())
        print(f"  {name}: OK ({len(checked)} checks, {total} outcomes compared)")
    for label, backend in conformance_backends():
        if label == "python-loop":
            continue  # uncompiled loops are far too slow for pooled grids
        for check, name, scope in (
            (assert_worker_parity, "workers", f"across workers {WORKER_COUNTS}"),
            (assert_reference_parity, "reference", "vs the per-cell reference"),
        ):
            try:
                cells = check(geometries, backend)
            except AssertionError as error:  # pragma: no cover - only on violation
                failures += 1
                print(f"  {name}[{label}]: FAILED {error}")
                continue
            print(f"  {name}[{label}]: OK ({cells} cells {scope})")
    if failures:
        print(f"conformance: {failures} geometry/dispatch group(s) FAILED")
        return 1
    print("conformance: all registered specs agree with their scalar oracles")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
