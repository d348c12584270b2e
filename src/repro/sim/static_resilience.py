"""Monte-Carlo measurement of DHT routability under static random failures.

This is the reproduction's stand-in for the simulation study of Gummadi et
al. (SIGCOMM 2003) whose data points the paper compares against in
Figure 6: build an overlay over a fully populated ``d``-bit space, fail each
node independently with probability ``q``, freeze the routing tables, then
sample surviving (source, destination) pairs and attempt to route between
them.  The measured fraction of failed paths is the Monte-Carlo estimate of
``1 - routability``.

The module exposes three levels of API:

* :func:`measure_routability` — one overlay, one failure probability.
* :func:`sweep_failure_probabilities` — one overlay, a list of ``q`` values
  (the shape of the paper's Figure 6 curves).
* :func:`simulate_geometry` — convenience wrapper that builds the overlay
  from a geometry name.

Routing runs on the vectorized batch engine (:mod:`repro.sim.engine`) by
default, with all trials of a measurement fused into one stacked-mask
kernel invocation; pass ``engine="scalar"`` to route pairs one at a time
through the overlays' ``route`` methods instead.  The two paths are
property-tested to produce identical outcomes pair-for-pair (the scalar
path is the oracle), so the choice only affects speed.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Type, Union

import numpy as np

from ..dht import (
    OVERLAY_CLASSES,
    Overlay,
    RoutingMetrics,
    UniformNodeFailure,
    make_rng,
    summarize_routes,
)
from ..dht.failures import FailureModel, check_failure_model_kind, make_failure_model
from ..exceptions import InvalidParameterError, UnknownGeometryError
from ..validation import (
    check_failure_probability,
    check_identifier_length,
    check_positive_int,
)
from .engine import (
    ROUTING_ENGINES,
    BackendLike,
    SweepCellResult,
    _measure_cells,
    _route_cell_groups,
    check_engine,
    resolve_backend,
)
from .sampling import sample_survivor_pair_arrays

__all__ = [
    "StaticResilienceResult",
    "ResilienceSweepResult",
    "measure_routability",
    "sweep_failure_probabilities",
    "simulate_geometry",
    "build_overlay",
    "ROUTING_ENGINES",
]


@dataclass(frozen=True)
class StaticResilienceResult:
    """Measured routability of one overlay at one failure probability.

    Attributes
    ----------
    geometry:
        Paper geometry label of the overlay ("tree", "hypercube", ...).
    system:
        Representative system name ("Plaxton", "CAN", ...).
    d:
        Identifier length; the overlay has ``N = 2^d`` nodes.
    q:
        Node failure probability used for this measurement.
    trials:
        Number of independent failure patterns that were sampled.
    pairs_per_trial:
        Number of surviving (source, destination) pairs routed per trial.
    metrics:
        Pooled :class:`~repro.dht.metrics.RoutingMetrics` over all trials.
    degenerate_trials:
        Trials in which fewer than two nodes survived (possible only at
        extreme ``q``); such trials contribute no routing attempts.
    failure_model:
        Label of the failure model that generated the survival masks: a
        registry kind (``"uniform"``, ``"targeted"``, ...) or a custom
        model's description.  ``q`` is that model's severity.
    """

    geometry: str
    system: str
    d: int
    q: float
    trials: int
    pairs_per_trial: int
    metrics: RoutingMetrics
    degenerate_trials: int = 0
    failure_model: str = "uniform"

    @property
    def routability(self) -> float:
        """Measured routability (fraction of sampled surviving pairs that routed)."""
        return self.metrics.routability

    @property
    def failed_path_fraction(self) -> float:
        """Measured fraction of failed paths (the paper's Figure 6 y-axis)."""
        return self.metrics.failed_path_fraction

    @property
    def failed_path_percent(self) -> float:
        """Measured percentage of failed paths."""
        return 100.0 * self.metrics.failed_path_fraction


@dataclass(frozen=True)
class ResilienceSweepResult:
    """Measured routability of one overlay across a sweep of failure probabilities.

    ``backend_name`` records which kernel backend produced the numbers (for
    benchmark attribution); it is metadata only — every backend measures
    bit-identical metrics.  ``failure_model`` labels the failure model the
    sweep ran under (``"mixed"`` when the points used different models).
    """

    geometry: str
    system: str
    d: int
    results: Tuple[StaticResilienceResult, ...]
    backend_name: Optional[str] = None
    failure_model: str = "uniform"

    @property
    def failure_probabilities(self) -> Tuple[float, ...]:
        """The ``q`` values of the sweep, in the order they were simulated."""
        return tuple(result.q for result in self.results)

    @property
    def failed_path_percentages(self) -> Tuple[float, ...]:
        """Measured percent of failed paths for each ``q``."""
        return tuple(result.failed_path_percent for result in self.results)

    @property
    def routabilities(self) -> Tuple[float, ...]:
        """Measured routability for each ``q``."""
        return tuple(result.routability for result in self.results)

    def as_rows(self) -> List[Dict[str, object]]:
        """Rows suitable for tabular reports: one dict per ``q``.

        Zero-attempt points (every trial degenerate at extreme severity)
        report ``None`` rather than ``nan`` — the ``attempts`` column makes
        the "no data" case explicit, and ``None`` survives both CSV/text
        rendering (as ``-``) and strict JSON (as ``null``).
        """
        return [
            {
                "q": result.q,
                "routability": result.metrics.routability_or_none,
                "failed_path_percent": (
                    100.0 * result.metrics.failed_path_fraction_or_none
                    if result.metrics.measured
                    else None
                ),
                "attempts": result.metrics.attempts,
            }
            for result in self.results
        ]


def _pooled_result(
    geometry: str, system: str, d: int, q: float,
    trial_metrics: Sequence[Optional[RoutingMetrics]], *, pairs: int, failure_model: str,
) -> StaticResilienceResult:
    """Pool per-trial metrics in trial order; ``None`` marks a degenerate trial."""
    measured = [metrics for metrics in trial_metrics if metrics is not None]
    pooled = functools.reduce(RoutingMetrics.merged_with, measured) if measured else summarize_routes([])
    return StaticResilienceResult(
        geometry=geometry, system=system, d=d, q=q, trials=len(trial_metrics), pairs_per_trial=pairs,
        metrics=pooled, degenerate_trials=len(trial_metrics) - len(measured), failure_model=failure_model,
    )


def _pool_sweep(
    geometry: str, system: str, d: int, points: Sequence[Tuple[float, Sequence[SweepCellResult]]],
    *, pairs: int, backend_name: Optional[str], failure_model: str,
) -> ResilienceSweepResult:
    """Pool each ``(q, cell results in replicate order)`` point into a sweep result.

    The one pooling step of the grid-driven sweeps: :meth:`SweepRunner.sweep
    <repro.sim.engine.SweepRunner.sweep>` (uniform and adaptive) and the
    adaptive branch of :func:`sweep_failure_probabilities`.
    """
    results = tuple(
        _pooled_result(
            geometry, system, d, q, [None if cell.degenerate else cell.metrics for cell in cells],
            pairs=pairs, failure_model=failure_model,
        )
        for q, cells in points
    )
    return ResilienceSweepResult(
        geometry=geometry, system=system, d=d, results=results,
        backend_name=backend_name, failure_model=failure_model,
    )


def build_overlay(
    geometry: str,
    d: int,
    *,
    seed: Optional[int] = None,
    rng: Optional[np.random.Generator] = None,
    **overlay_options,
) -> Overlay:
    """Build the overlay simulator for ``geometry`` over a ``d``-bit space.

    ``geometry`` is one of the paper's labels: ``"tree"``, ``"hypercube"``,
    ``"xor"``, ``"ring"`` or ``"smallworld"``.  Extra keyword arguments are
    forwarded to the overlay's ``build`` method (e.g. ``near_neighbors``
    and ``shortcuts`` for Symphony).
    """
    d = check_identifier_length(d)
    try:
        overlay_cls: Type[Overlay] = OVERLAY_CLASSES[geometry]
    except KeyError as exc:
        raise UnknownGeometryError(
            f"unknown geometry {geometry!r}; expected one of {sorted(OVERLAY_CLASSES)}"
        ) from exc
    return overlay_cls.build(d, seed=seed, rng=rng, **overlay_options)


def measure_routability(
    overlay: Overlay,
    q: float,
    *,
    pairs: int = 2000,
    trials: int = 3,
    rng: Optional[np.random.Generator] = None,
    seed: Optional[int] = None,
    failure_model: Optional[FailureModel] = None,
    engine: str = "batch",
    batch_size: Optional[int] = None,
    backend: BackendLike = None,
) -> StaticResilienceResult:
    """Estimate the routability of ``overlay`` at failure probability ``q``.

    Parameters
    ----------
    overlay:
        A built overlay simulator (its routing tables are reused across trials).
    q:
        Node failure probability.  Ignored when an explicit ``failure_model``
        is supplied (the model then defines the failure pattern and ``q`` is
        only recorded for reporting).
    pairs:
        Surviving (source, destination) pairs sampled per trial.
    trials:
        Independent failure patterns to average over.
    failure_model:
        Optional alternative failure model; defaults to the paper's uniform
        node-failure model with probability ``q``.  The model is bound to
        the overlay first (:meth:`~repro.dht.failures.FailureModel.bind`),
        so overlay-dependent models such as
        :class:`~repro.dht.failures.DegreeTargetedFailure` can be passed
        directly.
    engine:
        ``"batch"`` stacks all trials' survival masks and routes every
        sampled pair of the measurement in one fused engine invocation
        (:func:`repro.sim.engine.route_pairs_stacked`); ``"scalar"`` routes
        pairs one at a time through ``overlay.route``.  Both consume the
        random stream identically and produce identical metrics.
    batch_size:
        Optional chunk size for the batch engine (bounds peak memory).
    backend:
        Kernel backend for the batch engine (name or instance; ``"auto"``
        picks the fastest available).  Backends are bit-identical, so the
        choice only affects speed.
    """
    q = check_failure_probability(q)
    pairs = check_positive_int(pairs, "pairs")
    trials = check_positive_int(trials, "trials")
    engine = check_engine(engine)
    generator = make_rng(rng, seed)
    model = failure_model if failure_model is not None else UniformNodeFailure(q)
    model_label = "uniform" if failure_model is None else failure_model.description
    model = model.bind(overlay)

    # Mask generation is one vectorized sample_batch call — property-tested
    # stream-identical to sampling the masks one trial at a time — while
    # pair sampling stays a sequential per-trial loop.  Both engines share
    # this sampling code, so batch and scalar consume the stream draw for
    # draw and measure bit-identical metrics.  Note the draw *order* is
    # masks-then-pairs since PR 4 (previously mask and pair draws
    # interleaved per trial), so seeded multi-trial numbers differ from
    # pre-PR-4 releases; the cross-engine/backend invariants are
    # unaffected.  Routing is deferred until every trial is sampled, which
    # consumes no randomness.
    groups = []
    for alive in model.sample_batch(overlay.n_nodes, trials, generator):
        if int(alive.sum()) < 2:
            groups.append(None)
            continue
        sources, destinations = sample_survivor_pair_arrays(alive, pairs, generator)
        groups.append((alive, sources, destinations))
    if engine == "batch":
        trial_metrics = _route_cell_groups(
            overlay, groups, batch_size=batch_size, backend=backend
        )
    else:
        trial_metrics = [
            None
            if group is None
            else summarize_routes(
                overlay.route(int(source), int(destination), group[0])
                for source, destination in zip(group[1].tolist(), group[2].tolist())
            )
            for group in groups
        ]
    return _pooled_result(
        overlay.geometry_name, overlay.system_name, overlay.d, q, trial_metrics,
        pairs=pairs, failure_model=model_label,
    )


FailureModelsLike = Union[str, FailureModel, Sequence[Optional[FailureModel]], None]


def _resolve_sweep_models(
    failure_probabilities: Sequence[float], failure_models: FailureModelsLike
) -> Tuple[List[Optional[FailureModel]], str]:
    """Per-point failure models plus the sweep's model label.

    ``failure_models`` may be ``None`` (the paper's uniform model at every
    point), a registry kind name (one model of that kind per point, at the
    point's severity), a single :class:`FailureModel` (reused at every
    point; the severities are then reporting-only), or a sequence of models
    aligned with ``failure_probabilities``.
    """
    count = len(failure_probabilities)
    if failure_models is None:
        return [None] * count, "uniform"
    if isinstance(failure_models, str):
        if failure_models == "uniform":
            # The default path, spelled explicitly: keep the exact uniform
            # metadata and stream of failure_models=None.
            return [None] * count, "uniform"
        return (
            [make_failure_model(failure_models, q) for q in failure_probabilities],
            failure_models,
        )
    if isinstance(failure_models, FailureModel):
        return [failure_models] * count, failure_models.description
    models = list(failure_models)
    if len(models) != count:
        raise InvalidParameterError(
            f"failure_models has {len(models)} entries but the sweep has "
            f"{count} failure probabilities"
        )
    labels = {
        "uniform" if model is None else model.description for model in models
    }
    return models, labels.pop() if len(labels) == 1 else "mixed"


def sweep_failure_probabilities(
    overlay: Overlay,
    failure_probabilities: Sequence[float],
    *,
    pairs: int = 2000,
    trials: int = 3,
    rng: Optional[np.random.Generator] = None,
    seed: Optional[int] = None,
    failure_models: FailureModelsLike = None,
    engine: str = "batch",
    batch_size: Optional[int] = None,
    backend: BackendLike = None,
    adaptive=None,
) -> ResilienceSweepResult:
    """Measure routability of ``overlay`` across a sweep of failure probabilities.

    ``failure_models`` selects the failure model(s) the sweep runs under
    (see :func:`_resolve_sweep_models` for the accepted forms); by default
    every point uses the paper's uniform model at its ``q``.

    ``adaptive`` optionally switches to variance-adaptive trial allocation
    (an :class:`~repro.sim.adaptive.AdaptiveConfig`): ``trials`` then acts
    as the per-point budget cap and each point freezes once its pooled
    routability CI half-width reaches the target.  Adaptive mode draws each
    trial from the engine's per-cell entropy scheme (trial ``k`` of a point
    is grid replicate ``k``), so a point that consumed ``k`` trials is
    byte-equal to the first ``k`` replicates of a
    :class:`~repro.sim.engine.SweepRunner` sweep on the same overlay build;
    it requires the batch engine, an integer ``seed`` (not an ``rng``
    stream) and a registry failure-model kind.
    """
    if len(failure_probabilities) == 0:
        raise InvalidParameterError("failure_probabilities must not be empty")
    engine = check_engine(engine)
    if adaptive is not None:
        return _adaptive_sweep(
            overlay,
            failure_probabilities,
            pairs=pairs,
            trials=trials,
            rng=rng,
            seed=seed,
            failure_models=failure_models,
            engine=engine,
            batch_size=batch_size,
            backend=backend,
            adaptive=adaptive,
        )
    models, model_label = _resolve_sweep_models(failure_probabilities, failure_models)
    # The scalar oracle path routes through Overlay.route and uses no kernel
    # backend at all; resolving one there would only emit a misleading
    # fallback warning (and record a backend that produced nothing).
    resolved_backend = resolve_backend(backend) if engine == "batch" else None
    generator = make_rng(rng, seed)
    results = tuple(
        measure_routability(
            overlay,
            q,
            pairs=pairs,
            trials=trials,
            rng=generator,
            failure_model=model,
            engine=engine,
            batch_size=batch_size,
            backend=resolved_backend,
        )
        for q, model in zip(failure_probabilities, models)
    )
    return ResilienceSweepResult(
        geometry=overlay.geometry_name,
        system=overlay.system_name,
        d=overlay.d,
        results=results,
        backend_name=resolved_backend.name if resolved_backend is not None else None,
        failure_model=model_label,
    )


def _adaptive_sweep(
    overlay: Overlay,
    failure_probabilities: Sequence[float],
    *,
    pairs: int,
    trials: int,
    rng: Optional[np.random.Generator],
    seed: Optional[int],
    failure_models: FailureModelsLike,
    engine: str,
    batch_size: Optional[int],
    backend: BackendLike,
    adaptive,
) -> ResilienceSweepResult:
    """The adaptive branch of :func:`sweep_failure_probabilities`.

    Each trial of a point is one engine grid cell (``replicate = trial
    index``) sampled with the per-cell entropy streams of
    :func:`~repro.sim.engine._sample_cell`, so the allocator can extend any
    point's trial count without perturbing another point's stream — the
    property uniform sequential ``rng`` consumption cannot provide.
    """
    from .adaptive import AdaptiveConfig, SweepPoint, run_allocation

    if not isinstance(adaptive, AdaptiveConfig):
        raise InvalidParameterError(
            f"adaptive must be an AdaptiveConfig (got {type(adaptive).__name__})"
        )
    if engine != "batch":
        raise InvalidParameterError(
            "adaptive allocation requires the batch engine (per-cell entropy "
            "streams); the scalar oracle path only supports uniform sweeps"
        )
    if rng is not None:
        raise InvalidParameterError(
            "adaptive allocation derives per-cell streams from an integer seed; "
            "pass seed=... instead of an rng generator"
        )
    if failure_models is None:
        model_kind = "uniform"
    elif isinstance(failure_models, str):
        model_kind = check_failure_model_kind(failure_models)
    else:
        raise InvalidParameterError(
            "adaptive allocation supports failure_models=None or a registry "
            "kind name (per-cell streams need a model kind in the cell key)"
        )
    pairs = check_positive_int(pairs, "pairs")
    # The paper's arXiv submission date: the same default base seed as
    # SweepRunner, so overlay-level and runner-level adaptive sweeps agree.
    base_seed = 20060328 if seed is None else int(seed)
    config = adaptive.resolved(trials)
    resolved_backend = resolve_backend(backend)
    points = [
        SweepPoint(
            geometry=overlay.geometry_name,
            d=overlay.d,
            q=check_failure_probability(q),
            model=model_kind,
        )
        for q in failure_probabilities
    ]

    def run_round(batch):
        # Every cell samples from its own stream, and the round's cells are
        # routed as one group on the overlay, like one runner task.
        measured = _measure_cells(
            overlay, batch, pairs, base_seed, batch_size=batch_size, backend=resolved_backend
        )
        return dict(zip(batch, measured))

    results, _ = run_allocation(points, run_round, config)
    return _pool_sweep(
        overlay.geometry_name, overlay.system_name, overlay.d,
        [(point.q, results[point]) for point in points],
        pairs=pairs, backend_name=resolved_backend.name, failure_model=model_kind,
    )


def simulate_geometry(
    geometry: str,
    d: int,
    failure_probabilities: Sequence[float],
    *,
    pairs: int = 2000,
    trials: int = 3,
    seed: Optional[int] = None,
    failure_models: FailureModelsLike = None,
    engine: str = "batch",
    batch_size: Optional[int] = None,
    backend: BackendLike = None,
    adaptive=None,
    **overlay_options,
) -> ResilienceSweepResult:
    """Build the overlay for ``geometry`` and sweep the given failure probabilities.

    This is the one-call entry point used by the Figure 6 experiments and
    the quickstart example.  ``adaptive`` switches to variance-adaptive
    trial allocation (see :func:`sweep_failure_probabilities`).
    """
    generator = np.random.default_rng(seed)
    overlay = build_overlay(geometry, d, rng=generator, **overlay_options)
    if adaptive is not None:
        return sweep_failure_probabilities(
            overlay,
            failure_probabilities,
            pairs=pairs,
            trials=trials,
            seed=seed,
            failure_models=failure_models,
            engine=engine,
            batch_size=batch_size,
            backend=backend,
            adaptive=adaptive,
        )
    return sweep_failure_probabilities(
        overlay,
        failure_probabilities,
        pairs=pairs,
        trials=trials,
        rng=generator,
        failure_models=failure_models,
        engine=engine,
        batch_size=batch_size,
        backend=backend,
    )
