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
* :func:`simulate_geometry` — builds the overlays from a geometry name and
  runs the same sweep ``rcm simulate`` runs.

All three sample with the sweep runner's discipline: trial ``k`` of a point
is the grid cell with replicate ``k``, drawn from that cell's own entropy
stream (:func:`repro.sim.engine._sample_cell`) under an integer base seed,
and every cell on one overlay is routed in one fused engine call.  The
scalar ``Overlay.route`` oracle is not a mode of this API: the conformance
harness (:mod:`repro.sim.conformance`) routes the same cells through the
oracle and checks that the metrics match.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Type

import numpy as np

from ..dht import OVERLAY_CLASSES, Overlay, RoutingMetrics, summarize_routes
from ..dht.failures import FAILURE_MODEL_KINDS, check_failure_model_kind
from ..exceptions import InvalidParameterError, UnknownGeometryError
from ..validation import (
    check_failure_probability,
    check_identifier_length,
    check_non_negative_int,
    check_positive_int,
)
from ..workloads.generators import DEFAULT_BASE_SEED
from .engine import BackendLike, SweepCellResult, SweepRunner, _measure_cells, resolve_backend

__all__ = [
    "StaticResilienceResult",
    "ResilienceSweepResult",
    "measure_routability",
    "sweep_failure_probabilities",
    "simulate_geometry",
    "build_overlay",
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
        Registry kind of the failure model that generated the survival
        masks (``"uniform"``, ``"targeted"``, ...).  ``q`` is that model's
        severity.
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
    bit-identical metrics.  ``failure_model`` is the registry kind of the
    failure model the sweep ran under.
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
    <repro.sim.engine.SweepRunner.sweep>` and
    :func:`sweep_failure_probabilities`, uniform and adaptive alike.
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


def _model_kind(failure_model: str) -> str:
    """Validate the failure-model registry kind a library sweep runs under.

    A kind name is part of every cell's entropy key, so model instances and
    per-point lists are rejected rather than guessed at.
    """
    if not isinstance(failure_model, str):
        raise InvalidParameterError(
            f"failure models are registry kinds, one of {FAILURE_MODEL_KINDS}; "
            f"got a {type(failure_model).__name__}"
        )
    return check_failure_model_kind(failure_model)


def _base_seed(seed: Optional[int]) -> int:
    """The base seed of every cell stream; ``None`` is the runner's default."""
    return DEFAULT_BASE_SEED if seed is None else check_non_negative_int(seed, "seed")


def measure_routability(
    overlay: Overlay,
    q: float,
    *,
    pairs: int = 2000,
    trials: int = 3,
    seed: Optional[int] = None,
    failure_model: str = "uniform",
    backend: BackendLike = None,
) -> StaticResilienceResult:
    """Estimate the routability of ``overlay`` at failure probability ``q``.

    The one-point case of :func:`sweep_failure_probabilities`: trial ``k``
    is the sweep cell with replicate ``k``, sampled from that cell's own
    stream and routed with the other trials in one fused engine call.

    Parameters
    ----------
    overlay:
        A built overlay simulator (its routing tables are reused across trials).
    q:
        Severity of the failure model: the node failure probability for the
        paper's uniform model, the failed fraction for the others.
    pairs:
        Surviving (source, destination) pairs sampled per trial.
    trials:
        Independent failure patterns to average over.
    seed:
        Base seed of the per-cell streams; ``None`` is the default base seed
        of :class:`~repro.sim.engine.SweepRunner`.
    failure_model:
        Registry kind of the failure model
        (:data:`~repro.dht.failures.FAILURE_MODEL_KINDS`); the paper's
        uniform model by default.  Overlay-dependent kinds such as
        ``"targeted"`` are bound to ``overlay`` before sampling.
    backend:
        Kernel backend (name or instance; ``"auto"`` picks the fastest
        available).  Backends are bit-identical, so the choice only affects
        speed.
    """
    return sweep_failure_probabilities(
        overlay, [q], pairs=pairs, trials=trials, seed=seed, failure_models=failure_model,
        backend=backend,
    ).results[0]


def sweep_failure_probabilities(
    overlay: Overlay,
    failure_probabilities: Sequence[float],
    *,
    pairs: int = 2000,
    trials: int = 3,
    seed: Optional[int] = None,
    failure_models: str = "uniform",
    backend: BackendLike = None,
    adaptive=None,
) -> ResilienceSweepResult:
    """Measure routability of ``overlay`` across a sweep of failure probabilities.

    Trial ``k`` of the point ``q`` is the grid cell ``SweepCell(geometry, d,
    q, k, failure_models)``, sampled from that cell's own entropy stream
    (:func:`~repro.sim.engine._sample_cell`), and every cell of the sweep is
    routed in one fused engine call on ``overlay``.  A point therefore
    measures exactly what the same replicates of a
    :class:`~repro.sim.engine.SweepRunner` sweep measure on the same overlay
    build.  ``failure_models`` is one registry kind for every point.

    ``adaptive`` optionally switches to variance-adaptive trial allocation
    (an :class:`~repro.sim.adaptive.AdaptiveConfig`): ``trials`` then acts
    as the per-point budget cap and each point freezes once its pooled
    routability CI half-width reaches the target.  The allocator requests
    the same cells, so a point that consumed ``k`` trials is byte-equal to
    the first ``k`` trials of the uniform call.
    """
    # Imported here so that ``import repro`` does not load the allocator.
    from .adaptive import AdaptiveConfig, SweepPoint, run_allocation

    if len(failure_probabilities) == 0:
        raise InvalidParameterError("failure_probabilities must not be empty")
    kind = _model_kind(failure_models)
    pairs = check_positive_int(pairs, "pairs")
    trials = check_positive_int(trials, "trials")
    base_seed = _base_seed(seed)
    resolved_backend = resolve_backend(backend)
    points = [
        SweepPoint(overlay.geometry_name, overlay.d, check_failure_probability(q), kind)
        for q in failure_probabilities
    ]

    def measure(cells):
        results = _measure_cells(overlay, cells, pairs, base_seed, backend=resolved_backend)
        return dict(zip(cells, results))

    if adaptive is None:
        measured = measure([point.cell(r) for point in points for r in range(trials)])
        results = {point: [measured[point.cell(r)] for r in range(trials)] for point in points}
    elif isinstance(adaptive, AdaptiveConfig):
        results, _ = run_allocation(points, measure, adaptive.resolved(trials))
    else:
        raise InvalidParameterError(
            f"adaptive must be an AdaptiveConfig (got {type(adaptive).__name__})"
        )
    return _pool_sweep(
        overlay.geometry_name, overlay.system_name, overlay.d,
        [(point.q, results[point]) for point in points],
        pairs=pairs, backend_name=resolved_backend.name, failure_model=kind,
    )


def simulate_geometry(
    geometry: str,
    d: int,
    failure_probabilities: Sequence[float],
    *,
    pairs: int = 2000,
    trials: int = 3,
    seed: Optional[int] = None,
    failure_models: str = "uniform",
    backend: BackendLike = None,
    adaptive=None,
    **overlay_options,
) -> ResilienceSweepResult:
    """Sweep ``geometry`` over the given failure probabilities, as ``rcm simulate`` does.

    One in-process :class:`~repro.sim.engine.SweepRunner` sweep with
    ``seed`` as its base seed and ``trials`` replicates: each replicate
    builds its own overlay from the cell stream, so the rows equal those
    ``rcm simulate`` prints for the same arguments.  ``adaptive`` switches
    to variance-adaptive trial allocation (see
    :meth:`SweepRunner.sweep <repro.sim.engine.SweepRunner.sweep>`).
    """
    with SweepRunner(
        pairs=pairs, replicates=trials, base_seed=_base_seed(seed),
        backend=backend, overlay_options=overlay_options,
    ) as runner:
        return runner.sweep(
            geometry, d, failure_probabilities, _model_kind(failure_models), adaptive=adaptive
        )
