"""Churn extension: does the static-resilience model predict routability under churn?

The paper analyses a *static* failure model and notes that "the applicability
of the results derived from this static model to dynamic situations, such as
churn, is currently under study" (Section 1).  This module implements that
study as an extension of the reproduction:

* every node alternates between **online** and **offline** states — either
  as an independent two-state Markov chain sampled inline (per-step leave
  and rejoin probabilities, the standard discrete-time churn model), or by
  replaying a :class:`~repro.workloads.ChurnTrace` event stream
  (:attr:`ChurnConfig.trace`): Markov, heavy-tailed Pareto sessions, or a
  recorded real-world trace;
* routing tables are repaired only at **repair epochs**: between repairs, a
  routing-table entry is usable only if the referenced node was online at
  the last repair *and* is still online now (fast failure detection, slow
  re-establishment — exactly the asymmetry the paper uses to motivate the
  static model);
* the **effective failure probability** seen by the static model ``t`` steps
  after a repair is the probability that a node which was online at the
  repair is offline now, which for the two-state chain is

      q_eff(t) = (λ / (λ + μ)) · (1 − (1 − λ − μ)^t)

  with λ the per-step leave probability and μ the per-step rejoin
  probability (trace-driven runs report no ``q_eff`` — an arbitrary event
  stream has no closed form).

The experiment EXT-CHURN measures routability over time on a simulated
overlay under this process and compares it against the static RCM prediction
evaluated at ``q_eff(t)`` — quantifying how far the paper's static results
carry into dynamic settings; EXT-TRACE runs the trace-driven variants.

Routing steps in windows
------------------------
A step is a cell: its usable mask and its sampled pairs, ``None`` when fewer
than two nodes are usable.  :func:`simulate_churn` collects consecutive
steps into windows and routes each window as one fused stack through the
sweep's cell-group executor (``repro.sim.engine._route_cell_groups``), so a
hop advances every pair of the window at once.  A window is at most as
wide as the routing driver's sub-union and holds at most one pair chunk
(``repro.sim.engine._cells_per_window``: 8 steps of 2000 pairs at d=16, 32
at d=10 or below), so a run of any length holds at most one window of masks
and pairs.  The kernels mask only the table rows a hop visits
(see :mod:`repro.sim.backends.numpy_backend`), so a window's cost follows
its pairs, not the overlay size.  Stacked routing is row-independent:
every step measures what routing it alone would (``tests/test_churn.py``
and the conformance harness check it against the scalar oracle).

RNG discipline (the contract windowing must not move)
----------------------------------------------------
Per step the generator is consumed in exactly this order and nothing else
(:func:`_churn_trajectory` is the one place that draws):

1. **one** uniform vector ``generator.random(n_nodes)`` driving the inline
   Markov chain — skipped entirely in trace mode (replay consumes no
   randomness);
2. the survivor-pair sampling draws of
   :func:`repro.sim.sampling.sample_survivor_pair_arrays`, consumed only
   when the step samples pairs (at least two usable nodes).

Routing itself consumes no randomness and the trajectory is consumed in
step order, so how steps are grouped into windows never moves the stream:
the conformance harness's scalar-oracle churn run over the same trajectory
leaves the generator where :func:`simulate_churn` does and measures
identical rows (property-tested in ``tests/test_churn.py``).
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, MutableMapping, Optional, Tuple

import numpy as np

from ..dht.metrics import RoutingMetrics, summarize_routes
from ..dht.network import Overlay, make_rng
from ..exceptions import InvalidParameterError
from ..validation import check_positive_int, check_probability
from ..workloads.traces import ChurnTrace
from .backends import resolve_backend
from .engine import BackendLike, _cells_per_window, _PhaseClock, _route_cell_groups
from .sampling import sample_survivor_pair_arrays

__all__ = [
    "ChurnConfig",
    "ChurnStepResult",
    "ChurnSimulationResult",
    "CHURN_PROFILE_PHASES",
    "effective_failure_probability",
    "simulate_churn",
]

#: Wall-clock phases of one churn run, in reporting order, named as in
#: ``repro.sim.engine.PROFILE_PHASES``: the churn trajectory (usable masks
#: and pair sampling), advancing the hop kernels, and reducing per-pair
#: outcomes to metrics.
CHURN_PROFILE_PHASES = ("mask_generation", "kernel_hops", "reduction")


@dataclass(frozen=True)
class ChurnConfig:
    """Parameters of the churn process and of the measurement.

    Attributes
    ----------
    leave_probability:
        Per-step probability that an online node goes offline (λ).
    rejoin_probability:
        Per-step probability that an offline node comes back online (μ).
    steps_per_epoch:
        Number of churn steps simulated after the repair epoch (ignored
        when a trace drives the run — the trace's ``n_steps`` wins).
    pairs_per_step:
        Routing attempts sampled at every step.
    trace:
        Optional :class:`~repro.workloads.ChurnTrace` replacing the inline
        Markov chain: the run replays the trace's join/leave events instead
        of drawing them, making arbitrary recorded or generated churn
        histories a first-class workload.  The probabilities above are
        ignored while a trace drives the run.
    repair_every:
        Optional repair period: every ``repair_every`` steps the routing
        tables are re-established to the currently-online set (a new repair
        epoch begins and ``q_eff`` counts from it).  ``None`` keeps the
        single-epoch behaviour.
    """

    leave_probability: float = 0.02
    rejoin_probability: float = 0.05
    steps_per_epoch: int = 20
    pairs_per_step: int = 500
    trace: Optional[ChurnTrace] = None
    repair_every: Optional[int] = None

    def __post_init__(self) -> None:
        check_probability(self.leave_probability, "leave_probability")
        check_probability(self.rejoin_probability, "rejoin_probability")
        check_positive_int(self.steps_per_epoch, "steps_per_epoch")
        check_positive_int(self.pairs_per_step, "pairs_per_step")
        if self.repair_every is not None:
            check_positive_int(self.repair_every, "repair_every")
        if self.trace is not None and not isinstance(self.trace, ChurnTrace):
            raise InvalidParameterError("trace must be a ChurnTrace (or None)")
        if (
            self.trace is None
            and self.leave_probability == 0.0
            and self.rejoin_probability == 0.0
        ):
            raise InvalidParameterError(
                "at least one of leave_probability / rejoin_probability must be positive"
            )

    @property
    def stationary_offline_fraction(self) -> float:
        """Long-run fraction of time a node spends offline, λ / (λ + μ)."""
        total = self.leave_probability + self.rejoin_probability
        return self.leave_probability / total

    @property
    def total_steps(self) -> int:
        """Steps one run simulates: the trace's length, else ``steps_per_epoch``."""
        if self.trace is not None:
            return self.trace.n_steps
        return self.steps_per_epoch


def effective_failure_probability(config: ChurnConfig, steps_since_repair: int) -> float:
    """``q_eff(t)``: probability a node online at the repair epoch is offline ``t`` steps later.

    This is the failure probability the static model should be evaluated at
    to predict routability ``t`` steps into an epoch.
    """
    t = int(steps_since_repair)
    if t < 0:
        raise InvalidParameterError(f"steps_since_repair must be non-negative, got {t}")
    if t == 0:
        return 0.0
    decay = (1.0 - config.leave_probability - config.rejoin_probability) ** t
    return config.stationary_offline_fraction * (1.0 - decay)


@dataclass(frozen=True)
class ChurnStepResult:
    """Measured and predicted routability at one churn step.

    Attributes
    ----------
    step:
        Steps elapsed since the start of the run (1-based).
    effective_q:
        The static-model effective failure probability ``q_eff`` at this
        step's distance from the last repair — ``None`` for trace-driven
        runs, which have no closed-form prediction.
    online_fraction:
        Fraction of all nodes currently online.
    usable_fraction:
        Fraction of nodes that were online at the last repair and still are
        (these are the nodes whose routing-table entries remain usable).
    metrics:
        Measured routing metrics over the sampled pairs at this step.
    """

    step: int
    effective_q: Optional[float]
    online_fraction: float
    usable_fraction: float
    metrics: RoutingMetrics

    @property
    def measured_routability(self) -> float:
        """Fraction of sampled pairs that routed at this step."""
        return self.metrics.routability


@dataclass(frozen=True)
class ChurnSimulationResult:
    """Per-step routability of one overlay under churn.

    ``backend_name`` records which kernel backend routed the steps (the
    resolved name, never ``"auto"``); like
    :attr:`~repro.sim.static_resilience.ResilienceSweepResult.backend_name`
    it is metadata only — every backend measures bit-identical rows.
    """

    geometry: str
    d: int
    config: ChurnConfig
    steps: Tuple[ChurnStepResult, ...]
    backend_name: Optional[str] = None

    def as_rows(self) -> List[Dict[str, object]]:
        """Rows (one per step) for tabular reports.

        Steps at which no pairs could be sampled (fewer than two usable
        nodes) report ``None`` instead of a ``nan`` routability; the
        ``attempts`` column makes the zero-attempt case explicit, so the
        rows stay valid under strict JSON and clean in CSV/text reports.
        Trace-driven runs report a ``None`` ``effective_q``.
        """
        return [
            {
                "step": result.step,
                "effective_q": result.effective_q,
                "usable_fraction": result.usable_fraction,
                "measured_routability": result.metrics.routability_or_none,
                "attempts": result.metrics.attempts,
            }
            for result in self.steps
        ]


def _churn_trajectory(
    overlay: Overlay, config: ChurnConfig, generator: np.random.Generator
) -> Iterator[Tuple[np.ndarray, Optional[Tuple[np.ndarray, np.ndarray]], Callable]]:
    """Yield each churn step's ``(usable, pairs, finish)``, drawing the RNG in the documented order.

    ``usable`` is the step's usable-node mask, ``pairs`` its sampled
    ``(sources, destinations)`` — ``None`` when fewer than two nodes are
    usable — and ``finish(metrics=...)`` builds the step's
    :class:`ChurnStepResult`.  :func:`simulate_churn` routes the pairs on
    the batch engine; the conformance harness routes the same trajectory
    through the scalar oracle.
    """
    trace = config.trace
    n = overlay.n_nodes
    if trace is not None and trace.n_nodes != n:
        raise InvalidParameterError(
            f"trace covers {trace.n_nodes} nodes but the overlay has {n}"
        )
    online = np.ones(n, dtype=bool)  # state at the initial repair epoch
    online_at_repair = online.copy()
    steps_since_repair = 0
    for step in range(1, config.total_steps + 1):
        if config.repair_every is not None and steps_since_repair >= config.repair_every:
            online_at_repair = online.copy()
            steps_since_repair = 0
        if trace is None:
            random_draws = generator.random(n)
            leaving = online & (random_draws < config.leave_probability)
            rejoining = (~online) & (random_draws < config.rejoin_probability)
            online = (online & ~leaving) | rejoining
        else:
            event_nodes, event_joins = trace.events_at(step)
            if event_nodes.size:
                online = online.copy()
                online[event_nodes[~event_joins]] = False
                online[event_nodes[event_joins]] = True
        steps_since_repair += 1
        usable = online_at_repair & online
        pairs = None
        if int(usable.sum()) >= 2:
            pairs = sample_survivor_pair_arrays(usable, config.pairs_per_step, generator)
        yield usable, pairs, functools.partial(
            ChurnStepResult,
            step=step,
            effective_q=(
                effective_failure_probability(config, steps_since_repair)
                if trace is None
                else None
            ),
            online_fraction=float(online.mean()),
            usable_fraction=float(usable.mean()),
        )


def simulate_churn(
    overlay: Overlay,
    config: ChurnConfig,
    *,
    rng: Optional[np.random.Generator] = None,
    seed: Optional[int] = None,
    backend: BackendLike = None,
    profile: Optional[MutableMapping[str, float]] = None,
) -> ChurnSimulationResult:
    """Simulate churn on ``overlay`` and measure routability per step.

    The run starts with every node online and the routing tables fresh (a
    repair has just completed).  At each subsequent step nodes leave and
    rejoin — drawn from the two-state chain, or replayed from
    ``config.trace`` when one is set; a routing-table entry is usable only
    if its node was online at the last repair *and* is online now, so the
    usable set shrinks between repairs exactly as the static model's
    ``q_eff(t)`` predicts.  Source/destination pairs are sampled among
    usable nodes.  ``config.repair_every`` periodically re-establishes the
    tables to the currently-online set.

    Steps are routed through the kernel backend selected by ``backend`` in
    windows of consecutive steps, each one fused stack of the sweep's
    cell-group executor (see the module docstring).  Routing consumes no
    randomness and backends are bit-identical, so neither ``backend`` nor
    the windows change the measured numbers — see the module docstring for
    the exact per-step RNG contract.

    ``profile`` optionally accumulates per-phase wall-clock seconds
    (:data:`CHURN_PROFILE_PHASES`) into the given mapping — the churn
    counterpart of the sweep profiler behind ``rcm simulate --profile``.
    """
    generator = make_rng(rng, seed)
    resolved = resolve_backend(backend)
    clock = _PhaseClock(profile)
    trajectory = _churn_trajectory(overlay, config, generator)
    width = _cells_per_window(overlay, config.pairs_per_step)
    steps: List[ChurnStepResult] = []
    while True:
        clock.start("mask_generation")
        window = list(itertools.islice(trajectory, width))
        clock.stop()
        if not window:
            break
        groups = [None if pairs is None else (usable, *pairs) for usable, pairs, _ in window]
        metrics = _route_cell_groups(overlay, groups, backend=resolved, clock=clock)
        steps.extend(
            finish(metrics=summarize_routes([]) if step_metrics is None else step_metrics)
            for (_, _, finish), step_metrics in zip(window, metrics)
        )
    return ChurnSimulationResult(
        geometry=overlay.geometry_name,
        d=overlay.d,
        config=config,
        steps=tuple(steps),
        backend_name=resolved.name,
    )
