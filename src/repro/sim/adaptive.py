"""Variance-adaptive trial allocation for resilience sweeps.

Uniform sweeps spend the same ``trials × pairs`` Monte-Carlo budget on every
``(geometry, d, q, model)`` point, even though routability variance collapses
near ``q ≈ 0`` and ``q ≈ 1`` and peaks only in the narrow transition band the
paper's resilience curves actually care about.  This module reallocates that
budget *sequentially*: sweeps run in rounds, and after each round every
point's pooled routing attempts yield a Wilson-score confidence interval on
its routability — points whose CI half-width is already under the target
**freeze** (they consume no further trials) while the remaining budget flows
to the high-variance points until they converge or hit ``max_trials``.

The allocator preserves the repo's determinism discipline end to end:

* **Rounds are replicate indices.**  A point that has consumed ``k`` trials
  has run exactly the cells ``replicate = 0 .. k-1`` of the uniform grid, so
  each cell keeps its PR-1 ``(geometry, d, replicate, q[, model])`` entropy
  key and its result is byte-equal to the same cell of a uniform sweep
  (tests/test_adaptive.py property-tests this across worker counts and
  against the per-cell reference).  Result-store hits therefore pool into the CI like fresh
  computations — a fully cached point freezes after its first round without
  routing a single pair.
* **The schedule is recorded.**  Every adaptive run produces an
  :class:`AllocationLedger` — one ``(point, trials)`` row per swept point,
  versioned text format ``rcm-adaptive-allocation v1`` — and replaying a
  ledger runs exactly the recorded cells, reproducing every measured row
  bit-identically without re-deciding anything.
* **Degenerate points freeze immediately.**  A point whose first
  ``min_trials`` trials produced zero surviving-pair attempts (extreme
  severity: fewer than two nodes survive) has no CI to tighten; it is frozen
  with reason ``"degenerate"`` instead of soaking up reallocated budget
  forever.

The allocator itself is execution-agnostic: :func:`run_allocation` drives
any ``run_cells`` callback that maps :class:`~repro.sim.engine.SweepCell`
lists to results, so :class:`~repro.sim.engine.SweepRunner` (fused dispatch,
worker pools, persistent store) and the overlay-level
:func:`~repro.sim.static_resilience.sweep_failure_probabilities` path share
one allocation loop.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from statistics import NormalDist
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from ..exceptions import InvalidParameterError
from ..validation import check_positive_int
from .engine import SweepCell, SweepCellResult

__all__ = [
    "AdaptiveConfig",
    "SweepPoint",
    "PointAllocation",
    "AdaptiveReport",
    "AllocationLedger",
    "wilson_interval",
    "wilson_halfwidth",
    "run_allocation",
    "FREEZE_REASONS",
]

#: Why a point stopped consuming trials: its CI half-width reached the
#: target (``"ci"``), it produced zero routing attempts in its first round
#: (``"degenerate"``), it exhausted ``max_trials`` (``"budget"``), or the
#: trial count was dictated by a replayed ledger (``"replay"``).
FREEZE_REASONS = ("ci", "degenerate", "budget", "replay")

_LEDGER_HEADER = "# rcm-adaptive-allocation v1"


def _check_unit_open(value: float, name: str) -> float:
    value = float(value)
    if not (0.0 < value < 1.0):
        raise InvalidParameterError(f"{name} must lie strictly between 0 and 1, got {value!r}")
    return value


def _z_score(confidence: float) -> float:
    """The two-sided normal critical value of ``confidence``."""
    return NormalDist().inv_cdf(0.5 + confidence / 2.0)


def wilson_interval(
    successes: int, attempts: int, confidence: float = 0.95
) -> Tuple[float, float]:
    """The Wilson score interval for a binomial proportion.

    The interval is the set of proportions ``p`` the normal-approximate
    score test does *not* reject at level ``1 - confidence``:
    ``(p_hat - p)^2 <= z^2 * p * (1 - p) / n`` — which, unlike the Wald
    interval, stays inside ``[0, 1]`` and behaves sensibly at ``p_hat``
    near 0 or 1 (exactly the flat regions of a resilience curve).
    Property-tested against a brute-force scan of that inequality.
    """
    attempts = check_positive_int(attempts, "attempts")
    successes = int(successes)
    if not 0 <= successes <= attempts:
        raise InvalidParameterError(
            f"successes must lie in [0, {attempts}], got {successes}"
        )
    confidence = _check_unit_open(confidence, "confidence")
    z = _z_score(confidence)
    n = float(attempts)
    p_hat = successes / n
    z2 = z * z
    denominator = 1.0 + z2 / n
    center = (p_hat + z2 / (2.0 * n)) / denominator
    spread = (z / denominator) * ((p_hat * (1.0 - p_hat) / n + z2 / (4.0 * n * n)) ** 0.5)
    return max(0.0, center - spread), min(1.0, center + spread)


def wilson_halfwidth(successes: int, attempts: int, confidence: float = 0.95) -> float:
    """Half the Wilson interval's width — the allocator's convergence measure."""
    low, high = wilson_interval(successes, attempts, confidence)
    return (high - low) / 2.0


@dataclass(frozen=True)
class AdaptiveConfig:
    """Parameters of one adaptive allocation.

    ``ci_target`` is the routability CI half-width a point must reach to
    freeze; ``min_trials`` is the first round's unconditional allocation
    (every point needs *some* attempts before its CI means anything);
    ``max_trials`` caps any point's budget (``None`` resolves to the sweep's
    uniform trial count, making the uniform run the adaptive run's
    worst case); ``confidence`` is the Wilson interval's confidence level.
    """

    ci_target: float
    min_trials: int = 2
    max_trials: Optional[int] = None
    confidence: float = 0.95

    def __post_init__(self) -> None:
        _check_unit_open(self.ci_target, "ci_target")
        check_positive_int(self.min_trials, "min_trials")
        if self.max_trials is not None:
            check_positive_int(self.max_trials, "max_trials")
            if self.max_trials < self.min_trials:
                raise InvalidParameterError(
                    f"max_trials ({self.max_trials}) must be >= min_trials ({self.min_trials})"
                )
        _check_unit_open(self.confidence, "confidence")

    def resolved(self, default_max_trials: int) -> "AdaptiveConfig":
        """This config with ``max_trials=None`` replaced by the sweep's trial count."""
        if self.max_trials is not None:
            return self
        default_max_trials = check_positive_int(default_max_trials, "max_trials")
        if default_max_trials < self.min_trials:
            raise InvalidParameterError(
                f"max_trials ({default_max_trials}) must be >= min_trials ({self.min_trials})"
            )
        return AdaptiveConfig(
            ci_target=self.ci_target,
            min_trials=self.min_trials,
            max_trials=default_max_trials,
            confidence=self.confidence,
        )


@dataclass(frozen=True)
class SweepPoint:
    """One measured point of a sweep curve: every replicate of one
    ``(geometry, d, q, model)`` pools into this point's estimate."""

    geometry: str
    d: int
    q: float
    model: str = "uniform"

    def cell(self, replicate: int) -> SweepCell:
        """The grid cell of this point's ``replicate``-th trial."""
        return SweepCell(
            geometry=self.geometry, d=self.d, q=self.q, replicate=replicate, model=self.model
        )


@dataclass(frozen=True)
class PointAllocation:
    """What one point consumed and why it stopped.

    ``halfwidth`` is the Wilson CI half-width of the pooled estimate over
    the allocated trials (``None`` for degenerate points — no attempts, no
    interval), and ``frozen_by`` is one of :data:`FREEZE_REASONS`.
    """

    point: SweepPoint
    trials: int
    attempts: int
    successes: int
    halfwidth: Optional[float]
    frozen_by: str


@dataclass(frozen=True)
class AdaptiveReport:
    """The complete accounting of one adaptive (or replayed) allocation."""

    config: AdaptiveConfig
    allocations: Tuple[PointAllocation, ...]
    rounds: int
    replayed: bool = False

    @property
    def trials_allocated(self) -> int:
        """Trials actually consumed across every point."""
        return sum(allocation.trials for allocation in self.allocations)

    @property
    def trials_uniform(self) -> int:
        """Trials a uniform sweep at ``max_trials`` would have consumed."""
        assert self.config.max_trials is not None  # reports carry resolved configs
        return len(self.allocations) * self.config.max_trials

    @property
    def trials_saved(self) -> int:
        """Trials the adaptive schedule avoided versus the uniform sweep."""
        return self.trials_uniform - self.trials_allocated

    @property
    def attempts_total(self) -> int:
        """Routed pair attempts actually consumed across every point."""
        return sum(allocation.attempts for allocation in self.allocations)

    @property
    def max_halfwidth(self) -> Optional[float]:
        """The widest pooled CI half-width across measured points (``None`` if
        every point was degenerate)."""
        halfwidths = [
            allocation.halfwidth
            for allocation in self.allocations
            if allocation.halfwidth is not None
        ]
        return max(halfwidths) if halfwidths else None

    def ledger(self, *, pairs: int, base_seed: int) -> "AllocationLedger":
        """The replayable schedule of this run, stamped with the cell-identity
        parameters (``pairs``, ``base_seed``) the trials were consumed under."""
        return AllocationLedger(
            pairs=check_positive_int(pairs, "pairs"),
            base_seed=int(base_seed),
            config=self.config,
            records=tuple(
                (allocation.point, allocation.trials) for allocation in self.allocations
            ),
        )

    def as_rows(self) -> List[Dict[str, object]]:
        """Per-point allocation rows for tabular reports and JSON payloads."""
        return [
            {
                "q": allocation.point.q,
                "model": allocation.point.model,
                "trials": allocation.trials,
                "attempts": allocation.attempts,
                "ci_halfwidth": allocation.halfwidth,
                "frozen_by": allocation.frozen_by,
            }
            for allocation in self.allocations
        ]


@dataclass(frozen=True)
class AllocationLedger:
    """A recorded allocation schedule: enough to replay a run bit-identically.

    Cell results are pure functions of ``(cell key, pairs, base_seed,
    overlay options)``, so the ledger only needs the per-point trial counts
    plus the identity parameters; replaying runs exactly the recorded cells
    and can never consume a different RNG stream.  Round-trips through a
    line-oriented text format (versioned like ``rcm-churn-trace v1``)::

        # rcm-adaptive-allocation v1
        pairs=500 base_seed=20060328 ci_target=0.0125 min_trials=2 max_trials=12 confidence=0.95
        xor 12 0.3 uniform 12
        xor 12 0.7 uniform 2
        ...

    with one ``<geometry> <d> <q-repr> <model> <trials>`` row per point
    (``q`` is ``repr(float(q))``, the same canonical spelling as the
    result-store key, so severities survive the round trip exactly).
    """

    pairs: int
    base_seed: int
    config: AdaptiveConfig
    records: Tuple[Tuple[SweepPoint, int], ...]

    def __post_init__(self) -> None:
        check_positive_int(self.pairs, "pairs")
        if self.config.max_trials is None:
            raise InvalidParameterError("a ledger requires a resolved config (max_trials set)")
        seen = set()
        for point, trials in self.records:
            check_positive_int(trials, "trials")
            if trials > self.config.max_trials:
                raise InvalidParameterError(
                    f"ledger row for q={point.q!r} allocates {trials} trials, "
                    f"beyond max_trials={self.config.max_trials}"
                )
            key = (point.geometry, point.d, repr(float(point.q)), point.model)
            if key in seen:
                raise InvalidParameterError(f"ledger repeats point {key}")
            seen.add(key)

    def dumps(self) -> str:
        """Serialize to the ``rcm-adaptive-allocation v1`` text format."""
        config = self.config
        lines = [
            _LEDGER_HEADER,
            (
                f"pairs={self.pairs} base_seed={self.base_seed} "
                f"ci_target={config.ci_target!r} min_trials={config.min_trials} "
                f"max_trials={config.max_trials} confidence={config.confidence!r}"
            ),
        ]
        for point, trials in self.records:
            lines.append(
                f"{point.geometry} {point.d} {float(point.q)!r} {point.model} {trials}"
            )
        return "\n".join(lines) + "\n"

    def save(self, path: "os.PathLike[str] | str") -> None:
        """Write the ledger to ``path`` in the versioned text format."""
        with open(os.fspath(path), "w", encoding="utf-8") as handle:
            handle.write(self.dumps())

    @classmethod
    def loads(cls, text: str) -> "AllocationLedger":
        """Parse a ledger from its text serialization (strict: the exact
        version header, a complete parameter line, well-formed rows)."""
        lines = [line.strip() for line in text.splitlines() if line.strip()]
        if not lines or lines[0] != _LEDGER_HEADER:
            raise InvalidParameterError(
                f"not an allocation ledger: expected leading {_LEDGER_HEADER!r} line"
            )
        if len(lines) < 2:
            raise InvalidParameterError("allocation ledger is missing its parameter line")
        parameters: Dict[str, str] = {}
        for token in lines[1].split():
            name, _, value = token.partition("=")
            if not _:
                raise InvalidParameterError(
                    f"malformed ledger parameter {token!r} (expected name=value)"
                )
            parameters[name] = value
        required = ("pairs", "base_seed", "ci_target", "min_trials", "max_trials", "confidence")
        missing = [name for name in required if name not in parameters]
        if missing:
            raise InvalidParameterError(
                f"allocation ledger parameter line is missing {', '.join(missing)}"
            )
        try:
            config = AdaptiveConfig(
                ci_target=float(parameters["ci_target"]),
                min_trials=int(parameters["min_trials"]),
                max_trials=int(parameters["max_trials"]),
                confidence=float(parameters["confidence"]),
            )
            pairs = int(parameters["pairs"])
            base_seed = int(parameters["base_seed"])
        except ValueError as error:
            raise InvalidParameterError(f"malformed ledger parameter line: {error}") from error
        records: List[Tuple[SweepPoint, int]] = []
        for line in lines[2:]:
            fields = line.split()
            if len(fields) != 5:
                raise InvalidParameterError(
                    f"malformed ledger row {line!r} (expected 'geometry d q model trials')"
                )
            geometry, d_text, q_text, model, trials_text = fields
            try:
                point = SweepPoint(geometry=geometry, d=int(d_text), q=float(q_text), model=model)
                trials = int(trials_text)
            except ValueError as error:
                raise InvalidParameterError(f"malformed ledger row {line!r}: {error}") from error
            records.append((point, trials))
        return cls(pairs=pairs, base_seed=base_seed, config=config, records=tuple(records))

    @classmethod
    def load(cls, path: "os.PathLike[str] | str") -> "AllocationLedger":
        """Read a ledger previously written by :meth:`save`."""
        with open(os.fspath(path), "r", encoding="utf-8") as handle:
            return cls.loads(handle.read())

    def trials_by_point(self) -> Dict[Tuple[str, int, str, str], int]:
        """Recorded trials keyed by ``(geometry, d, repr(q), model)``."""
        return {
            (point.geometry, point.d, repr(float(point.q)), point.model): trials
            for point, trials in self.records
        }


RunCells = Callable[[List[SweepCell]], Mapping[SweepCell, SweepCellResult]]


def _pooled_counts(results: Sequence[SweepCellResult]) -> Tuple[int, int]:
    """Pooled ``(attempts, successes)`` over one point's consumed trials."""
    attempts = sum(result.metrics.attempts for result in results)
    successes = sum(result.metrics.successes for result in results)
    return attempts, successes


def run_allocation(
    points: Sequence[SweepPoint],
    run_cells: RunCells,
    config: AdaptiveConfig,
    *,
    replay: Optional[AllocationLedger] = None,
) -> Tuple[Dict[SweepPoint, List[SweepCellResult]], AdaptiveReport]:
    """Drive one adaptive allocation (or a ledger replay) over ``points``.

    ``run_cells`` executes a batch of grid cells and returns their results;
    it is called once per round with every still-active point's next trial
    (round 1 allocates ``min_trials`` per point), so an engine-backed
    callback rebuilds its fused dispatch groups each round.  Returns the
    per-point results **in replicate order** plus the
    :class:`AdaptiveReport` describing what was consumed and why.

    With ``replay``, the ledger dictates the trial counts exactly: one
    round runs every recorded cell, no CI is consulted, and the caller is
    responsible for having validated the ledger's identity parameters
    (``pairs``/``base_seed``) against the execution context.
    """
    points = list(points)
    if not points:
        raise InvalidParameterError("points must not be empty")
    if len(set(points)) != len(points):
        raise InvalidParameterError("points must be distinct")
    if replay is not None:
        return _run_replay(points, run_cells, replay)
    if config.max_trials is None:
        raise InvalidParameterError(
            "run_allocation requires a resolved config (use AdaptiveConfig.resolved)"
        )
    results: Dict[SweepPoint, List[SweepCellResult]] = {point: [] for point in points}
    consumed: Dict[SweepPoint, int] = {point: 0 for point in points}
    frozen: Dict[SweepPoint, PointAllocation] = {}
    active = list(points)
    rounds = 0
    while active:
        batch: List[SweepCell] = []
        targets: Dict[SweepPoint, int] = {}
        for point in active:
            already = consumed[point]
            target = config.min_trials if already == 0 else already + 1
            targets[point] = target
            batch.extend(point.cell(replicate) for replicate in range(already, target))
        outcome = run_cells(batch)
        rounds += 1
        still_active: List[SweepPoint] = []
        for point in active:
            for replicate in range(consumed[point], targets[point]):
                results[point].append(outcome[point.cell(replicate)])
            consumed[point] = targets[point]
            attempts, successes = _pooled_counts(results[point])
            if attempts == 0:
                # Zero surviving-pair attempts over the whole first round:
                # there is no CI to tighten and (at extreme severity) more
                # replicates would only repeat the degeneracy — freeze now
                # rather than soak up the reallocated budget forever.
                frozen[point] = PointAllocation(
                    point=point,
                    trials=consumed[point],
                    attempts=0,
                    successes=0,
                    halfwidth=None,
                    frozen_by="degenerate",
                )
                continue
            halfwidth = wilson_halfwidth(successes, attempts, config.confidence)
            if halfwidth <= config.ci_target:
                reason = "ci"
            elif consumed[point] >= config.max_trials:
                reason = "budget"
            else:
                still_active.append(point)
                continue
            frozen[point] = PointAllocation(
                point=point,
                trials=consumed[point],
                attempts=attempts,
                successes=successes,
                halfwidth=halfwidth,
                frozen_by=reason,
            )
        active = still_active
    report = AdaptiveReport(
        config=config,
        allocations=tuple(frozen[point] for point in points),
        rounds=rounds,
    )
    return results, report


def _run_replay(
    points: Sequence[SweepPoint], run_cells: RunCells, ledger: AllocationLedger
) -> Tuple[Dict[SweepPoint, List[SweepCellResult]], AdaptiveReport]:
    """Execute exactly the cells a ledger records (one batched round)."""
    recorded = ledger.trials_by_point()
    trials: Dict[SweepPoint, int] = {}
    for point in points:
        key = (point.geometry, point.d, repr(float(point.q)), point.model)
        if key not in recorded:
            raise InvalidParameterError(
                f"allocation ledger has no row for point {key}; "
                "the replayed sweep must match the recorded one"
            )
        trials[point] = recorded[key]
    if len(points) != len(ledger.records):
        raise InvalidParameterError(
            f"allocation ledger records {len(ledger.records)} point(s) but the sweep "
            f"has {len(points)}; the replayed sweep must match the recorded one"
        )
    batch = [
        point.cell(replicate) for point in points for replicate in range(trials[point])
    ]
    outcome = run_cells(batch)
    results: Dict[SweepPoint, List[SweepCellResult]] = {}
    allocations: List[PointAllocation] = []
    for point in points:
        results[point] = [outcome[point.cell(replicate)] for replicate in range(trials[point])]
        attempts, successes = _pooled_counts(results[point])
        allocations.append(
            PointAllocation(
                point=point,
                trials=trials[point],
                attempts=attempts,
                successes=successes,
                halfwidth=(
                    wilson_halfwidth(successes, attempts, ledger.config.confidence)
                    if attempts
                    else None
                ),
                frozen_by="replay",
            )
        )
    report = AdaptiveReport(
        config=ledger.config,
        allocations=tuple(allocations),
        rounds=1,
        replayed=True,
    )
    return results, report
