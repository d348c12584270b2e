"""Tests for variance-adaptive trial allocation (repro.sim.adaptive).

The allocator's whole value rests on two properties this file pins down:

* **Statistics**: the Wilson interval really is the score-test inversion it
  claims to be (property-tested against a brute-force scan of the score
  inequality), so freezing on its half-width means what the docs say.
* **Determinism**: adaptive rounds are replicate indices of the uniform
  grid, so every adaptive row pools exactly the uniform sweep's first-``k``
  cells — across worker counts, the per-cell reference, and result-store hits
  — and a recorded ledger replays bit-identically.
"""

from __future__ import annotations

import math
from statistics import NormalDist

import numpy as np
import pytest

from repro.dht.failures import FAILURE_MODEL_KINDS, RegionalFailure
from repro.dht.metrics import RoutingMetrics
from repro.exceptions import InvalidParameterError
from repro.sim.adaptive import (
    FREEZE_REASONS,
    AdaptiveConfig,
    AdaptiveReport,
    AllocationLedger,
    PointAllocation,
    SweepPoint,
    run_allocation,
    wilson_halfwidth,
    wilson_interval,
)
from repro.sim.conformance import _per_cell_reference
from repro.sim.engine import SweepCell, SweepCellResult, SweepRunner
from repro.workloads.generators import DEFAULT_BASE_SEED


# --------------------------------------------------------------------- #
# Wilson interval
# --------------------------------------------------------------------- #
class TestWilsonInterval:
    @pytest.mark.parametrize(
        "successes,attempts",
        [(0, 10), (1, 10), (5, 10), (10, 10), (3, 7), (499, 500), (250, 500), (1, 1000)],
    )
    @pytest.mark.parametrize("confidence", [0.8, 0.95, 0.99])
    def test_matches_brute_force_score_inversion(self, successes, attempts, confidence):
        # The interval is defined as every p the normal score test accepts:
        # (p_hat - p)^2 <= z^2 * p * (1 - p) / n.  Scan a dense p grid and
        # compare the accepted set's extremes against the closed form.
        z = NormalDist().inv_cdf(0.5 + confidence / 2.0)
        p_hat = successes / attempts
        grid = np.linspace(0.0, 1.0, 20001)
        accepted = (p_hat - grid) ** 2 <= z * z * grid * (1.0 - grid) / attempts
        assert accepted.any()
        low, high = wilson_interval(successes, attempts, confidence)
        tolerance = 1.0 / 20000 + 1e-12
        assert abs(low - grid[accepted].min()) <= tolerance
        assert abs(high - grid[accepted].max()) <= tolerance

    @pytest.mark.parametrize("successes,attempts", [(0, 5), (2, 9), (9, 9), (400, 1000)])
    def test_interval_contains_the_estimate_and_stays_in_unit_range(
        self, successes, attempts
    ):
        low, high = wilson_interval(successes, attempts)
        assert 0.0 <= low <= successes / attempts <= high <= 1.0

    def test_halfwidth_shrinks_with_more_attempts(self):
        widths = [wilson_halfwidth(n // 2, n) for n in (10, 100, 1000, 10000)]
        assert widths == sorted(widths, reverse=True)

    def test_extreme_estimates_stay_bounded(self):
        # Unlike the Wald interval, p_hat = 1 does not collapse to a point.
        low, high = wilson_interval(50, 50)
        assert high == 1.0
        assert low < 1.0
        low, high = wilson_interval(0, 50)
        assert low == 0.0
        assert high > 0.0

    def test_rejects_invalid_arguments(self):
        with pytest.raises(InvalidParameterError):
            wilson_interval(0, 0)
        with pytest.raises(InvalidParameterError):
            wilson_interval(5, 4)
        with pytest.raises(InvalidParameterError):
            wilson_interval(-1, 4)
        with pytest.raises(InvalidParameterError):
            wilson_interval(2, 4, confidence=1.0)


# --------------------------------------------------------------------- #
# configuration
# --------------------------------------------------------------------- #
class TestAdaptiveConfig:
    def test_validates_parameters(self):
        with pytest.raises(InvalidParameterError):
            AdaptiveConfig(ci_target=0.0)
        with pytest.raises(InvalidParameterError):
            AdaptiveConfig(ci_target=1.5)
        with pytest.raises(InvalidParameterError):
            AdaptiveConfig(ci_target=0.05, min_trials=0)
        with pytest.raises(InvalidParameterError):
            AdaptiveConfig(ci_target=0.05, min_trials=4, max_trials=3)
        with pytest.raises(InvalidParameterError):
            AdaptiveConfig(ci_target=0.05, confidence=0.0)

    def test_resolved_fills_max_trials_from_the_sweep(self):
        config = AdaptiveConfig(ci_target=0.05, min_trials=2)
        resolved = config.resolved(7)
        assert resolved.max_trials == 7
        assert resolved.ci_target == config.ci_target
        # Already-resolved configs pass through unchanged.
        assert resolved.resolved(3) is resolved

    def test_resolved_rejects_budget_below_min_trials(self):
        with pytest.raises(InvalidParameterError):
            AdaptiveConfig(ci_target=0.05, min_trials=5).resolved(3)


# --------------------------------------------------------------------- #
# allocation ledger
# --------------------------------------------------------------------- #
def _ledger(records=None, **overrides):
    parameters = dict(
        pairs=200,
        base_seed=77,
        config=AdaptiveConfig(ci_target=0.03, min_trials=2, max_trials=8),
        records=records
        if records is not None
        else (
            (SweepPoint("xor", 8, 0.3), 8),
            (SweepPoint("xor", 8, 0.7), 2),
            (SweepPoint("xor", 8, 0.5, model="targeted"), 5),
        ),
    )
    parameters.update(overrides)
    return AllocationLedger(**parameters)


class TestAllocationLedger:
    def test_text_round_trip_is_exact(self):
        ledger = _ledger()
        text = ledger.dumps()
        assert text.startswith("# rcm-adaptive-allocation v1\n")
        reloaded = AllocationLedger.loads(text)
        assert reloaded == ledger
        assert reloaded.dumps() == text

    def test_save_and_load(self, tmp_path):
        path = tmp_path / "allocation.txt"
        ledger = _ledger()
        ledger.save(path)
        assert AllocationLedger.load(path) == ledger

    def test_q_survives_via_repr(self):
        # 0.1 has no exact binary representation; repr round-trips it.
        ledger = _ledger(records=((SweepPoint("tree", 6, 0.1), 3),))
        reloaded = AllocationLedger.loads(ledger.dumps())
        assert reloaded.records[0][0].q == 0.1

    @pytest.mark.parametrize(
        "text,fragment",
        [
            ("", "expected leading"),
            ("# rcm-churn-trace v1\npairs=1 base_seed=0\n", "expected leading"),
            ("# rcm-adaptive-allocation v1\n", "missing its parameter line"),
            (
                "# rcm-adaptive-allocation v1\npairs=10 base_seed=0 ci_target=0.05\n",
                "missing",
            ),
            (
                "# rcm-adaptive-allocation v1\npairs ten\n",
                "malformed ledger parameter",
            ),
            (
                "# rcm-adaptive-allocation v1\n"
                "pairs=10 base_seed=0 ci_target=0.05 min_trials=2 max_trials=4 confidence=0.95\n"
                "xor 8 0.3 uniform\n",
                "malformed ledger row",
            ),
            (
                "# rcm-adaptive-allocation v1\n"
                "pairs=10 base_seed=0 ci_target=0.05 min_trials=2 max_trials=4 confidence=0.95\n"
                "xor eight 0.3 uniform 2\n",
                "malformed ledger row",
            ),
        ],
    )
    def test_rejects_malformed_text(self, text, fragment):
        with pytest.raises(InvalidParameterError, match=fragment):
            AllocationLedger.loads(text)

    def test_rejects_rows_beyond_the_budget(self):
        with pytest.raises(InvalidParameterError, match="beyond max_trials"):
            _ledger(records=((SweepPoint("xor", 8, 0.3), 9),))

    def test_rejects_repeated_points(self):
        with pytest.raises(InvalidParameterError, match="repeats point"):
            _ledger(
                records=(
                    (SweepPoint("xor", 8, 0.3), 2),
                    (SweepPoint("xor", 8, 0.3), 4),
                )
            )

    def test_requires_a_resolved_config(self):
        with pytest.raises(InvalidParameterError, match="resolved config"):
            _ledger(config=AdaptiveConfig(ci_target=0.03))


# --------------------------------------------------------------------- #
# the allocator loop (synthetic cells: no simulation, exact control)
# --------------------------------------------------------------------- #
def _fake_run_cells(successes_per_cell, pairs=100):
    """A run_cells callback with scripted per-replicate success counts.

    ``successes_per_cell[q]`` is a list indexed by replicate; ``None``
    scripts a degenerate cell (zero attempts).
    """

    def run_cells(batch):
        outcome = {}
        for cell in batch:
            successes = successes_per_cell[cell.q][cell.replicate]
            if successes is None:
                metrics = RoutingMetrics(
                    attempts=0,
                    successes=0,
                    mean_hops_successful=float("nan"),
                    mean_hops_failed=float("nan"),
                    failure_reasons={},
                )
                outcome[cell] = SweepCellResult(
                    cell=cell, pairs=pairs, metrics=metrics, degenerate=True
                )
                continue
            metrics = RoutingMetrics(
                attempts=pairs,
                successes=successes,
                mean_hops_successful=3.0,
                mean_hops_failed=2.0,
                failure_reasons={},
            )
            outcome[cell] = SweepCellResult(cell=cell, pairs=pairs, metrics=metrics)
        return outcome

    return run_cells


class TestRunAllocation:
    def test_low_variance_points_freeze_early(self):
        # q=0.1 always succeeds (half-width collapses immediately); q=0.5 is
        # a fair coin and must run to the budget cap.
        script = {0.1: [100] * 8, 0.5: [50] * 8}
        points = [SweepPoint("xor", 8, 0.1), SweepPoint("xor", 8, 0.5)]
        config = AdaptiveConfig(ci_target=0.03, min_trials=2, max_trials=8)
        results, report = run_allocation(points, _fake_run_cells(script), config)
        by_q = {allocation.point.q: allocation for allocation in report.allocations}
        assert by_q[0.1].trials == 2
        assert by_q[0.1].frozen_by == "ci"
        assert by_q[0.5].trials == 8
        assert by_q[0.5].frozen_by == "budget"
        assert len(results[points[0]]) == 2
        assert len(results[points[1]]) == 8
        assert report.trials_allocated == 10
        assert report.trials_uniform == 16
        assert report.trials_saved == 6
        assert all(allocation.frozen_by in FREEZE_REASONS for allocation in report.allocations)

    def test_rounds_grow_one_replicate_at_a_time(self):
        # min_trials=3 then +1 per round until the cap: replicate indices
        # must be exactly 0..k-1 in order (the uniform grid's prefix).
        seen = []
        script = {0.5: [50] * 6}

        def run_cells(batch):
            seen.append([cell.replicate for cell in batch])
            return _fake_run_cells(script)(batch)

        config = AdaptiveConfig(ci_target=0.001, min_trials=3, max_trials=6)
        run_allocation([SweepPoint("xor", 8, 0.5)], run_cells, config)
        assert seen == [[0, 1, 2], [3], [4], [5]]

    def test_degenerate_points_freeze_after_the_first_round(self):
        script = {0.99: [None, None, None, None], 0.2: [90, 91, 92, 93]}
        points = [SweepPoint("ring", 4, 0.99), SweepPoint("ring", 4, 0.2)]
        config = AdaptiveConfig(ci_target=0.001, min_trials=2, max_trials=4)
        results, report = run_allocation(points, _fake_run_cells(script), config)
        degenerate = report.allocations[0]
        assert degenerate.point.q == 0.99
        assert degenerate.trials == 2  # exactly min_trials, never re-drawn
        assert degenerate.frozen_by == "degenerate"
        assert degenerate.attempts == 0
        assert degenerate.halfwidth is None
        assert report.as_rows()[0]["ci_halfwidth"] is None
        assert all(result.degenerate for result in results[points[0]])
        # The measured point keeps consuming budget normally.
        assert report.allocations[1].frozen_by == "budget"

    def test_report_rows_and_ledger_agree(self):
        script = {0.3: [80] * 5, 0.6: [40] * 5}
        points = [SweepPoint("tree", 6, 0.3), SweepPoint("tree", 6, 0.6)]
        config = AdaptiveConfig(ci_target=0.02, min_trials=2, max_trials=5)
        _, report = run_allocation(points, _fake_run_cells(script), config)
        ledger = report.ledger(pairs=100, base_seed=11)
        assert ledger.trials_by_point() == {
            ("tree", 6, repr(0.3), "uniform"): report.allocations[0].trials,
            ("tree", 6, repr(0.6), "uniform"): report.allocations[1].trials,
        }
        rows = report.as_rows()
        assert [row["trials"] for row in rows] == [
            allocation.trials for allocation in report.allocations
        ]

    def test_replay_runs_exactly_the_recorded_cells(self):
        script = {0.3: [80] * 5, 0.6: [40] * 5}
        points = [SweepPoint("tree", 6, 0.3), SweepPoint("tree", 6, 0.6)]
        config = AdaptiveConfig(ci_target=0.02, min_trials=2, max_trials=5)
        results, report = run_allocation(points, _fake_run_cells(script), config)
        ledger = report.ledger(pairs=100, base_seed=11)

        replayed_results, replayed_report = run_allocation(
            points, _fake_run_cells(script), config, replay=ledger
        )
        assert replayed_report.replayed is True
        assert replayed_report.rounds == 1
        for point in points:
            assert replayed_results[point] == results[point]
        for original, replayed in zip(report.allocations, replayed_report.allocations):
            assert replayed.trials == original.trials
            assert replayed.attempts == original.attempts
            assert replayed.successes == original.successes
            assert replayed.frozen_by == "replay"

    def test_replay_rejects_mismatched_grids(self):
        ledger = _ledger(records=((SweepPoint("xor", 8, 0.3), 2),))
        config = ledger.config
        with pytest.raises(InvalidParameterError, match="no row for point"):
            run_allocation(
                [SweepPoint("xor", 8, 0.9)], _fake_run_cells({}), config, replay=ledger
            )
        with pytest.raises(InvalidParameterError, match="must match the recorded one"):
            run_allocation(
                [SweepPoint("xor", 8, 0.3, model="targeted")],
                _fake_run_cells({}),
                config,
                replay=ledger,
            )

    def test_rejects_bad_inputs(self):
        config = AdaptiveConfig(ci_target=0.05, min_trials=2, max_trials=4)
        with pytest.raises(InvalidParameterError, match="must not be empty"):
            run_allocation([], _fake_run_cells({}), config)
        point = SweepPoint("xor", 8, 0.5)
        with pytest.raises(InvalidParameterError, match="distinct"):
            run_allocation([point, point], _fake_run_cells({}), config)
        with pytest.raises(InvalidParameterError, match="resolved"):
            run_allocation([point], _fake_run_cells({}), AdaptiveConfig(ci_target=0.05))


# --------------------------------------------------------------------- #
# engine integration: stream discipline, stores, replay
# --------------------------------------------------------------------- #
GEOMETRY = "xor"
D = 6
QS = [0.1, 0.45, 0.97]
PAIRS = 60
MAX_TRIALS = 4
CONFIG = AdaptiveConfig(ci_target=0.06, min_trials=2, max_trials=MAX_TRIALS)


def _pool_prefix(cell_results, q, k, model="uniform"):
    """Pooled (attempts, successes) of the uniform grid's first k replicates."""
    attempts = successes = 0
    for replicate in range(k):
        result = cell_results[
            SweepCell(geometry=GEOMETRY, d=D, q=q, replicate=replicate, model=model)
        ]
        attempts += result.metrics.attempts
        successes += result.metrics.successes
    return attempts, successes


class TestEngineStreamDiscipline:
    @pytest.mark.parametrize("workers", [1, 3, 4])
    def test_adaptive_rows_pool_the_uniform_prefix(self, workers):
        # The adaptive sweep's every point must pool exactly the uniform
        # grid's first-k cells — as the runner computes them at any worker
        # count and as the per-cell reference does — because rounds are
        # replicate indices, not fresh draws.
        with SweepRunner(pairs=PAIRS, replicates=MAX_TRIALS, workers=workers) as runner:
            uniform_cells = runner.run([GEOMETRY], D, QS)
            adaptive = runner.sweep(GEOMETRY, D, QS, adaptive=CONFIG)
            report = runner.last_adaptive_report
        reference = _per_cell_reference(list(uniform_cells), pairs=PAIRS, base_seed=DEFAULT_BASE_SEED)
        assert report is not None and not report.replayed
        for result, allocation in zip(adaptive.results, report.allocations):
            for cells in (uniform_cells, reference):
                attempts, successes = _pool_prefix(cells, result.q, allocation.trials)
                assert result.metrics.attempts == attempts == allocation.attempts
                assert result.metrics.successes == successes == allocation.successes
            assert result.trials == allocation.trials

    def test_identical_rows_across_worker_counts(self):
        reference = None
        for workers in (1, 3, 4):
            with SweepRunner(pairs=PAIRS, replicates=MAX_TRIALS, workers=workers) as runner:
                rows = runner.sweep(GEOMETRY, D, QS, adaptive=CONFIG).as_rows()
                schedule = runner.last_adaptive_report.as_rows()
            if reference is None:
                reference = (rows, schedule)
            else:
                assert (rows, schedule) == reference

    def test_uniform_sweep_is_untouched_by_the_adaptive_import(self):
        # adaptive=None must leave rows identical to a runner that never
        # heard of adaptive sampling (fresh instance, no adaptive call).
        with SweepRunner(pairs=PAIRS, replicates=MAX_TRIALS) as runner:
            before = runner.sweep(GEOMETRY, D, QS)
            runner.sweep(GEOMETRY, D, QS, adaptive=CONFIG)
            after = runner.sweep(GEOMETRY, D, QS)
            assert runner.last_adaptive_report is None  # reset by the uniform sweep
        assert before.as_rows() == after.as_rows()


class TestEngineAdaptiveBehaviour:
    def test_degenerate_point_freezes_at_min_trials_and_serializes_null(self):
        # d=2 ring at q=0.97: almost every trial kills all four nodes. The
        # regression this pins: degenerate points must freeze immediately
        # instead of soaking up the whole reallocated budget, and their rows
        # must serialize None (not NaN) exactly like the uniform sweep's.
        with SweepRunner(pairs=10, replicates=6) as runner:
            sweep = runner.sweep("ring", 2, [0.97], adaptive=AdaptiveConfig(
                ci_target=0.01, min_trials=2, max_trials=6
            ))
            report = runner.last_adaptive_report
        allocation = report.allocations[0]
        if allocation.attempts == 0:
            assert allocation.frozen_by == "degenerate"
            assert allocation.trials == 2
            assert allocation.halfwidth is None
            row = sweep.as_rows()[0]
            assert row["routability"] is None
            assert row["attempts"] == 0

    def test_store_hits_pool_into_the_ci(self, tmp_path):
        # A fully cached grid must freeze without computing a single cell:
        # store hits carry the same bytes as fresh computation, so the CI
        # sees them identically.
        from repro.service.store import ResultStore

        with ResultStore.open(tmp_path / "cells.db") as store:
            with SweepRunner(
                pairs=PAIRS, replicates=MAX_TRIALS, cell_store=store
            ) as runner:
                fresh = runner.sweep(GEOMETRY, D, QS, adaptive=CONFIG)
                assert runner.last_run_stats.computed > 0
            with SweepRunner(
                pairs=PAIRS, replicates=MAX_TRIALS, cell_store=store
            ) as runner:
                cached = runner.sweep(GEOMETRY, D, QS, adaptive=CONFIG)
                stats = runner.last_run_stats
        assert stats.computed == 0
        assert stats.store_hits == stats.requested > 0
        assert cached.as_rows() == fresh.as_rows()

    def test_ledger_replay_reproduces_rows_bit_identically(self, tmp_path):
        path = tmp_path / "allocation.txt"
        with SweepRunner(pairs=PAIRS, replicates=MAX_TRIALS) as runner:
            adaptive = runner.sweep(GEOMETRY, D, QS, adaptive=CONFIG)
            runner.last_allocation_ledger().save(path)
        with SweepRunner(pairs=PAIRS, replicates=MAX_TRIALS) as runner:
            replayed = runner.sweep(
                GEOMETRY, D, QS, replay_allocation=AllocationLedger.load(path)
            )
            report = runner.last_adaptive_report
        assert report.replayed is True
        assert replayed.as_rows() == adaptive.as_rows()
        for left, right in zip(adaptive.results, replayed.results):
            assert left.metrics.attempts == right.metrics.attempts
            assert left.metrics.successes == right.metrics.successes
            assert left.metrics.failure_reasons == right.metrics.failure_reasons

    def test_replay_rejects_mismatched_identity_parameters(self):
        with SweepRunner(pairs=PAIRS, replicates=MAX_TRIALS) as runner:
            runner.sweep(GEOMETRY, D, QS, adaptive=CONFIG)
            ledger = runner.last_allocation_ledger()
        with SweepRunner(pairs=PAIRS + 1, replicates=MAX_TRIALS) as runner:
            with pytest.raises(InvalidParameterError, match="bit-identical"):
                runner.sweep(GEOMETRY, D, QS, replay_allocation=ledger)

    def test_adaptive_and_replay_are_mutually_exclusive(self):
        with SweepRunner(pairs=PAIRS, replicates=MAX_TRIALS) as runner:
            runner.sweep(GEOMETRY, D, QS, adaptive=CONFIG)
            ledger = runner.last_allocation_ledger()
            with pytest.raises(InvalidParameterError, match="not both"):
                runner.sweep(
                    GEOMETRY, D, QS, adaptive=CONFIG, replay_allocation=ledger
                )

    def test_ledger_accessor_is_none_after_a_uniform_sweep(self):
        with SweepRunner(pairs=PAIRS, replicates=2) as runner:
            runner.sweep(GEOMETRY, D, [0.2])
            assert runner.last_allocation_ledger() is None
            assert runner.last_adaptive_report is None


# --------------------------------------------------------------------- #
# overlay-level API (static_resilience)
# --------------------------------------------------------------------- #
class TestOverlayLevelAdaptive:
    def test_sweep_failure_probabilities_accepts_adaptive(self):
        from repro.sim.static_resilience import build_overlay, sweep_failure_probabilities

        overlay = build_overlay(GEOMETRY, D, seed=5)
        adaptive = sweep_failure_probabilities(
            overlay, QS, pairs=PAIRS, trials=MAX_TRIALS, seed=123, adaptive=CONFIG
        )
        assert [result.q for result in adaptive.results] == QS
        assert any(result.trials < MAX_TRIALS for result in adaptive.results)
        # A point that froze after k trials pools exactly the uniform call's
        # first k cells: the uniform call with trials=k measures those cells.
        for result in adaptive.results:
            prefix = sweep_failure_probabilities(
                overlay, [result.q], pairs=PAIRS, trials=result.trials, seed=123
            )
            assert repr(result) == repr(prefix.results[0])

    @pytest.mark.parametrize(
        "models", [RegionalFailure(0.2), [RegionalFailure(0.1), RegionalFailure(0.3)]]
    )
    def test_failure_models_must_be_a_registry_kind(self, models):
        from repro.sim.static_resilience import build_overlay, sweep_failure_probabilities

        overlay = build_overlay(GEOMETRY, D, seed=5)
        with pytest.raises(InvalidParameterError, match="registry kinds") as raised:
            sweep_failure_probabilities(
                overlay, [0.1, 0.3], pairs=PAIRS, trials=MAX_TRIALS, seed=3,
                failure_models=models, adaptive=CONFIG,
            )
        assert "\n" not in str(raised.value)
        assert all(kind in str(raised.value) for kind in FAILURE_MODEL_KINDS)

    def test_simulate_geometry_threads_adaptive_through(self):
        from repro.sim.static_resilience import simulate_geometry

        result = simulate_geometry(
            GEOMETRY, D, QS, pairs=PAIRS, trials=MAX_TRIALS, seed=9, adaptive=CONFIG
        )
        assert [point.q for point in result.results] == QS
        trials = [point.trials for point in result.results]
        assert all(2 <= t <= MAX_TRIALS for t in trials)
