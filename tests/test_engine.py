"""Tests for the vectorized batch simulation engine.

The central invariant: the batch kernels must agree **pair-for-pair** with
the scalar ``Overlay.route`` oracle — same success flag, same hop count,
same :class:`FailureReason` — on every overlay geometry.  Everything else
(metrics aggregation, chunking, worker fan-out) is built on that invariant,
so it is property-tested here across all five overlays and the full failure
range.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.dht.failures import survival_mask
from repro.dht.metrics import summarize_routes
from repro.dht.routing import FAILURE_CODES, FailureReason, failure_reason_from_code
from repro.exceptions import InvalidParameterError, RoutingError
from repro.sim.churn import ChurnConfig, simulate_churn
from repro.sim.conformance import _oracle_churn, _oracle_measure_routability
from repro.sim.engine import SweepCell, SweepRunner, route_pairs
from repro.sim.static_resilience import measure_routability
from repro.sim.sampling import sample_survivor_pairs

from conftest import SMALL_D


def assert_metrics_equal(left, right):
    """Field-wise RoutingMetrics equality that treats nan == nan (empty-mean sentinel)."""
    assert left.attempts == right.attempts
    assert left.successes == right.successes
    assert left.failure_reasons == right.failure_reasons
    for field in ("mean_hops_successful", "mean_hops_failed"):
        a, b = getattr(left, field), getattr(right, field)
        assert a == b or (math.isnan(a) and math.isnan(b)), field


def sampled_batch(overlay, q, count, seed):
    """A survival mask plus ``count`` sampled survivor pairs for ``overlay``."""
    rng = np.random.default_rng(seed)
    alive = survival_mask(overlay.n_nodes, q, rng)
    if int(alive.sum()) < 2:
        pytest.skip(f"degenerate pattern at q={q}")
    pairs = np.asarray(sample_survivor_pairs(alive, count, rng), dtype=np.int64)
    return alive, pairs[:, 0], pairs[:, 1]


class TestFailureCodes:
    def test_codes_roundtrip(self):
        for reason, code in FAILURE_CODES.items():
            assert failure_reason_from_code(code) is reason

    def test_unknown_code_rejected(self):
        with pytest.raises(RoutingError):
            failure_reason_from_code(42)


class TestOracleAgreement:
    """Batch routing agrees pair-for-pair with the scalar route() oracle."""

    @pytest.mark.parametrize("q", [0.0, 0.2, 0.5, 0.8])
    def test_batch_matches_scalar_pair_for_pair(self, small_overlays, geometry_name, q):
        overlay = small_overlays[geometry_name]
        alive, sources, destinations = sampled_batch(overlay, q, 250, seed=hash((geometry_name, q)) % 2**31)
        outcome = route_pairs(overlay, sources, destinations, alive)
        assert outcome.n_pairs == 250
        for i in range(outcome.n_pairs):
            oracle = overlay.route(int(sources[i]), int(destinations[i]), alive)
            assert bool(outcome.succeeded[i]) == oracle.succeeded
            assert int(outcome.hops[i]) == oracle.hops
            assert outcome.failure_reason(i) is oracle.failure_reason

    def test_chunking_does_not_change_outcomes(self, small_overlays, geometry_name):
        overlay = small_overlays[geometry_name]
        alive, sources, destinations = sampled_batch(overlay, 0.4, 200, seed=77)
        whole = route_pairs(overlay, sources, destinations, alive)
        chunked = route_pairs(overlay, sources, destinations, alive, batch_size=17)
        assert np.array_equal(whole.succeeded, chunked.succeeded)
        assert np.array_equal(whole.hops, chunked.hops)
        assert np.array_equal(whole.failure_codes, chunked.failure_codes)

    def test_metrics_match_summarize_routes_exactly(self, small_overlays, geometry_name):
        overlay = small_overlays[geometry_name]
        alive, sources, destinations = sampled_batch(overlay, 0.35, 300, seed=13)
        batch_metrics = route_pairs(overlay, sources, destinations, alive).to_metrics()
        scalar_metrics = summarize_routes(
            overlay.route(int(s), int(t), alive) for s, t in zip(sources, destinations)
        )
        assert_metrics_equal(batch_metrics, scalar_metrics)

    def test_no_failures_means_every_pair_routes(self, small_overlays, geometry_name):
        overlay = small_overlays[geometry_name]
        alive = np.ones(overlay.n_nodes, dtype=bool)
        rng = np.random.default_rng(5)
        pairs = np.asarray(sample_survivor_pairs(alive, 100, rng), dtype=np.int64)
        outcome = route_pairs(overlay, pairs[:, 0], pairs[:, 1], alive)
        assert outcome.succeeded.all()
        assert (outcome.failure_codes == FAILURE_CODES[FailureReason.NONE]).all()
        assert outcome.failure_reason_counts() == {}


class TestOracleReferences:
    """The measurement APIs equal the conformance harness's scalar-oracle references."""

    @pytest.mark.parametrize("q", [0.1, 0.4, 0.7])
    def test_measure_routability_matches_the_sweep_reference(self, small_overlays, geometry_name, q):
        overlay = small_overlays[geometry_name]
        measured = measure_routability(overlay, q, pairs=150, trials=2, seed=21)
        expected = _oracle_measure_routability(overlay, q, pairs=150, trials=2, seed=21)
        assert_metrics_equal(measured.metrics, expected.metrics)
        assert measured.degenerate_trials == expected.degenerate_trials

    def test_churn_matches_the_churn_reference(self, small_overlays):
        overlay = small_overlays["xor"]
        config = ChurnConfig(steps_per_epoch=5, pairs_per_step=120)
        measured = simulate_churn(overlay, config, seed=6)
        expected = _oracle_churn(overlay, config, seed=6)
        for measured_step, expected_step in zip(measured.steps, expected.steps):
            assert_metrics_equal(measured_step.metrics, expected_step.metrics)


class TestBatchValidation:
    """route_pairs enforces the same preconditions as the scalar path."""

    def test_identical_endpoints_rejected(self, small_overlays, geometry_name):
        overlay = small_overlays[geometry_name]
        alive = np.ones(overlay.n_nodes, dtype=bool)
        with pytest.raises(RoutingError):
            route_pairs(overlay, [3, 4], [3, 9], alive)

    def test_dead_endpoint_rejected(self, small_overlays, geometry_name):
        overlay = small_overlays[geometry_name]
        alive = np.ones(overlay.n_nodes, dtype=bool)
        alive[5] = False
        with pytest.raises(RoutingError):
            route_pairs(overlay, [5], [9], alive)
        with pytest.raises(RoutingError):
            route_pairs(overlay, [9], [5], alive)

    def test_out_of_space_identifier_rejected(self, small_overlays, geometry_name):
        overlay = small_overlays[geometry_name]
        alive = np.ones(overlay.n_nodes, dtype=bool)
        with pytest.raises(RoutingError):
            route_pairs(overlay, [0], [overlay.n_nodes + 5], alive)

    def test_wrong_mask_shape_rejected(self, small_overlays, geometry_name):
        overlay = small_overlays[geometry_name]
        with pytest.raises(RoutingError):
            route_pairs(overlay, [0], [1], np.ones(3, dtype=bool))

    def test_mismatched_pair_arrays_rejected(self, small_overlays):
        overlay = small_overlays["ring"]
        alive = np.ones(overlay.n_nodes, dtype=bool)
        with pytest.raises(RoutingError):
            route_pairs(overlay, [0, 1], [2], alive)


class TestNeighborArray:
    def test_rows_match_neighbors(self, small_overlays, geometry_name):
        overlay = small_overlays[geometry_name]
        table = overlay.neighbor_array()
        assert table.shape[0] == overlay.n_nodes
        for node in (0, 1, overlay.n_nodes // 2, overlay.n_nodes - 1):
            assert tuple(int(v) for v in table[node]) == overlay.neighbors(node)


class TestSweepRunner:
    def test_workers_do_not_change_results(self):
        qs = [0.0, 0.3, 0.6]
        serial = SweepRunner(pairs=120, replicates=2, workers=1, base_seed=404)
        parallel = SweepRunner(pairs=120, replicates=2, workers=4, base_seed=404)
        for geometry in ("tree", "hypercube", "xor", "ring", "smallworld"):
            a = serial.sweep(geometry, SMALL_D, qs)
            b = parallel.sweep(geometry, SMALL_D, qs)
            assert a.routabilities == b.routabilities, geometry
            for left, right in zip(a.results, b.results):
                assert_metrics_equal(left.metrics, right.metrics)

    def test_completed_cells_are_memoized(self):
        runner = SweepRunner(pairs=60, replicates=2, workers=1, base_seed=11)
        first = runner.sweep("xor", SMALL_D, [0.1, 0.5])
        cells_after_first = runner.completed_cells
        second = runner.sweep("xor", SMALL_D, [0.1, 0.5])
        assert runner.completed_cells == cells_after_first == 4
        assert first.routabilities == second.routabilities

    def test_overlapping_grid_only_adds_missing_cells(self):
        runner = SweepRunner(pairs=60, replicates=1, workers=1, base_seed=11)
        runner.sweep("ring", SMALL_D, [0.1])
        assert runner.completed_cells == 1
        runner.sweep("ring", SMALL_D, [0.1, 0.4])
        assert runner.completed_cells == 2

    def test_replicates_pool_into_attempts(self):
        runner = SweepRunner(pairs=50, replicates=3, workers=1, base_seed=7)
        sweep = runner.sweep("hypercube", SMALL_D, [0.2])
        assert sweep.results[0].metrics.attempts == 150
        assert sweep.results[0].trials == 3

    def test_degenerate_cells_are_counted(self):
        # q = 1.0 kills every node, so every replicate is degenerate.
        runner = SweepRunner(pairs=20, replicates=2, workers=1, base_seed=3)
        sweep = runner.sweep("tree", SMALL_D, [1.0])
        assert sweep.results[0].degenerate_trials == 2
        assert sweep.results[0].metrics.attempts == 0

    def test_empty_grid_rejected(self):
        runner = SweepRunner(pairs=10, replicates=1)
        with pytest.raises(InvalidParameterError):
            runner.run([], SMALL_D, [0.1])
        with pytest.raises(InvalidParameterError):
            runner.run(["xor"], SMALL_D, [])

    def test_overlay_options_are_forwarded(self):
        dense = SweepRunner(
            pairs=200, replicates=2, workers=1, base_seed=5,
            overlay_options={"near_neighbors": 2, "shortcuts": 3},
        )
        sparse = SweepRunner(pairs=200, replicates=2, workers=1, base_seed=5)
        dense_sweep = dense.sweep("smallworld", SMALL_D, [0.3])
        sparse_sweep = sparse.sweep("smallworld", SMALL_D, [0.3])
        assert dense_sweep.results[0].routability > sparse_sweep.results[0].routability

    def test_cells_match_direct_engine_measurement(self):
        # A single cell's metrics are reproducible from its deterministic seeds.
        runner = SweepRunner(pairs=80, replicates=1, workers=1, base_seed=2024)
        sweep = runner.sweep("xor", SMALL_D, [0.25])
        rerun = SweepRunner(pairs=80, replicates=1, workers=1, base_seed=2024)
        assert_metrics_equal(
            rerun.sweep("xor", SMALL_D, [0.25]).results[0].metrics, sweep.results[0].metrics
        )

    def test_seed_zero_is_accepted(self):
        # PairWorkload.derived_seed can legitimately produce 0; the runner
        # must accept it like the sequential drivers do.
        runner = SweepRunner(pairs=30, replicates=1, workers=1, base_seed=0)
        sweep = runner.sweep("hypercube", SMALL_D, [0.2])
        assert 0.0 <= sweep.results[0].routability <= 1.0

    def test_cell_key_is_hashable_and_stable(self):
        cell = SweepCell(geometry="xor", d=SMALL_D, q=0.25, replicate=0)
        assert cell == SweepCell(geometry="xor", d=SMALL_D, q=0.25, replicate=0)
        assert hash(cell) == hash(SweepCell(geometry="xor", d=SMALL_D, q=0.25, replicate=0))
