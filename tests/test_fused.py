"""Tests for the fused multi-cell sweep path.

The fused path is a third implementation of the routing rules, bound by the
same invariant chain as the batch kernels: ``route_pairs_stacked`` must agree
pair-for-pair with per-cell :func:`route_pairs` (which is itself
property-tested against the scalar ``Overlay.route`` oracle), and
``SweepRunner``'s grouped dispatch must produce bit-identical cell results
to the per-cell reference (``repro.sim.conformance._per_cell_reference``)
for any worker count.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.dht.failures import survival_mask
from repro.exceptions import InvalidParameterError, RoutingError
from repro.sim.churn import ChurnConfig, simulate_churn
from repro.sim.conformance import CHUNK_PAIRS, _oracle_churn, _per_cell_reference, chunked_routing
from repro.sim.engine import SweepCell, SweepRunner, route_pairs, route_pairs_stacked
from repro.sim.sampling import sample_survivor_pair_arrays
from repro.sim.static_resilience import build_overlay

from conftest import SMALL_D


def assert_metrics_equal(left, right):
    """Field-wise RoutingMetrics equality that treats nan == nan (empty-mean sentinel)."""
    assert left.attempts == right.attempts
    assert left.successes == right.successes
    assert left.failure_reasons == right.failure_reasons
    for field in ("mean_hops_successful", "mean_hops_failed"):
        a, b = getattr(left, field), getattr(right, field)
        assert a == b or (math.isnan(a) and math.isnan(b)), field


def stacked_cells(overlay, qs, count, seed):
    """Per-cell masks and pairs for a mixed-q stack (skipping degenerate masks)."""
    rng = np.random.default_rng(seed)
    masks, sources, destinations = [], [], []
    for q in qs:
        alive = survival_mask(overlay.n_nodes, q, rng)
        if int(alive.sum()) < 2:
            continue
        src, dst = sample_survivor_pair_arrays(alive, count, rng)
        masks.append(alive)
        sources.append(src)
        destinations.append(dst)
    if not masks:
        pytest.skip("every mask in the stack was degenerate")
    return masks, sources, destinations


class TestStackedRouting:
    """route_pairs_stacked agrees pair-for-pair with per-cell route_pairs."""

    QS = (0.0, 0.25, 0.5, 0.8)

    def test_matches_per_cell_routing_pair_for_pair(self, small_overlays, geometry_name):
        overlay = small_overlays[geometry_name]
        masks, sources, destinations = stacked_cells(overlay, self.QS, 120, seed=31)
        per_cell = [
            route_pairs(overlay, src, dst, alive)
            for alive, src, dst in zip(masks, sources, destinations)
        ]
        # Interleave the cells' pairs in a fixed shuffle so the fused batch
        # exercises non-contiguous cell indices, then undo the shuffle.
        flat_sources = np.concatenate(sources)
        flat_destinations = np.concatenate(destinations)
        cell_indices = np.repeat(np.arange(len(masks), dtype=np.int64), 120)
        order = np.random.default_rng(7).permutation(flat_sources.size)
        outcome = route_pairs_stacked(
            overlay,
            flat_sources[order],
            flat_destinations[order],
            np.stack(masks),
            cell_indices[order],
        )
        inverse = np.argsort(order)
        succeeded = outcome.succeeded[inverse]
        hops = outcome.hops[inverse]
        codes = outcome.failure_codes[inverse]
        offset = 0
        for cell_outcome in per_cell:
            span = slice(offset, offset + cell_outcome.n_pairs)
            assert np.array_equal(succeeded[span], cell_outcome.succeeded)
            assert np.array_equal(hops[span], cell_outcome.hops)
            assert np.array_equal(codes[span], cell_outcome.failure_codes)
            offset += cell_outcome.n_pairs

    def test_chunking_does_not_change_stacked_outcomes(
        self, small_overlays, geometry_name, chunk_log
    ):
        overlay = small_overlays[geometry_name]
        masks, sources, destinations = stacked_cells(overlay, self.QS, 90, seed=13)
        arguments = (
            np.concatenate(sources),
            np.concatenate(destinations),
            np.stack(masks),
            np.repeat(np.arange(len(masks), dtype=np.int64), 90),
        )
        whole = route_pairs_stacked(overlay, *arguments, backend="numpy")
        assert len(chunk_log) == 1
        chunk_log.clear()
        with chunked_routing():
            chunked = route_pairs_stacked(overlay, *arguments, backend="numpy")
        # The union's pairs route in several chunks under its one prepared state.
        assert len(chunk_log) == -(-arguments[0].size // CHUNK_PAIRS) > 1
        assert len({id(state) for state, _ in chunk_log}) == 1
        assert np.array_equal(whole.succeeded, chunked.succeeded)
        assert np.array_equal(whole.hops, chunked.hops)
        assert np.array_equal(whole.failure_codes, chunked.failure_codes)

    def test_unreferenced_degenerate_mask_rows_are_ignored(self, small_overlays, geometry_name):
        # A stack may carry rows no pair routes under (degenerate cells with
        # fewer than two survivors); they must not disturb the other cells.
        overlay = small_overlays[geometry_name]
        alive = np.ones(overlay.n_nodes, dtype=bool)
        dead = np.zeros(overlay.n_nodes, dtype=bool)
        dead[0] = True  # a single survivor: no routable pairs exist
        src, dst = sample_survivor_pair_arrays(alive, 50, np.random.default_rng(3))
        stacked = route_pairs_stacked(
            overlay, src, dst, np.stack([dead, alive]), np.ones(50, dtype=np.int64)
        )
        plain = route_pairs(overlay, src, dst, alive)
        assert np.array_equal(stacked.succeeded, plain.succeeded)
        assert np.array_equal(stacked.hops, plain.hops)

    def test_two_survivor_mask_routes(self, small_overlays):
        overlay = small_overlays["ring"]
        alive = np.zeros(overlay.n_nodes, dtype=bool)
        alive[[2, 40]] = True
        outcome = route_pairs_stacked(
            overlay, [2], [40], alive[None, :], [0]
        )
        expected = route_pairs(overlay, [2], [40], alive)
        assert np.array_equal(outcome.succeeded, expected.succeeded)

    def test_endpoint_dead_in_its_own_cell_rejected(self, small_overlays, geometry_name):
        # Node 5 is alive in mask 0 but dead in mask 1: a pair assigned to
        # cell 1 must be rejected even though another mask would accept it.
        overlay = small_overlays[geometry_name]
        permissive = np.ones(overlay.n_nodes, dtype=bool)
        restrictive = np.ones(overlay.n_nodes, dtype=bool)
        restrictive[5] = False
        stack = np.stack([permissive, restrictive])
        route_pairs_stacked(overlay, [5], [9], stack, [0])  # cell 0 accepts it
        with pytest.raises(RoutingError):
            route_pairs_stacked(overlay, [5], [9], stack, [1])
        with pytest.raises(RoutingError):
            route_pairs_stacked(overlay, [9], [5], stack, [1])

    def test_cell_index_out_of_stack_rejected(self, small_overlays):
        overlay = small_overlays["xor"]
        stack = np.ones((2, overlay.n_nodes), dtype=bool)
        with pytest.raises(RoutingError):
            route_pairs_stacked(overlay, [0], [1], stack, [2])
        with pytest.raises(RoutingError):
            route_pairs_stacked(overlay, [0], [1], stack, [-1])

    def test_mismatched_cell_indices_rejected(self, small_overlays):
        overlay = small_overlays["xor"]
        stack = np.ones((1, overlay.n_nodes), dtype=bool)
        with pytest.raises(RoutingError):
            route_pairs_stacked(overlay, [0, 2], [1, 3], stack, [0])

    def test_flat_mask_rejected(self, small_overlays):
        overlay = small_overlays["xor"]
        with pytest.raises(RoutingError):
            route_pairs_stacked(
                overlay, [0], [1], np.ones(overlay.n_nodes, dtype=bool), [0]
            )

    def test_identical_endpoints_rejected(self, small_overlays):
        overlay = small_overlays["xor"]
        stack = np.ones((1, overlay.n_nodes), dtype=bool)
        with pytest.raises(RoutingError):
            route_pairs_stacked(overlay, [3], [3], stack, [0])

    def test_union_width_cap_does_not_change_outcomes(
        self, small_overlays, geometry_name, monkeypatch
    ):
        # Stacks wider than the union-table memory cap are routed as
        # bounded-width sub-unions; forcing a tiny cap must not change any
        # per-pair outcome.
        import repro.sim.engine as engine_module

        overlay = small_overlays[geometry_name]
        masks, sources, destinations = stacked_cells(overlay, self.QS, 60, seed=47)
        arguments = (
            np.concatenate(sources),
            np.concatenate(destinations),
            np.stack(masks),
            np.repeat(np.arange(len(masks), dtype=np.int64), 60),
        )
        whole = route_pairs_stacked(overlay, *arguments)
        monkeypatch.setattr(engine_module, "_MAX_UNION_TABLE_ELEMENTS", 1)
        split = route_pairs_stacked(overlay, *arguments)
        assert np.array_equal(whole.succeeded, split.succeeded)
        assert np.array_equal(whole.hops, split.hops)
        assert np.array_equal(whole.failure_codes, split.failure_codes)


class TestFusedSweepRunner:
    """Grouped dispatch is bit-identical to the per-cell reference for any worker count."""

    GEOMETRIES = ("tree", "hypercube", "xor", "ring", "smallworld")
    # q = 1.0 kills every node, so the grid includes degenerate cells.
    QS = (0.0, 0.45, 0.9, 1.0)

    @pytest.mark.parametrize("workers", [1, 4])
    def test_fused_matches_per_cell(self, workers):
        with SweepRunner(pairs=80, replicates=2, workers=workers, base_seed=606) as runner:
            fused = runner.run(list(self.GEOMETRIES), SMALL_D, list(self.QS))
        reference = _per_cell_reference(list(fused), pairs=80, base_seed=606)
        assert len(fused) == len(self.GEOMETRIES) * 2 * len(self.QS)
        for cell, expected in reference.items():
            assert fused[cell].degenerate == expected.degenerate, cell
            assert fused[cell].pairs == expected.pairs, cell
            assert_metrics_equal(fused[cell].metrics, expected.metrics)

    @pytest.mark.parametrize("geometry", GEOMETRIES)
    def test_fused_matches_per_cell_odd_workers_multi_chunk(self, geometry):
        # An odd worker count (pool size != task-count divisors) combined
        # with a lowered pair chunk exercises multi-chunk routing under
        # pooled grouped dispatch (the pool starts inside the patch, so
        # forked workers inherit it); metrics must stay bit-identical to the
        # unchunked single-process per-cell reference.
        with chunked_routing(), SweepRunner(
            pairs=70, replicates=2, workers=3, base_seed=404
        ) as runner:
            fused = runner.run([geometry], SMALL_D, list(self.QS))
        reference = _per_cell_reference(list(fused), pairs=70, base_seed=404)
        for cell, expected in reference.items():
            assert fused[cell].degenerate == expected.degenerate, cell
            assert_metrics_equal(fused[cell].metrics, expected.metrics)

    @pytest.mark.parametrize("geometry", GEOMETRIES)
    def test_churn_fused_epoch_matches_scalar_multi_chunk(self, geometry):
        # The churn driver routes windows of steps as one stacked batch; with
        # each window's pairs routed in several chunks it must still match
        # the scalar-oracle churn reference step for step, on every geometry.
        config = ChurnConfig(
            leave_probability=0.08,
            rejoin_probability=0.05,
            steps_per_epoch=6,
            pairs_per_step=60,
        )
        overlay = build_overlay(geometry, SMALL_D, seed=1234)
        with chunked_routing():
            batch = simulate_churn(overlay, config, seed=88)
        scalar = _oracle_churn(overlay, config, seed=88)
        assert len(batch.steps) == len(scalar.steps)
        for fused_step, scalar_step in zip(batch.steps, scalar.steps):
            assert fused_step.step == scalar_step.step
            assert fused_step.usable_fraction == scalar_step.usable_fraction
            assert_metrics_equal(fused_step.metrics, scalar_step.metrics)

    def test_per_cell_workers_match_fused_pool(self):
        # Worker dispatch *and* pooling in one comparison: each pooled point
        # merges the reference's replicate cells in replicate order.
        with SweepRunner(pairs=60, replicates=2, workers=4, base_seed=99) as runner:
            sweep = runner.sweep("xor", SMALL_D, [0.1, 0.6])
        cells = [SweepCell("xor", SMALL_D, q, r) for q in (0.1, 0.6) for r in range(2)]
        reference = _per_cell_reference(cells, pairs=60, base_seed=99)
        for result in sweep.results:
            first, second = (reference[SweepCell("xor", SMALL_D, result.q, r)] for r in range(2))
            assert_metrics_equal(result.metrics, first.metrics.merged_with(second.metrics))

    def test_fused_memoization_only_adds_missing_cells(self):
        with SweepRunner(pairs=40, replicates=1, workers=1, base_seed=11) as runner:
            runner.sweep("ring", SMALL_D, [0.1])
            assert runner.completed_cells == 1
            runner.sweep("ring", SMALL_D, [0.1, 0.4])
            assert runner.completed_cells == 2

    def test_fused_degenerate_cells_are_counted(self):
        with SweepRunner(pairs=20, replicates=2, workers=1, base_seed=3) as runner:
            sweep = runner.sweep("tree", SMALL_D, [1.0])
        assert sweep.results[0].degenerate_trials == 2
        assert sweep.results[0].metrics.attempts == 0

    def test_close_releases_the_pool_and_keeps_results(self):
        # Two replicates give two overlay groups, which is what sends the
        # fused dispatch to the worker pool in the first place.
        runner = SweepRunner(pairs=30, replicates=2, workers=2, base_seed=5)
        first = runner.sweep("hypercube", SMALL_D, [0.2, 0.5])
        assert runner._pool is not None
        runner.close()
        assert runner._pool is None
        # Memoized cells survive close(); a new dispatch recreates the pool.
        second = runner.sweep("hypercube", SMALL_D, [0.2, 0.5])
        assert first.routabilities == second.routabilities
        runner.close()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_overlay_options_are_forwarded_fused(self, workers):
        options = {"near_neighbors": 2, "shortcuts": 3}
        with SweepRunner(
            pairs=200, replicates=2, workers=workers, base_seed=5, overlay_options=options
        ) as dense:
            dense_sweep = dense.sweep("smallworld", SMALL_D, [0.3])
        sparse = SweepRunner(pairs=200, replicates=2, workers=1, base_seed=5)
        sparse_sweep = sparse.sweep("smallworld", SMALL_D, [0.3])
        assert dense_sweep.results[0].routability > sparse_sweep.results[0].routability
        # Two replicates are two overlay groups, so workers=2 builds both
        # overlays in pool workers: the options reach those builds through
        # the task spec, and the pooled rows equal the in-process rows.
        in_process = SweepRunner(
            pairs=200, replicates=2, workers=1, base_seed=5, overlay_options=options
        ).sweep("smallworld", SMALL_D, [0.3])
        assert dense_sweep.as_rows() == in_process.as_rows()


class TestFailureModelGrid:
    """The (geometry x model x severity x replicate) grid keeps the
    grouped-vs-reference and worker bit-identity invariants for every
    failure model."""

    MODELS = ("uniform", "targeted", "regional", "subtree", "uniform+regional")
    QS = (0.15, 0.45, 1.0)  # includes all-degenerate cells at severity 1.0

    @pytest.mark.parametrize("workers", [1, 3])
    def test_fused_matches_per_cell_across_models(self, workers):
        geometries = ["tree", "ring", "smallworld"]
        with SweepRunner(pairs=60, replicates=2, workers=workers, base_seed=777) as runner:
            fused = runner.run(geometries, SMALL_D, list(self.QS), list(self.MODELS))
        reference = _per_cell_reference(list(fused), pairs=60, base_seed=777)
        assert {cell.model for cell in fused} == set(self.MODELS)
        for cell, expected in reference.items():
            assert fused[cell].degenerate == expected.degenerate, cell
            assert_metrics_equal(fused[cell].metrics, expected.metrics)

    def test_models_share_overlay_groups_but_not_results(self):
        with SweepRunner(pairs=50, replicates=1, workers=1, base_seed=31) as runner:
            uniform = runner.sweep("xor", SMALL_D, [0.4], failure_model="uniform")
            targeted = runner.sweep("xor", SMALL_D, [0.4], failure_model="targeted")
        assert runner.completed_cells == 2  # one cell per model, memoized apart
        assert uniform.failure_model == "uniform"
        assert targeted.failure_model == "targeted"

    def test_runner_sweep_matches_rerun_for_nonuniform_model(self):
        first = SweepRunner(pairs=40, replicates=2, workers=1, base_seed=88).sweep(
            "ring", SMALL_D, [0.2, 0.6], failure_model="regional"
        )
        second = SweepRunner(pairs=40, replicates=2, workers=1, base_seed=88).sweep(
            "ring", SMALL_D, [0.2, 0.6], failure_model="regional"
        )
        assert first.routabilities == second.routabilities
        assert all(r.failure_model == "regional" for r in first.results)

    def test_unknown_model_kind_rejected(self):
        runner = SweepRunner(pairs=10, replicates=1)
        with pytest.raises(InvalidParameterError):
            runner.run(["xor"], SMALL_D, [0.1], ["meteor"])
        with pytest.raises(InvalidParameterError):
            runner.run(["xor"], SMALL_D, [0.1], [])

    def test_targeted_grid_runs_identically_with_worker_pool(self):
        # Each pool worker builds its group's overlay and ranks it by
        # in-degree itself; that ranking (and hence every mask) must match
        # the in-process build exactly.
        serial = SweepRunner(pairs=60, replicates=2, workers=1, base_seed=55).run(
            ["smallworld"], SMALL_D, [0.3, 0.6], ["targeted"]
        )
        with SweepRunner(pairs=60, replicates=2, workers=4, base_seed=55) as runner:
            pooled = runner.run(["smallworld"], SMALL_D, [0.3, 0.6], ["targeted"])
        for cell, expected in serial.items():
            assert_metrics_equal(pooled[cell].metrics, expected.metrics)
