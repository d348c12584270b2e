"""Tests for the percolation substrate (connected vs reachable components)."""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from repro.dht import OVERLAY_CLASSES, HypercubeOverlay, PlaxtonOverlay
from repro.exceptions import InvalidParameterError
from repro.percolation import (
    component_size_distribution,
    connected_component,
    empirical_routability,
    estimate_critical_failure_probability,
    giant_component_curve,
    largest_component_fraction,
    mean_field_percolation_threshold,
    reachable_component,
)


@pytest.fixture(scope="module")
def cube():
    return HypercubeOverlay.build(5)


@pytest.fixture(scope="module")
def tree_overlay():
    return PlaxtonOverlay.build(5, seed=8)


def all_alive(overlay):
    return np.ones(overlay.n_nodes, dtype=bool)


def reference_descendants(overlay, root, alive):
    """Pure-Python depth-first search over ``overlay.neighbors``; the root is never included."""
    seen = set()
    stack = [root]
    while stack:
        node = stack.pop()
        for neighbor in overlay.neighbors(node):
            if alive[neighbor] and neighbor not in seen:
                seen.add(neighbor)
                stack.append(neighbor)
    seen.discard(root)
    return frozenset(seen)


def reference_component_sizes(overlay, alive):
    """Pure-Python union-find over the surviving links, ignoring their direction."""
    survivors = [int(v) for v in np.flatnonzero(alive)]
    parent = {v: v for v in survivors}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for node in survivors:
        for neighbor in overlay.neighbors(node):
            if alive[neighbor]:
                parent[find(node)] = find(neighbor)
    return tuple(sorted(Counter(find(v) for v in survivors).values(), reverse=True))


class TestNumpyReachabilityMatchesReference:
    @pytest.mark.parametrize("d", [6, 7, 8])
    @pytest.mark.parametrize("geometry", sorted(OVERLAY_CLASSES))
    def test_every_geometry_under_failures(self, geometry, d):
        overlay = OVERLAY_CLASSES[geometry].build(d, seed=d)
        for q in (0.0, 0.3, 0.6, 0.95):
            for seed in range(3):
                alive = np.random.default_rng(seed).random(overlay.n_nodes) >= q
                expected = reference_component_sizes(overlay, alive)
                summary = component_size_distribution(overlay, alive)
                assert summary.component_sizes == expected, (q, seed)
                assert summary.survivor_count == int(alive.sum())
                assert summary.largest_component == (expected[0] if expected else 0)
                for root in np.flatnonzero(alive)[:4].tolist():
                    component = connected_component(overlay, root, alive)
                    assert component == reference_descendants(overlay, root, alive), (q, seed, root)
                    assert all(isinstance(node, int) for node in component)

    def test_root_excluded_when_a_cycle_leads_back(self, cube):
        # Every hypercube link is bidirectional, so the root is its own descendant.
        alive = all_alive(cube)
        assert 1 in cube.neighbors(0) and 0 in cube.neighbors(1)
        assert connected_component(cube, 0, alive) == frozenset(range(1, cube.n_nodes))

    def test_root_without_surviving_links_reaches_nobody(self, cube):
        alive = all_alive(cube)
        alive[list(cube.neighbors(0))] = False
        assert connected_component(cube, 0, alive) == frozenset()
        summary = component_size_distribution(cube, alive)
        assert summary.component_sizes == (cube.n_nodes - 1 - cube.d, 1)

    def test_dead_root_rejected(self, cube):
        alive = all_alive(cube)
        alive[3] = False
        with pytest.raises(InvalidParameterError):
            connected_component(cube, 3, alive)

    def test_all_dead_mask(self, cube):
        alive = np.zeros(cube.n_nodes, dtype=bool)
        with pytest.raises(InvalidParameterError):
            connected_component(cube, 0, alive)
        summary = component_size_distribution(cube, alive)
        assert (summary.survivor_count, summary.largest_component, summary.component_sizes) == (0, 0, ())


class TestReachableComponent:
    def test_no_failures_reaches_everyone(self, cube):
        reachable = reachable_component(cube, 0, all_alive(cube))
        assert len(reachable) == cube.n_nodes - 1

    def test_reachable_is_subset_of_connected(self, tree_overlay, rng):
        alive = rng.random(tree_overlay.n_nodes) >= 0.3
        alive[0] = True
        reachable = reachable_component(tree_overlay, 0, alive)
        connected = connected_component(tree_overlay, 0, alive)
        assert reachable <= connected

    def test_strict_routing_reaches_fewer_nodes_than_connectivity(self, tree_overlay, rng):
        # With 30% failures the tree overlay stays largely connected but tree routing
        # cannot reach many of those connected nodes (the paper's Section 1 point).
        alive = rng.random(tree_overlay.n_nodes) >= 0.3
        alive[0] = True
        reachable = reachable_component(tree_overlay, 0, alive)
        connected = connected_component(tree_overlay, 0, alive)
        assert len(reachable) < len(connected)

    def test_dead_root_rejected(self, cube):
        alive = all_alive(cube)
        alive[0] = False
        with pytest.raises(InvalidParameterError):
            reachable_component(cube, 0, alive)

    def test_root_not_included_in_its_own_component(self, cube):
        assert 0 not in reachable_component(cube, 0, all_alive(cube))


class TestComponentSummaries:
    def test_full_survival_is_one_component(self, cube):
        summary = component_size_distribution(cube, all_alive(cube))
        assert summary.survivor_count == cube.n_nodes
        assert summary.largest_component == cube.n_nodes
        assert summary.largest_fraction == 1.0

    def test_total_failure_is_empty(self, cube):
        summary = component_size_distribution(cube, np.zeros(cube.n_nodes, dtype=bool))
        assert summary.survivor_count == 0
        assert summary.largest_fraction == 0.0

    def test_component_sizes_sum_to_survivors(self, cube, rng):
        alive = rng.random(cube.n_nodes) >= 0.4
        summary = component_size_distribution(cube, alive)
        assert sum(summary.component_sizes) == summary.survivor_count

    def test_largest_component_fraction_shortcut(self, cube, rng):
        alive = rng.random(cube.n_nodes) >= 0.2
        assert largest_component_fraction(cube, alive) == pytest.approx(
            component_size_distribution(cube, alive).largest_fraction
        )

    def test_wrong_mask_shape_rejected(self, cube):
        with pytest.raises(InvalidParameterError):
            component_size_distribution(cube, np.ones(3, dtype=bool))


class TestEmpiricalRoutability:
    def test_matches_rcm_at_zero_failure(self, cube):
        assert empirical_routability(cube, all_alive(cube)) == 1.0

    def test_close_to_rcm_prediction_under_failure(self, cube, rng):
        from repro.core.geometry import get_geometry

        q = 0.2
        values = []
        for _ in range(6):
            alive = rng.random(cube.n_nodes) >= q
            if alive.sum() < 2:
                continue
            values.append(empirical_routability(cube, alive))
        measured = float(np.mean(values))
        predicted = get_geometry("hypercube").routability(q, d=cube.d)
        assert measured == pytest.approx(predicted, abs=0.1)

    def test_root_sampling(self, cube, rng):
        alive = rng.random(cube.n_nodes) >= 0.2
        value = empirical_routability(cube, alive, max_roots=5, rng=rng)
        assert 0.0 <= value <= 1.0

    def test_needs_two_survivors(self, cube):
        alive = np.zeros(cube.n_nodes, dtype=bool)
        alive[0] = True
        with pytest.raises(InvalidParameterError):
            empirical_routability(cube, alive)


class TestThresholds:
    def test_mean_field_threshold(self):
        assert mean_field_percolation_threshold(5) == pytest.approx(0.25)

    def test_mean_field_threshold_requires_supercritical_degree(self):
        with pytest.raises(InvalidParameterError):
            mean_field_percolation_threshold(1.0)

    def test_giant_component_curve_is_decreasing_overall(self, cube):
        qs, fractions = giant_component_curve(cube, [0.1, 0.5, 0.9], trials=2, seed=4)
        assert qs == (0.1, 0.5, 0.9)
        assert fractions[0] > fractions[-1]

    def test_critical_failure_probability_estimate(self, cube):
        estimate = estimate_critical_failure_probability(cube, trials=2, seed=4)
        # A degree-5 hypercube keeps its giant component well past 30% failures.
        assert estimate.critical_failure_probability is None or (
            estimate.critical_failure_probability > 0.3
        )
        assert len(estimate.failure_probabilities) == len(estimate.giant_component_fractions)

    def test_empty_sweep_rejected(self, cube):
        with pytest.raises(InvalidParameterError):
            giant_component_curve(cube, [], trials=1, seed=1)
