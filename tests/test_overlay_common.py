"""Behaviour shared by every DHT overlay simulator."""

from __future__ import annotations

import numpy as np
import pytest

from repro.dht import OVERLAY_CLASSES
from repro.dht.routing import FailureReason
from repro.exceptions import RoutingError, TopologyError

from conftest import SMALL_D


def all_alive(overlay):
    return np.ones(overlay.n_nodes, dtype=bool)


class TestRegistry:
    def test_all_overlays_registered(self):
        assert set(OVERLAY_CLASSES) == {
            "tree",
            "hypercube",
            "xor",
            "ring",
            "smallworld",
            "debruijn",
        }

    def test_geometry_and_system_names_set(self):
        for name, cls in OVERLAY_CLASSES.items():
            assert cls.geometry_name == name
            assert cls.system_name


class TestStructure:
    def test_node_count_matches_identifier_space(self, small_overlays, geometry_name):
        overlay = small_overlays[geometry_name]
        assert overlay.n_nodes == 2**SMALL_D
        assert overlay.d == SMALL_D

    def test_routing_tables_are_valid(self, small_overlays, geometry_name):
        small_overlays[geometry_name].validate_tables()

    def test_neighbors_do_not_include_self(self, small_overlays, geometry_name):
        overlay = small_overlays[geometry_name]
        for node in range(overlay.n_nodes):
            assert node not in overlay.neighbors(node)

    def test_degree_statistics(self, small_overlays, geometry_name):
        overlay = small_overlays[geometry_name]
        stats = overlay.degree_statistics()
        assert stats["min"] >= 1
        assert stats["min"] <= stats["mean"] <= stats["max"]


class TestRoutingWithoutFailures:
    def test_every_sampled_pair_routes(self, small_overlays, geometry_name, rng):
        overlay = small_overlays[geometry_name]
        alive = all_alive(overlay)
        for _ in range(50):
            source, destination = rng.choice(overlay.n_nodes, size=2, replace=False)
            result = overlay.route(int(source), int(destination), alive)
            assert result.succeeded, (
                f"{geometry_name} failed to route {source}->{destination} with no failures"
            )
            assert result.path[0] == source
            assert result.path[-1] == destination

    def test_paths_do_not_revisit_nodes(self, small_overlays, geometry_name, rng):
        overlay = small_overlays[geometry_name]
        alive = all_alive(overlay)
        for _ in range(30):
            source, destination = rng.choice(overlay.n_nodes, size=2, replace=False)
            result = overlay.route(int(source), int(destination), alive)
            assert len(set(result.path)) == len(result.path)

    def test_hop_counts_are_within_the_budget(self, small_overlays, geometry_name, rng):
        overlay = small_overlays[geometry_name]
        alive = all_alive(overlay)
        for _ in range(30):
            source, destination = rng.choice(overlay.n_nodes, size=2, replace=False)
            result = overlay.route(int(source), int(destination), alive)
            assert result.hops <= overlay.hop_limit()


class TestRoutingArgumentValidation:
    def test_source_equal_destination_rejected(self, small_overlays, geometry_name):
        overlay = small_overlays[geometry_name]
        with pytest.raises(RoutingError):
            overlay.route(3, 3, all_alive(overlay))

    def test_dead_endpoint_rejected(self, small_overlays, geometry_name):
        overlay = small_overlays[geometry_name]
        alive = all_alive(overlay)
        alive[5] = False
        with pytest.raises(RoutingError):
            overlay.route(5, 9, alive)
        with pytest.raises(RoutingError):
            overlay.route(9, 5, alive)

    def test_wrong_mask_shape_rejected(self, small_overlays, geometry_name):
        overlay = small_overlays[geometry_name]
        with pytest.raises(RoutingError):
            overlay.route(0, 1, np.ones(3, dtype=bool))

    def test_out_of_space_identifier_rejected(self, small_overlays, geometry_name):
        overlay = small_overlays[geometry_name]
        with pytest.raises(Exception):
            overlay.route(0, overlay.n_nodes + 5, all_alive(overlay))


class TestRoutingUnderTotalInteriorFailure:
    def test_only_endpoints_alive(self, small_overlays, geometry_name):
        """With every other node dead, routing succeeds only via a direct link."""
        overlay = small_overlays[geometry_name]
        alive = np.zeros(overlay.n_nodes, dtype=bool)
        source, destination = 0, overlay.n_nodes - 1
        alive[source] = alive[destination] = True
        result = overlay.route(source, destination, alive)
        if destination in overlay.neighbors(source):
            assert result.succeeded
        else:
            assert not result.succeeded
            assert result.failure_reason in (
                FailureReason.DEAD_END,
                FailureReason.REQUIRED_NEIGHBOR_FAILED,
            )


class TestBuildValidation:
    def test_build_rejects_rng_and_seed_together(self, geometry_name, rng):
        with pytest.raises(TopologyError):
            OVERLAY_CLASSES[geometry_name].build(4, rng=rng, seed=1)

    def test_build_is_reproducible_with_a_seed(self, geometry_name):
        cls = OVERLAY_CLASSES[geometry_name]
        first = cls.build(5, seed=99)
        second = cls.build(5, seed=99)
        for node in range(first.n_nodes):
            assert first.neighbors(node) == second.neighbors(node)
