"""Tests for the RoutingGeometry base class, registry and shared derivations."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.geometry import (
    REGISTRY,
    get_geometry,
    list_geometries,
    register_geometry,
)
from repro.core.geometries import PAPER_GEOMETRIES
from repro.exceptions import InvalidParameterError, UnknownGeometryError


class TestRegistry:
    def test_all_paper_geometries_registered(self):
        assert set(PAPER_GEOMETRIES) <= set(list_geometries())

    def test_get_geometry_by_name(self):
        assert get_geometry("hypercube").name == "hypercube"

    def test_get_geometry_by_system_alias(self):
        assert get_geometry("kademlia").name == "xor"
        assert get_geometry("Chord").name == "ring"
        assert get_geometry("CAN").name == "hypercube"
        assert get_geometry("plaxton").name == "tree"
        assert get_geometry("Symphony").name == "smallworld"

    def test_unknown_geometry_raises(self):
        with pytest.raises(UnknownGeometryError):
            get_geometry("pastry")

    def test_parameters_forwarded_to_constructor(self):
        geometry = get_geometry("smallworld", near_neighbors=3, shortcuts=2)
        assert geometry.near_neighbors == 3
        assert geometry.shortcuts == 2

    def test_double_registration_rejected(self):
        cls = REGISTRY["tree"]
        with pytest.raises(InvalidParameterError):
            register_geometry(cls)

class TestSharedDerivations:
    def test_distance_distribution_sums_to_n_minus_one(self, geometry_name):
        geometry = get_geometry(geometry_name)
        for d in (4, 8, 12):
            counts = geometry.distance_distribution(d)
            assert counts.shape == (d,)
            assert counts.sum() == pytest.approx(2**d - 1, rel=1e-9)

    def test_phase_failure_probabilities_are_probabilities(self, geometry_name):
        geometry = get_geometry(geometry_name)
        failures = geometry.phase_failure_probabilities(12, 0.4)
        assert np.all(failures >= 0.0)
        assert np.all(failures <= 1.0)

    def test_path_success_probabilities_are_non_increasing(self, geometry_name):
        geometry = get_geometry(geometry_name)
        successes = geometry.path_success_probabilities(12, 0.3)
        assert np.all(np.diff(successes) <= 1e-12)
        assert np.all((successes >= 0.0) & (successes <= 1.0))

    def test_expected_reachable_component_at_zero_failure(self, geometry_name):
        geometry = get_geometry(geometry_name)
        assert geometry.expected_reachable_component(10, 0.0) == pytest.approx(2**10 - 1)

    def test_routability_edges(self, geometry_name):
        geometry = get_geometry(geometry_name)
        assert geometry.routability(0.0, d=12) == 1.0
        assert geometry.routability(1.0, d=12) == 0.0

    def test_routability_is_a_probability(self, geometry_name):
        geometry = get_geometry(geometry_name)
        for q in (0.05, 0.3, 0.7, 0.95):
            value = geometry.routability(q, d=14)
            assert 0.0 <= value <= 1.0

    def test_failed_path_percent_complements_routability(self, geometry_name):
        geometry = get_geometry(geometry_name)
        routable = geometry.routability(0.25, d=10)
        assert geometry.failed_path_percent(0.25, d=10) == pytest.approx(100 * (1 - routable))

    def test_routability_for_size_interpolates(self, geometry_name):
        geometry = get_geometry(geometry_name)
        lower = geometry.routability(0.2, d=10)
        upper = geometry.routability(0.2, d=11)
        between = geometry.routability_for_size(1500, 0.2)
        assert min(lower, upper) - 1e-12 <= between <= max(lower, upper) + 1e-12

    def test_routability_for_size_exact_at_powers_of_two(self, geometry_name):
        geometry = get_geometry(geometry_name)
        assert geometry.routability_for_size(4096, 0.3) == pytest.approx(
            geometry.routability(0.3, d=12)
        )

    def test_tiny_expected_population_reports_zero_routability(self, geometry_name):
        # With d=1 and q=0.9 the expected number of survivors is below one node:
        # there are no pairs to route between.
        geometry = get_geometry(geometry_name)
        assert geometry.routability(0.9, d=1) == 0.0

    def test_very_large_d_does_not_overflow(self, geometry_name):
        geometry = get_geometry(geometry_name)
        value = geometry.routability(0.1, d=400)
        assert 0.0 <= value <= 1.0
        assert not math.isnan(value)
