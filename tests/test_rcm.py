"""Tests for the explicit five-step Reachable Component Method pipeline."""

from __future__ import annotations

import math

import pytest

from repro.core.geometry import get_geometry
from repro.core.rcm import ReachableComponentMethod, analyze
from repro.exceptions import InvalidParameterError


class TestConstruction:
    def test_accepts_geometry_by_name(self):
        method = ReachableComponentMethod("hypercube")
        assert method.geometry.name == "hypercube"

    def test_accepts_geometry_instance(self):
        geometry = get_geometry("ring")
        method = ReachableComponentMethod(geometry)
        assert method.geometry is geometry

    def test_parameters_with_instance_rejected(self):
        geometry = get_geometry("ring")
        with pytest.raises(InvalidParameterError):
            ReachableComponentMethod(geometry, near_neighbors=2)

    def test_parameters_forwarded_by_name(self):
        method = ReachableComponentMethod("smallworld", near_neighbors=2, shortcuts=3)
        assert method.geometry.near_neighbors == 2


class TestSteps:
    def test_step2_matches_geometry_distribution(self):
        method = ReachableComponentMethod("hypercube")
        assert method.step2_distance_distribution(5) == pytest.approx(
            get_geometry("hypercube").distance_distribution(5)
        )

    def test_step3_matches_geometry_successes(self):
        method = ReachableComponentMethod("xor")
        assert method.step3_success_probabilities(6, 0.3) == pytest.approx(
            get_geometry("xor").path_success_probabilities(6, 0.3)
        )

    def test_step4_is_the_weighted_sum_of_steps_2_and_3(self):
        method = ReachableComponentMethod("tree")
        d, q = 8, 0.25
        counts = method.step2_distance_distribution(d)
        successes = method.step3_success_probabilities(d, q)
        assert method.step4_expected_reachable_component(d, q) == pytest.approx(
            float((counts * successes).sum()), rel=1e-9
        )

    def test_step5_is_the_expectation_ratio(self):
        method = ReachableComponentMethod("ring")
        d, q = 10, 0.2
        expected = method.step4_expected_reachable_component(d, q) / ((1 - q) * 2**d - 1)
        assert method.step5_routability(d, q) == pytest.approx(min(1.0, expected), rel=1e-9)


class TestAnalyze:
    @pytest.fixture(scope="class")
    def analysis(self):
        return analyze("hypercube", d=8, q=0.3)

    def test_metadata(self, analysis):
        assert analysis.geometry == "hypercube"
        assert analysis.system == "CAN"
        assert analysis.d == 8
        assert analysis.n_nodes == 256
        assert analysis.q == 0.3

    def test_vectors_have_one_entry_per_distance(self, analysis):
        assert analysis.distances == tuple(range(1, 9))
        assert len(analysis.distance_counts) == 8
        assert len(analysis.phase_failure_probabilities) == 8
        assert len(analysis.path_success_probabilities) == 8

    def test_expected_survivors(self, analysis):
        assert analysis.expected_survivors == pytest.approx(0.7 * 256)

    def test_routability_consistency(self, analysis):
        assert analysis.routability == pytest.approx(
            get_geometry("hypercube").routability(0.3, d=8)
        )
        assert analysis.failed_path_fraction == pytest.approx(1 - analysis.routability)
        assert analysis.failed_path_percent == pytest.approx(100 * (1 - analysis.routability))

    def test_rows_are_consistent_with_vectors(self, analysis):
        rows = analysis.as_rows()
        assert len(rows) == 8
        assert rows[0]["h"] == 1
        assert rows[0]["n_h"] == pytest.approx(analysis.distance_counts[0])
        assert rows[-1]["p_h"] == pytest.approx(analysis.path_success_probabilities[-1])

    def test_expected_component_matches_weighted_sum(self, analysis):
        weighted = sum(
            n * p
            for n, p in zip(analysis.distance_counts, analysis.path_success_probabilities)
        )
        assert analysis.expected_reachable_component == pytest.approx(weighted, rel=1e-9)

    def test_geometry_parameters_forwarded(self):
        analysis = analyze("smallworld", d=10, q=0.2, near_neighbors=2, shortcuts=2)
        baseline = analyze("smallworld", d=10, q=0.2)
        assert analysis.routability > baseline.routability

    def test_huge_d_reports_infinite_component_gracefully(self):
        analysis = analyze("hypercube", d=1200, q=0.1)
        assert math.isinf(analysis.expected_reachable_component)
        assert 0.0 <= analysis.routability <= 1.0

    def test_invalid_inputs_rejected(self):
        with pytest.raises(InvalidParameterError):
            analyze("hypercube", d=0, q=0.5)
        with pytest.raises(InvalidParameterError):
            analyze("hypercube", d=4, q=1.5)
