"""Tests for the small-world (Symphony) geometry closed forms — Sections 4.3.4 and 5.5."""

from __future__ import annotations

import pytest

from repro.core.geometries.smallworld import SmallWorldGeometry
from repro.exceptions import InvalidParameterError


@pytest.fixture(scope="module")
def symphony():
    return SmallWorldGeometry()


class TestConstruction:
    def test_default_parameters_match_the_paper_figures(self, symphony):
        assert symphony.near_neighbors == 1
        assert symphony.shortcuts == 1

    def test_rejects_non_positive_parameters(self):
        with pytest.raises(InvalidParameterError):
            SmallWorldGeometry(near_neighbors=0)
        with pytest.raises(InvalidParameterError):
            SmallWorldGeometry(shortcuts=-1)


class TestPhaseFailure:
    def test_constant_across_phases(self, symphony):
        values = {symphony.phase_failure_probability(m, 0.3, 16) for m in range(1, 10)}
        assert len(values) == 1

    @pytest.mark.parametrize("q", [0.05, 0.2, 0.5, 0.8])
    @pytest.mark.parametrize("d", [8, 16, 32])
    def test_closed_form_matches_exact_sum(self, symphony, q, d):
        assert symphony.phase_failure_probability(1, q, d) == pytest.approx(
            symphony.phase_failure_probability_exact_sum(q, d), rel=1e-10
        )

    def test_edge_probabilities(self, symphony):
        assert symphony.phase_failure_probability(1, 0.0, 16) == 0.0
        assert symphony.phase_failure_probability(1, 1.0, 16) == 1.0

    def test_more_links_reduce_phase_failure(self):
        sparse = SmallWorldGeometry(near_neighbors=1, shortcuts=1)
        dense = SmallWorldGeometry(near_neighbors=2, shortcuts=2)
        for q in (0.1, 0.3, 0.6):
            assert dense.phase_failure_probability(1, q, 16) < sparse.phase_failure_probability(
                1, q, 16
            )

    def test_degenerate_small_d_is_clamped(self, symphony):
        # ks/d + q^(kn+ks) can exceed 1 for d = 1; the failure probability must
        # remain a probability rather than raising or leaving [0, 1].
        value = symphony.phase_failure_probability(1, 0.95, 1)
        assert 0.0 <= value <= 1.0

    def test_failure_grows_with_identifier_length(self, symphony):
        # With a constant degree, larger rings make the distance-halving shortcut
        # rarer, so the per-phase failure probability grows with d.
        q = 0.2
        values = [symphony.phase_failure_probability(1, q, d) for d in (8, 16, 32, 64)]
        assert all(later > earlier for earlier, later in zip(values, values[1:]))


class TestRoutability:
    def test_distance_distribution_is_ring_like(self, symphony):
        assert symphony.distance_distribution(5) == pytest.approx([1, 2, 4, 8, 16])

    def test_collapses_with_system_size(self, symphony):
        # The unscalability statement of Figure 7(b) in numbers.
        q = 0.1
        values = [symphony.routability(q, d=d) for d in (10, 16, 24, 40, 100)]
        assert all(later < earlier for earlier, later in zip(values, values[1:]))
        assert values[-1] < 0.01

    def test_extra_links_restore_finite_size_routability(self):
        sparse = SmallWorldGeometry(1, 1)
        dense = SmallWorldGeometry(4, 4)
        assert dense.routability(0.1, d=20) > sparse.routability(0.1, d=20) + 0.3


class TestVerdict:
    def test_declared_unscalable(self, symphony):
        verdict = symphony.scalability()
        assert verdict.scalable is False
        assert "constant" in verdict.series_behaviour
