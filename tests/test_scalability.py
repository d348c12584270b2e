"""Tests for the Section 5 scalability classification machinery."""

from __future__ import annotations

import pytest

from repro.core.geometry import get_geometry
from repro.core.scalability import (
    assess_scalability,
    numerical_success_limit,
    scalability_report,
)
from repro.core.geometries import PAPER_GEOMETRIES
from repro.exceptions import InvalidParameterError

#: The paper's verdicts (Section 5): which basic routing geometries are
#: scalable — plus the de Bruijn extension, tree-like (required neighbour)
#: and hence unscalable.
PAPER_VERDICTS = {
    "tree": False,
    "hypercube": True,
    "xor": True,
    "ring": True,
    "smallworld": False,
    "debruijn": False,
}


class TestAssessScalability:
    def test_verdicts_match_the_paper(self, geometry_name):
        assessment = assess_scalability(geometry_name, q=0.1)
        assert assessment.scalable is PAPER_VERDICTS[geometry_name]

    def test_numerical_evidence_is_consistent_with_the_verdict(self, geometry_name):
        assessment = assess_scalability(geometry_name, q=0.1)
        assert assessment.consistent, (
            f"numerical diagnostics disagree with the paper's verdict for {geometry_name}: "
            f"{assessment.series_diagnostic}"
        )

    @pytest.mark.parametrize("q", [0.05, 0.3])
    def test_consistency_holds_across_failure_probabilities(self, geometry_name, q):
        assert assess_scalability(geometry_name, q=q).consistent

    def test_accepts_geometry_instances(self):
        assessment = assess_scalability(get_geometry("xor"), q=0.2)
        assert assessment.verdict.geometry == "xor"

    def test_rejects_parameters_with_instances(self):
        # An instance carries its own parameters; extra ones are an error,
        # not silently dropped.
        with pytest.raises(InvalidParameterError):
            assess_scalability(get_geometry("smallworld"), near_neighbors=5)

    def test_rejects_degenerate_probe_probabilities(self):
        with pytest.raises(InvalidParameterError):
            assess_scalability("xor", q=0.0)
        with pytest.raises(InvalidParameterError):
            assess_scalability("xor", q=1.0)


class TestNumericalSuccessLimit:
    def test_scalable_geometries_have_positive_limits(self):
        for name in ("hypercube", "xor", "ring"):
            limit = numerical_success_limit(get_geometry(name), 0.1)
            assert limit is not None
            assert limit > 0.5

    def test_unscalable_geometries_collapse(self):
        # The product either visibly collapses to zero or fails to stabilise within
        # the phase budget (reported as None); it must never settle on a positive limit.
        for name in ("tree", "smallworld"):
            limit = numerical_success_limit(get_geometry(name), 0.1)
            assert limit is None or limit == pytest.approx(0.0, abs=1e-12)

    def test_tree_limit_collapses_with_a_larger_phase_budget(self):
        limit = numerical_success_limit(get_geometry("tree"), 0.1, max_phases=10000)
        assert limit == pytest.approx(0.0, abs=1e-12)

    def test_limit_matches_infinite_product_for_hypercube(self):
        # prod_{m>=1} (1 - q^m) has a well-known value; check one point.
        limit = numerical_success_limit(get_geometry("hypercube"), 0.5)
        assert limit == pytest.approx(0.2887880951, rel=1e-6)

    def test_limit_decreases_with_failure_probability(self):
        geometry = get_geometry("xor")
        assert numerical_success_limit(geometry, 0.4) < numerical_success_limit(geometry, 0.1)


class TestScalabilityReport:
    def test_one_row_per_geometry(self):
        rows = scalability_report(list(PAPER_GEOMETRIES))
        assert len(rows) == len(PAPER_GEOMETRIES)
        verdicts = {row["geometry"]: row["scalable"] for row in rows}
        assert verdicts == {name: PAPER_VERDICTS[name] for name in PAPER_GEOMETRIES}

    def test_rows_carry_numerical_evidence(self):
        rows = scalability_report(["hypercube", "smallworld"])
        by_name = {row["geometry"]: row for row in rows}
        assert by_name["hypercube"]["numerical_success_limit"] > 0.5
        assert by_name["smallworld"]["numerical_success_limit"] == pytest.approx(0.0, abs=1e-12)
        assert all(row["consistent"] for row in rows)

    def test_empty_input_rejected(self):
        with pytest.raises(InvalidParameterError):
            scalability_report([])
