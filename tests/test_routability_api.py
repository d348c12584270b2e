"""Tests for the high-level analytical entry points in repro.core.routability."""

from __future__ import annotations

import pytest

from repro.core.geometry import get_geometry
from repro.core.routability import (
    GeometryCurve,
    compare_geometries,
    failed_path_curve,
    failed_path_percent,
    routability,
    routability_scaling_curve,
)
from repro.exceptions import InvalidParameterError, UnknownGeometryError


class TestScalarFunctions:
    def test_routability_by_name_matches_geometry_object(self, geometry_name):
        direct = get_geometry(geometry_name).routability(0.3, d=12)
        assert routability(geometry_name, 0.3, d=12) == pytest.approx(direct)

    def test_routability_accepts_geometry_instances(self):
        geometry = get_geometry("xor")
        assert routability(geometry, 0.2, d=10) == pytest.approx(geometry.routability(0.2, d=10))

    def test_routability_rejects_parameters_with_instances(self):
        with pytest.raises(InvalidParameterError):
            routability(get_geometry("smallworld"), 0.2, d=10, near_neighbors=2)

    def test_failed_path_percent_complements_routability(self):
        value = routability("ring", 0.25, d=12)
        assert failed_path_percent("ring", 0.25, d=12) == pytest.approx(100 * (1 - value))

    def test_unknown_geometry_raises(self):
        with pytest.raises(UnknownGeometryError):
            routability("tapestry-like", 0.1, d=8)

    def test_symphony_parameters_forwarded(self):
        sparse = routability("smallworld", 0.1, d=16)
        dense = routability("smallworld", 0.1, d=16, near_neighbors=3, shortcuts=3)
        assert dense > sparse


class TestFailedPathCurve:
    def test_curve_structure(self):
        qs = [0.0, 0.2, 0.4]
        curve = failed_path_curve("tree", qs, d=10)
        assert isinstance(curve, GeometryCurve)
        assert curve.geometry == "tree"
        assert curve.system == "Plaxton"
        assert curve.x_values == tuple(qs)
        assert len(curve.y_values) == 3
        assert curve.y_values[0] == pytest.approx(0.0)

    def test_curve_values_match_scalar_function(self):
        curve = failed_path_curve("xor", [0.1, 0.5], d=12)
        assert curve.y_values[0] == pytest.approx(failed_path_percent("xor", 0.1, d=12))
        assert curve.y_values[1] == pytest.approx(failed_path_percent("xor", 0.5, d=12))

    def test_rows_are_labelled(self):
        rows = failed_path_curve("ring", [0.3], d=8).as_rows()
        assert rows == [{"q": 0.3, "failed_path_percent": pytest.approx(rows[0]["failed_path_percent"])}]

    def test_empty_sweep_rejected(self):
        with pytest.raises(InvalidParameterError):
            failed_path_curve("tree", [], d=8)


class TestScalingCurve:
    def test_curve_structure(self):
        sizes = [16, 256, 4096]
        curve = routability_scaling_curve("hypercube", sizes, q=0.1)
        assert curve.x_values == (16.0, 256.0, 4096.0)
        assert all(0.0 <= value <= 100.0 for value in curve.y_values)

    def test_non_power_of_two_sizes_are_accepted(self):
        curve = routability_scaling_curve("tree", [100, 1000, 10000], q=0.1)
        assert len(curve.y_values) == 3
        # The tree's routability decays with size (unscalable geometry).
        assert curve.y_values[-1] < curve.y_values[0]

    def test_empty_sizes_rejected(self):
        with pytest.raises(InvalidParameterError):
            routability_scaling_curve("tree", [], q=0.1)


class TestCompareGeometries:
    def test_one_row_per_geometry(self):
        rows = compare_geometries(["tree", "xor", "hypercube"], 0.3, d=12)
        assert [row["geometry"] for row in rows] == ["tree", "xor", "hypercube"]
        assert all(0.0 <= row["routability"] <= 1.0 for row in rows)

    def test_scalability_flags_match_verdicts(self):
        rows = compare_geometries(["tree", "ring", "smallworld"], 0.2, d=10)
        flags = {row["geometry"]: row["scalable"] for row in rows}
        assert flags == {"tree": False, "ring": True, "smallworld": False}

    def test_accepts_geometry_instances(self):
        rows = compare_geometries([get_geometry("xor")], 0.1, d=8)
        assert rows[0]["system"] == "Kademlia"

    def test_empty_input_rejected(self):
        with pytest.raises(InvalidParameterError):
            compare_geometries([], 0.1, d=8)
