"""Smoke tests for the package's public surface (imports, __all__, version, docstrings)."""

from __future__ import annotations

import importlib
from pathlib import Path

import pytest

import repro


SUBPACKAGES = [
    "repro.core",
    "repro.core.geometries",
    "repro.dht",
    "repro.sim",
    "repro.markov",
    "repro.percolation",
    "repro.experiments",
    "repro.workloads",
    "repro.report",
    "repro.cli",
    "repro.service",
]


class TestPackageSurface:
    def test_version_is_exposed(self):
        assert repro.__version__

    def test_pyproject_takes_the_version_from_the_package(self):
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
        config = tomllib.loads(pyproject.read_text(encoding="utf-8"))
        assert "version" not in config["project"]
        assert "version" in config["project"]["dynamic"]
        assert config["tool"]["setuptools"]["dynamic"]["version"] == {"attr": "repro.__version__"}

    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"repro.__all__ lists {name} but it is not importable"

    @pytest.mark.parametrize("module_name", SUBPACKAGES)
    def test_subpackages_import_cleanly(self, module_name):
        module = importlib.import_module(module_name)
        assert module.__doc__, f"{module_name} is missing a module docstring"

    @pytest.mark.parametrize("module_name", SUBPACKAGES[:9])
    def test_subpackage_all_names_resolve(self, module_name):
        module = importlib.import_module(module_name)
        for name in getattr(module, "__all__", []):
            assert hasattr(module, name), f"{module_name}.__all__ lists {name} but it is missing"

    def test_paper_geometries_constant(self):
        assert repro.PAPER_GEOMETRIES == ("tree", "hypercube", "xor", "ring", "smallworld")

    def test_public_classes_have_docstrings(self):
        for name in ("RoutingGeometry", "Overlay", "RouteResult"):
            assert getattr(repro, name).__doc__

    def test_quickstart_flow(self):
        """The README quickstart must keep working verbatim."""
        value = repro.routability("kademlia", q=0.1, d=16)
        assert 0.9 < value < 1.0
        verdicts = {row["geometry"]: row["scalable"] for row in repro.scalability_report(["tree", "xor"])}
        assert verdicts == {"tree": False, "xor": True}
