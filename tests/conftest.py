"""Shared fixtures for the test suite."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.dht import OVERLAY_CLASSES
from repro.sim.backends import NumpyBackend

#: Identifier length shared by the per-geometry fixtures (64-node overlays).
SMALL_D = 6

#: Every registered overlay geometry, in registration order (the paper's five
#: plus extensions such as debruijn).  Auto-discovered so new geometries get
#: the whole parametrised suite for free.
ALL_GEOMETRIES = tuple(OVERLAY_CLASSES)

#: Script prelude for subprocess tests: a meta-path finder that makes the
#: packages the runtime must not need (``scipy``, ``networkx``) unimportable,
#: even when the test environment has them installed.
BLOCK_UNDECLARED_IMPORTS = """
import importlib.abc, sys

class BlockUndeclared(importlib.abc.MetaPathFinder):
    BLOCKED = ("scipy", "networkx")

    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] in self.BLOCKED:
            raise ModuleNotFoundError(f"No module named {name!r} (blocked)")
        return None

sys.meta_path.insert(0, BlockUndeclared())
"""


def run_with_undeclared_imports_blocked(script: str, stdin: str = "") -> subprocess.CompletedProcess:
    """Run ``script`` in a fresh interpreter (``src`` on the path) with scipy and networkx blocked."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", BLOCK_UNDECLARED_IMPORTS + script],
        input=stdin,
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )


@pytest.fixture
def chunk_log(monkeypatch):
    """Record every chunk the NumPy backend routes, as ``(state, pairs)``.

    With the routing driver's pair chunk lowered
    (``repro.sim.conformance.chunked_routing``) this shows a batch really
    went through several chunks, and under how many prepared states.
    """
    calls = []
    original = NumpyBackend.run

    def recording(self, overlay, state, sources, destinations):
        calls.append((state, sources.size))
        return original(self, overlay, state, sources, destinations)

    monkeypatch.setattr(NumpyBackend, "run", recording)
    return calls


@pytest.fixture
def rng():
    """A deterministic random generator for tests."""
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def small_overlays():
    """One small (d=6, 64-node) overlay per registered geometry, built once per session."""
    seed = 2006
    return {
        geometry: cls.build(SMALL_D, seed=seed)
        for geometry, cls in OVERLAY_CLASSES.items()
    }


@pytest.fixture(params=ALL_GEOMETRIES)
def geometry_name(request):
    """Parametrised fixture yielding each registered overlay geometry label."""
    return request.param
