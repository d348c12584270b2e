"""Micro-benchmarks of the library's primitives (not tied to a paper figure).

These track the costs a downstream user of the library actually pays:

* evaluating one analytical routability value per geometry,
* building an overlay simulator, and
* routing messages through a failed overlay with the batch engine.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.geometry import get_geometry
from repro.dht import OVERLAY_CLASSES, UniformNodeFailure
from repro.sim.engine import route_pairs
from repro.sim.sampling import sample_survivor_pair_arrays

GEOMETRIES = ("tree", "hypercube", "xor", "ring", "smallworld")


@pytest.mark.parametrize("geometry", GEOMETRIES)
def test_analytical_routability_evaluation(benchmark, geometry):
    """One r(N, q) evaluation at the paper's N = 2^16."""
    model = get_geometry(geometry)
    value = benchmark(model.routability, 0.3, d=16)
    assert 0.0 <= value <= 1.0


@pytest.mark.parametrize("geometry", GEOMETRIES)
def test_overlay_construction(benchmark, geometry):
    """Building a 4096-node overlay (routing tables for every node)."""
    overlay_cls = OVERLAY_CLASSES[geometry]
    overlay = benchmark(lambda: overlay_cls.build(12, seed=7))
    assert overlay.n_nodes == 4096


@pytest.mark.parametrize("geometry", GEOMETRIES)
def test_routing_throughput_under_failure(benchmark, geometry):
    """Routing a batch of 200 messages through a 1024-node overlay at q = 0.2.

    Times the batch engine's ``route_pairs``, the path every library and
    CLI measurement takes.
    """
    overlay = OVERLAY_CLASSES[geometry].build(10, seed=7)
    rng = np.random.default_rng(11)
    alive = UniformNodeFailure(0.2).sample(overlay.n_nodes, rng)
    sources, destinations = sample_survivor_pair_arrays(alive, 200, rng)

    outcome = benchmark(route_pairs, overlay, sources, destinations, alive)
    assert 0 <= int(outcome.succeeded.sum()) <= sources.size


def test_asymptotic_limit_estimation(benchmark):
    """Numerically estimating lim_h p(h, q) for the XOR geometry (Section 5 machinery)."""
    from repro.core.scalability import numerical_success_limit

    limit = benchmark(numerical_success_limit, get_geometry("xor"), 0.2)
    assert limit is not None and limit > 0.5
