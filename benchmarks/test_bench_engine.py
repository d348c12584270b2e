"""Benchmark ENGINE: vectorized batch routing vs the scalar oracle reference.

Times the Figure 6(a) simulation sweep (tree, hypercube, XOR at ``d = 10``)
through the engine (:func:`~repro.sim.static_resilience.sweep_failure_probabilities`)
and through the conformance harness's scalar-oracle sweep reference, which
routes the very per-cell groups the engine samples (trial ``k`` of a point
is replicate ``k``, drawn from that cell's own stream) pair by pair through
``Overlay.route``.  The result goes to ``BENCH_engine.json`` (path
overridable via ``RCM_BENCH_ENGINE_JSON``) so CI can upload it as the
perf-trajectory artifact.  Both paths route the same samples, so the sweep
results must agree exactly — the timing comparison doubles as an
end-to-end correctness check.

The acceptance floor is a ≥10x speedup for the batch engine on the sweep.
The floor compares two code paths on the same interpreter and machine, so
it is load-robust in a way absolute timings are not.
"""

from __future__ import annotations

import json
import os
import platform
import time

from repro.sim.backends import default_backend_name
from repro.sim.conformance import _oracle_measure_routability
from repro.sim.static_resilience import build_overlay, sweep_failure_probabilities
from repro.workloads.generators import paper_failure_probabilities

#: The Figure 6(a) geometries, swept at the fast-mode overlay size.
BENCH_GEOMETRIES = ("tree", "hypercube", "xor")
ENGINE_D = 10
PAIRS = 2000
TRIALS = 3
SEED = 20060328
#: Required aggregate speedup of the batch engine over the scalar reference.
SPEEDUP_FLOOR = float(os.environ.get("RCM_BENCH_SPEEDUP_FLOOR", "10"))


def _timed_sweep(overlay, failure_probabilities):
    """The engine's sweep and its seconds."""
    started = time.perf_counter()
    sweep = sweep_failure_probabilities(
        overlay, failure_probabilities, pairs=PAIRS, trials=TRIALS, seed=SEED
    )
    return sweep.routabilities, time.perf_counter() - started


def _timed_oracle_sweep(overlay, failure_probabilities):
    """The scalar-oracle reference over the same per-cell groups, and its seconds."""
    started = time.perf_counter()
    routabilities = tuple(
        _oracle_measure_routability(overlay, q, pairs=PAIRS, trials=TRIALS, seed=SEED).routability
        for q in failure_probabilities
    )
    return routabilities, time.perf_counter() - started


def test_engine_speedup_on_fig6a_sweep(benchmark):
    failure_probabilities = paper_failure_probabilities(fast=True)
    overlays = {}
    for geometry in BENCH_GEOMETRIES:
        overlay = build_overlay(geometry, ENGINE_D, seed=1)
        overlay.neighbor_array()  # warm the table cache outside the timed region
        overlays[geometry] = overlay

    per_geometry = {}
    total_scalar = 0.0
    total_batch = 0.0
    for geometry, overlay in overlays.items():
        scalar_routabilities, scalar_seconds = _timed_oracle_sweep(overlay, failure_probabilities)
        batch_routabilities, batch_seconds = _timed_sweep(overlay, failure_probabilities)
        # Same seed, same cells: engine and reference must measure identical curves.
        assert batch_routabilities == scalar_routabilities, geometry
        total_scalar += scalar_seconds
        total_batch += batch_seconds
        per_geometry[geometry] = {
            "scalar_seconds": scalar_seconds,
            "batch_seconds": batch_seconds,
            "speedup": scalar_seconds / batch_seconds,
        }

    # Record the batch path in the pytest-benchmark stats as well.
    benchmark.pedantic(
        lambda: [_timed_sweep(overlay, failure_probabilities) for overlay in overlays.values()],
        rounds=1,
        iterations=1,
    )

    speedup = total_scalar / total_batch
    report = {
        "benchmark": "fig6a-simulation-sweep",
        "d": ENGINE_D,
        "pairs": PAIRS,
        "trials": TRIALS,
        "failure_probabilities": list(failure_probabilities),
        "python": platform.python_version(),
        "backend_name": default_backend_name(),
        "per_geometry": per_geometry,
        "total_scalar_seconds": total_scalar,
        "total_batch_seconds": total_batch,
        "speedup": speedup,
        "speedup_floor": SPEEDUP_FLOOR,
    }
    output_path = os.environ.get("RCM_BENCH_ENGINE_JSON", "BENCH_engine.json")
    with open(output_path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    print()
    print(json.dumps(report, indent=2))

    assert speedup >= SPEEDUP_FLOOR, (
        f"batch engine speedup {speedup:.1f}x below the {SPEEDUP_FLOOR:.0f}x floor "
        f"(scalar {total_scalar:.2f}s vs batch {total_batch:.2f}s)"
    )
