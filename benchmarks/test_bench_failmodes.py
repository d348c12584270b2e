"""Benchmark FAILMODES: non-uniform failure-model sweeps through grouped dispatch.

PR 4 threads the failure-model scenario library (degree-targeted, regional,
subtree, uniform+regional composite) through the vectorized sweep stack.
This benchmark guards the property that made that worthwhile: a
``(geometry × model × severity × replicate)`` grid of *non-uniform* models
keeps ``SweepRunner``'s grouped ("fused") dispatch at least as fast as
routing every cell alone (the per-cell reference of
:mod:`repro.sim.conformance`) — i.e. adversarial and correlated scenarios
run at the same grouped/parallel speed as the paper's uniform model,
rather than silently falling back to per-cell kernel launches.

Both contenders consume identical per-cell seed streams (mask generation is
held to the same bit-identity invariant as routing), so every cell's metrics
must agree exactly — the timing comparison doubles as an end-to-end
cross-check of the model library under grouped dispatch.  Results go to
``BENCH_failmodes.json`` (path overridable via ``RCM_BENCH_FAILMODES_JSON``)
for CI to upload with the other perf artifacts.

The acceptance floor is grouped ≥ ``RCM_BENCH_FAILMODES_SPEEDUP_FLOOR`` × the
per-cell reference (default 1.0: grouped dispatch must never be a
regression for non-uniform models; the large historical win over the PR-1
engine is pinned separately in ``test_bench_sweep.py``).
"""

from __future__ import annotations

import json
import math
import os
import platform
import time

from repro.sim.conformance import _per_cell_reference
from repro.sim.engine import _OVERLAY_CACHE, SweepCell, SweepRunner
from repro.workloads.generators import paper_failure_probabilities

#: Geometries x non-uniform models of the benchmark grid.
BENCH_GEOMETRIES = ("tree", "hypercube", "xor")
BENCH_MODELS = ("targeted", "regional", "uniform+regional")
FAILMODES_D = 10
PAIRS = 2000
TRIALS = 3
SEED = 20060328
#: Required speedup of grouped dispatch over the per-cell reference on the
#: non-uniform grid.
SPEEDUP_FLOOR = float(os.environ.get("RCM_BENCH_FAILMODES_SPEEDUP_FLOOR", "1.0"))


# Each contender clears the shared overlay cache so it pays its own builds;
# both are pinned to the numpy backend so the recorded trajectory tracks
# dispatch overhead rather than JIT availability.
def _timed_grid(failure_probabilities):
    _OVERLAY_CACHE.clear()
    runner = SweepRunner(
        pairs=PAIRS, replicates=TRIALS, workers=1, base_seed=SEED, backend="numpy"
    )
    started = time.perf_counter()
    results = runner.run(
        list(BENCH_GEOMETRIES), FAILMODES_D, failure_probabilities, list(BENCH_MODELS)
    )
    return results, time.perf_counter() - started


def _timed_reference(failure_probabilities):
    _OVERLAY_CACHE.clear()
    cells = [
        SweepCell(geometry=geometry, d=FAILMODES_D, q=q, replicate=replicate, model=model)
        for geometry in BENCH_GEOMETRIES
        for model in BENCH_MODELS
        for replicate in range(TRIALS)
        for q in failure_probabilities
    ]
    started = time.perf_counter()
    results = _per_cell_reference(cells, pairs=PAIRS, base_seed=SEED, backend="numpy")
    return results, time.perf_counter() - started


def _assert_metrics_equal(left, right, context):
    assert left.attempts == right.attempts and left.successes == right.successes, context
    assert left.failure_reasons == right.failure_reasons, context
    for field in ("mean_hops_successful", "mean_hops_failed"):
        a, b = getattr(left, field), getattr(right, field)
        assert a == b or (math.isnan(a) and math.isnan(b)), (context, field)


def test_fused_keeps_its_speedup_for_nonuniform_models(benchmark):
    failure_probabilities = paper_failure_probabilities(fast=True)

    # Best of three runs per contender: the floor should gate on code, not
    # on a scheduler hiccup of the shared CI runner.
    per_cell_seconds = math.inf
    for _ in range(3):
        per_cell_results, elapsed = _timed_reference(failure_probabilities)
        per_cell_seconds = min(per_cell_seconds, elapsed)
    fused_results, fused_seconds = benchmark.pedantic(
        lambda: _timed_grid(failure_probabilities), rounds=1, iterations=1
    )
    for _ in range(2):
        fused_results, elapsed = _timed_grid(failure_probabilities)
        fused_seconds = min(fused_seconds, elapsed)

    # Identical per-cell seed streams: grouped dispatch and the per-cell
    # reference must measure identical metrics for every
    # (geometry, model, q, replicate).
    assert fused_results.keys() == per_cell_results.keys()
    assert {cell.model for cell in fused_results} == set(BENCH_MODELS)
    for cell, reference in per_cell_results.items():
        assert fused_results[cell].degenerate == reference.degenerate, cell
        _assert_metrics_equal(fused_results[cell].metrics, reference.metrics, cell)

    speedup = per_cell_seconds / fused_seconds
    report = {
        "benchmark": "failure-model-sweep-dispatch",
        "d": FAILMODES_D,
        "pairs": PAIRS,
        "trials": TRIALS,
        "cells": len(fused_results),
        "geometries": list(BENCH_GEOMETRIES),
        "failure_models": list(BENCH_MODELS),
        "failure_probabilities": list(failure_probabilities),
        "python": platform.python_version(),
        "backend_name": "numpy",
        "per_cell_seconds": per_cell_seconds,
        "fused_seconds": fused_seconds,
        "speedup_fused_vs_per_cell": speedup,
        "speedup_floor": SPEEDUP_FLOOR,
    }
    output_path = os.environ.get("RCM_BENCH_FAILMODES_JSON", "BENCH_failmodes.json")
    with open(output_path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    print()
    print(json.dumps(report, indent=2))

    assert speedup >= SPEEDUP_FLOOR, (
        f"fused dispatch speedup {speedup:.2f}x over the per-cell reference on the "
        f"non-uniform failure-model grid is below the {SPEEDUP_FLOOR:.2f}x floor "
        f"(per-cell {per_cell_seconds:.2f}s vs fused {fused_seconds:.2f}s)"
    )
