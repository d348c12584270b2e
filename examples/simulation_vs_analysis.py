#!/usr/bin/env python3
"""Rebuild a miniature Figure 6: overlay simulation vs RCM prediction.

This example walks the full simulation pipeline explicitly — build an
overlay, inject failures, route sampled pairs — instead of using the
one-call ``simulate_geometry`` helper, so it doubles as a tour of the
simulator API.  It then prints the measured percent of failed paths next to
the analytical prediction for the same overlay size.

Usage: ``python examples/simulation_vs_analysis.py [geometry] [d]``
(defaults: ``xor`` and ``d=11``).
"""

from __future__ import annotations

import sys

import numpy as np

from repro import OVERLAY_CLASSES, failed_path_percent
from repro.dht import UniformNodeFailure
from repro.report import render_table
from repro.sim import route_pairs, sample_survivor_pair_arrays

FAILURE_PROBABILITIES = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7)
PAIRS_PER_POINT = 1500


def measure_failed_paths(geometry: str, d: int, seed: int = 11) -> list:
    """Measure the percent of failed paths for one geometry across the q sweep."""
    rng = np.random.default_rng(seed)
    overlay = OVERLAY_CLASSES[geometry].build(d, rng=rng)
    rows = []
    for q in FAILURE_PROBABILITIES:
        failure_model = UniformNodeFailure(q)
        alive = failure_model.sample(overlay.n_nodes, rng)
        if int(alive.sum()) < 2:
            continue
        sources, destinations = sample_survivor_pair_arrays(alive, PAIRS_PER_POINT, rng)
        metrics = route_pairs(overlay, sources, destinations, alive).to_metrics()
        rows.append(
            {
                "q": q,
                "simulated_failed_percent": 100.0 * metrics.failed_path_fraction,
                "analytical_failed_percent": failed_path_percent(geometry, q, d=d),
                "mean_hops_when_successful": metrics.mean_hops_successful,
            }
        )
    return rows


def main() -> None:
    geometry = sys.argv[1] if len(sys.argv) > 1 else "xor"
    d = int(sys.argv[2]) if len(sys.argv) > 2 else 11
    if geometry not in OVERLAY_CLASSES:
        raise SystemExit(f"unknown geometry {geometry!r}; choose from {sorted(OVERLAY_CLASSES)}")
    rows = measure_failed_paths(geometry, d)
    print(
        render_table(
            rows,
            title=f"Percent of failed paths — {geometry} overlay with N = 2^{d} (cf. Figure 6)",
        )
    )


if __name__ == "__main__":
    main()
