#!/usr/bin/env python3
"""Quickstart: analyse the five DHT routing geometries with the RCM framework.

Run with ``python examples/quickstart.py``.  It prints

1. the analytical routability of every geometry at the paper's simulation
   size (N = 2^16) for a few failure probabilities,
2. the Section 5 scalability classification, and
3. a small Monte-Carlo simulation cross-check on a 1024-node overlay.

Everything here uses only the public API of the ``repro`` package.
"""

from __future__ import annotations

from repro import (
    PAPER_GEOMETRIES,
    routability,
    scalability_report,
    simulate_geometry,
)
from repro.report import render_table


def analytical_overview() -> None:
    """Routability of every geometry at N = 2^16 for a few failure probabilities."""
    rows = []
    for q in (0.1, 0.3, 0.5):
        row = {"q": q}
        for geometry in PAPER_GEOMETRIES:
            row[geometry] = routability(geometry, q, d=16)
        rows.append(row)
    print(render_table(rows, title="Analytical routability at N = 2^16 (RCM, Eq. 3)"))
    print()


def scalability_overview() -> None:
    """The paper's scalable/unscalable split, with numerical evidence."""
    rows = scalability_report(list(PAPER_GEOMETRIES))
    print(render_table(rows, title="Scalability classification (Section 5)"))
    print()


def simulation_cross_check() -> None:
    """Measure routability on real (simulated) overlays and compare with the analysis."""
    rows = []
    for geometry in PAPER_GEOMETRIES:
        sweep = simulate_geometry(
            geometry, d=10, failure_probabilities=[0.1, 0.3], pairs=800, trials=2, seed=7
        )
        for result in sweep.results:
            rows.append(
                {
                    "geometry": geometry,
                    "q": result.q,
                    "simulated_routability": result.routability,
                    "analytical_routability": routability(geometry, result.q, d=10),
                }
            )
    print(render_table(rows, title="Simulation vs analysis on a 1024-node overlay"))


def main() -> None:
    analytical_overview()
    scalability_overview()
    simulation_cross_check()


if __name__ == "__main__":
    main()
