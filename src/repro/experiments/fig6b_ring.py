"""FIG6B — analytical bound vs simulation for ring (Chord) routing (Figure 6(b)).

The ring Markov chain does not credit the progress made by suboptimal hops,
so its failed-path prediction is an *upper bound*; the paper notes the bound
is tight in the practically relevant region (q below roughly 20%) and
loosens at higher failure rates.  This experiment regenerates both series
and additionally reports the gap, so the bound quality is an explicit
number rather than a visual impression.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..core.routability import failed_path_curve
from ..sim.engine import SweepRunner
from ..workloads.generators import paper_failure_probabilities
from .base import Experiment, ExperimentConfig, ExperimentResult

__all__ = ["Fig6bRingBound"]

PAPER_SIMULATION_D = 16
FAST_SIMULATION_D = 10
ANALYTICAL_D = 16


class Fig6bRingBound(Experiment):
    """Reproduce Figure 6(b): ring routing, analytical upper bound vs simulation."""

    experiment_id = "FIG6B"
    title = "Static resilience of ring (Chord) routing: analytical bound vs simulation"
    paper_reference = "Figure 6(b)"

    def run(self, config: Optional[ExperimentConfig] = None) -> ExperimentResult:
        """Compute the ring's analytical curve and measure the simulated grid."""
        config = config or ExperimentConfig()
        simulation_d = config.resolved_simulation_d(
            full_default=PAPER_SIMULATION_D, fast_default=FAST_SIMULATION_D
        )
        workload = config.resolved_workload()
        failure_probabilities = paper_failure_probabilities(fast=config.fast)

        analytical = failed_path_curve("ring", failure_probabilities, d=ANALYTICAL_D)
        with SweepRunner(
            pairs=workload.pairs,
            replicates=workload.trials,
            workers=config.workers,
            batch_size=config.batch_size,
            backend=config.backend,
            base_seed=workload.derived_seed("fig6b-ring"),
        ) as runner:
            sweep = runner.sweep("ring", simulation_d, failure_probabilities)
        rows: List[Dict[str, object]] = []
        for q, analytical_value, simulated_value in zip(
            failure_probabilities, analytical.y_values, sweep.failed_path_percentages
        ):
            rows.append(
                {
                    "q": q,
                    "ring_analytical_upper_bound": analytical_value,
                    "ring_simulated": simulated_value,
                    "bound_gap": analytical_value - simulated_value,
                }
            )

        low_q_gaps = [row["bound_gap"] for row in rows if row["q"] <= 0.2]
        notes = [
            "The analytical curve is an upper bound on failed paths because the Markov chain ignores "
            "the progress preserved by suboptimal hops (Section 4.3.3).",
            f"Mean bound gap for q <= 20%: {sum(low_q_gaps) / len(low_q_gaps):.2f} percentage points "
            "(the paper calls the bound 'very close to simulation' in this region).",
        ]
        return self._result(
            parameters={
                "analytical_d": ANALYTICAL_D,
                "simulation_d": simulation_d,
                "pairs": workload.pairs,
                "trials": workload.trials,
                "fast": config.fast,
                "backend": config.backend,
                "workers": config.workers,
            },
            tables={"fig6b_failed_path_percent": rows},
            notes=notes,
        )
