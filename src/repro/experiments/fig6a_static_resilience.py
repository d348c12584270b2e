"""FIG6A — analytical vs simulated failed paths for tree, hypercube and XOR (Figure 6(a)).

The paper overlays its analytical curves on the simulation data of Gummadi
et al. at ``N = 2^16``.  The original simulator is not available, so this
experiment regenerates the simulation side with this package's overlay
simulators (see DESIGN.md's substitution note) and reports both series for
each geometry: the percent of failed paths as a function of the node
failure probability.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..core.routability import failed_path_curve
from ..sim.engine import SweepRunner
from ..workloads.generators import paper_failure_probabilities
from .base import Experiment, ExperimentConfig, ExperimentResult

__all__ = ["Fig6aStaticResilience"]

#: The geometries plotted in Figure 6(a).
FIG6A_GEOMETRIES = ("tree", "hypercube", "xor")
#: The paper's simulation size (Gummadi et al. use N = 2^16).
PAPER_SIMULATION_D = 16
#: Identifier length used in fast mode (CI / default benchmarks).
FAST_SIMULATION_D = 10
#: The analytical curves are always evaluated at the paper's N = 2^16.
ANALYTICAL_D = 16


class Fig6aStaticResilience(Experiment):
    """Reproduce Figure 6(a): percent of failed paths vs failure probability."""

    experiment_id = "FIG6A"
    title = "Static resilience of tree, hypercube and XOR routing (analysis vs simulation)"
    paper_reference = "Figure 6(a)"
    table_names = ("fig6a_failed_path_percent",)

    def run(self, config: Optional[ExperimentConfig] = None) -> ExperimentResult:
        """Compute the analytical curves and measure the simulated routability grid."""
        config = config or ExperimentConfig()
        simulation_d = config.resolved_simulation_d(
            full_default=PAPER_SIMULATION_D, fast_default=FAST_SIMULATION_D
        )
        workload = config.resolved_workload()
        failure_probabilities = paper_failure_probabilities(fast=config.fast)
        # q = 1 - epsilon regions are uninformative and q values beyond 0.9 can
        # leave too few survivors to sample pairs from; the paper stops at 90%.

        with SweepRunner(
            pairs=workload.pairs,
            replicates=workload.trials,
            workers=config.workers,
            backend=config.backend,
            base_seed=workload.derived_seed("fig6a-sim"),
        ) as runner:
            # Fan the whole (geometry x q x replicate) grid out at once so the
            # worker pool parallelises across geometries too; the per-geometry
            # sweeps below are then served from the runner's memo.
            runner.run(list(FIG6A_GEOMETRIES), simulation_d, failure_probabilities)
            rows: List[Dict[str, object]] = [dict(q=q) for q in failure_probabilities]
            for geometry in FIG6A_GEOMETRIES:
                analytical = failed_path_curve(geometry, failure_probabilities, d=ANALYTICAL_D)
                sweep = runner.sweep(geometry, simulation_d, failure_probabilities)
                for row, analytical_value, simulated_value in zip(
                    rows, analytical.y_values, sweep.failed_path_percentages
                ):
                    row[f"{geometry}_analytical"] = analytical_value
                    row[f"{geometry}_simulated"] = simulated_value

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
            tables={"fig6a_failed_path_percent": rows},
            notes=(
                "Analytical curves are evaluated at the paper's N = 2^16; the simulated overlay size "
                "is configurable (fast mode uses a smaller overlay, full mode matches 2^16).",
                "Expected shape: tree fails fastest (its curve bends up immediately), hypercube is the "
                "most resilient, XOR sits between them — matching Figure 6(a).",
            ),
        )
