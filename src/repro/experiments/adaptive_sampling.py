"""EXT-ADAPTIVE — adaptive vs uniform trial allocation on fig6a-style grids.

ROADMAP item 5: routability variance is not uniform along a resilience
curve — it collapses near ``q ≈ 0`` and ``q ≈ 1`` and peaks in the narrow
transition band Figure 6 actually cares about.  A uniform sweep spends the
same ``trials × pairs`` everywhere anyway; the adaptive allocator
(:mod:`repro.sim.adaptive`) runs the sweep in rounds and freezes every point
whose pooled Wilson CI half-width reaches the target, so flat-region points
stop after the minimum rounds while transition-band points keep sampling.

This experiment runs both allocations over the same engine grid and reports
the curves side by side with the per-point trial schedule.  Because adaptive
rounds consume exactly the uniform grid's per-cell streams, a point that
froze after ``k`` trials reproduces the uniform curve's first-``k``-trial
pool bit-for-bit — the curve differences shown here are purely the
*statistical* effect of pooling fewer trials, never a different random
stream, and every difference stays within the CI target by construction.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..sim.adaptive import AdaptiveConfig
from ..sim.engine import SweepRunner
from ..workloads.generators import paper_failure_probabilities
from .base import Experiment, ExperimentConfig, ExperimentResult

__all__ = ["AdaptiveSampling"]

#: Geometries contrasted (the Figure 6(a) trio: distinct transition bands).
ADAPTIVE_GEOMETRIES = ("tree", "hypercube", "xor")
FULL_D = 12
FAST_D = 9
#: Uniform trial count — and the adaptive allocator's per-point cap.
FULL_TRIALS = 12
FAST_TRIALS = 6
#: CI half-width a point must reach to freeze.
FULL_CI_TARGET = 0.02
FAST_CI_TARGET = 0.05


class AdaptiveSampling(Experiment):
    """Compare adaptive and uniform trial allocation over one sweep grid."""

    experiment_id = "EXT-ADAPTIVE"
    title = "Variance-adaptive trial allocation vs the uniform sweep grid"
    paper_reference = "Figure 6 estimator (Gummadi et al. simulation methodology)"

    def run(self, config: Optional[ExperimentConfig] = None) -> ExperimentResult:
        """Measure both allocations per geometry and tabulate curves + schedule."""
        config = config or ExperimentConfig()
        d = config.resolved_simulation_d(full_default=FULL_D, fast_default=FAST_D)
        workload = config.resolved_workload()
        trials = FULL_TRIALS if not config.fast else FAST_TRIALS
        ci_target = FULL_CI_TARGET if not config.fast else FAST_CI_TARGET
        failure_probabilities = paper_failure_probabilities(fast=config.fast)
        adaptive = AdaptiveConfig(ci_target=ci_target, min_trials=2)

        curves: List[Dict[str, object]] = []
        schedule: List[Dict[str, object]] = []
        summary: List[Dict[str, object]] = []
        with SweepRunner(
            pairs=workload.pairs,
            replicates=trials,
            workers=config.workers,
            backend=config.backend,
            base_seed=workload.derived_seed("adaptive-sampling"),
        ) as runner:
            for geometry in ADAPTIVE_GEOMETRIES:
                uniform = runner.sweep(geometry, d, failure_probabilities)
                adaptive_sweep = runner.sweep(
                    geometry, d, failure_probabilities, adaptive=adaptive
                )
                report = runner.last_adaptive_report
                deviations: List[float] = []
                for uniform_result, adaptive_result, allocation in zip(
                    uniform.results, adaptive_sweep.results, report.allocations
                ):
                    uniform_value = uniform_result.metrics.routability_or_none
                    adaptive_value = adaptive_result.metrics.routability_or_none
                    if uniform_value is not None and adaptive_value is not None:
                        deviations.append(abs(uniform_value - adaptive_value))
                    curves.append(
                        {
                            "geometry": geometry,
                            "q": uniform_result.q,
                            "uniform_routability": uniform_value,
                            "adaptive_routability": adaptive_value,
                            "uniform_trials": uniform_result.trials,
                            "adaptive_trials": adaptive_result.trials,
                        }
                    )
                    schedule.append(
                        {
                            "geometry": geometry,
                            "q": allocation.point.q,
                            "trials": allocation.trials,
                            "attempts": allocation.attempts,
                            "ci_halfwidth": allocation.halfwidth,
                            "frozen_by": allocation.frozen_by,
                        }
                    )
                summary.append(
                    {
                        "geometry": geometry,
                        "rounds": report.rounds,
                        "trials_uniform": report.trials_uniform,
                        "trials_allocated": report.trials_allocated,
                        "trials_saved": report.trials_saved,
                        "pairs_saved": report.trials_saved * workload.pairs,
                        "max_ci_halfwidth": report.max_halfwidth,
                        "max_curve_deviation": max(deviations) if deviations else None,
                    }
                )

        return self._result(
            parameters={
                "d": d,
                "pairs": workload.pairs,
                "trials": trials,
                "ci_target": ci_target,
                "min_trials": adaptive.min_trials,
                "confidence": adaptive.confidence,
                "fast": config.fast,
                "backend": config.backend,
                "workers": config.workers,
            },
            tables={
                "adaptive_vs_uniform_curves": curves,
                "allocation_schedule": schedule,
                "allocation_summary": summary,
            },
            notes=(
                "Adaptive rounds are replicate indices of the uniform grid, so a point "
                "frozen after k trials pools exactly the uniform run's first k replicates "
                "— curve deviations come from pooling fewer trials, never from different "
                "random streams, and stay within the CI target.",
                "Flat-curve regions (q near 0 and 1) freeze after the minimum round while "
                "transition-band points absorb the budget; degenerate points (no surviving "
                "pairs at extreme q) freeze immediately.",
            ),
        )
