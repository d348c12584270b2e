"""EXT-FAILMODES — geometry resilience under adversarial and correlated failures.

The paper (like the Gummadi et al. simulation study its Figure 6 compares
against) measures static resilience only under *uniform* random node
failure.  This extension experiment re-runs the same Monte-Carlo
measurement for all six simulated geometries — the paper's five plus the
de Bruijn (Koorde) extension — under the scenario library of
:mod:`repro.dht.failures`:

* **uniform** — the paper's model, as the baseline;
* **targeted** — an adversary removes the top fraction of nodes by overlay
  in-degree (:class:`~repro.dht.failures.DegreeTargetedFailure`), the
  classic attack model of the resilience literature;
* **regional** — a contiguous identifier region fails at once
  (:class:`~repro.dht.failures.RegionalFailure`), the correlated-outage
  model that stresses ring-based geometries.

The question it answers: does the paper's geometry ranking — hypercube most
resilient, tree most fragile — survive when failures stop being uniform?
Every cell of the (geometry × model × severity × replicate) grid runs
through the fused batch engine (:class:`repro.sim.engine.SweepRunner`), so
all models measure at the same vectorized speed and with the same
bit-identity guarantees across backends and worker counts.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..dht import OVERLAY_CLASSES
from ..sim.engine import SweepRunner
from ..sim.static_resilience import ResilienceSweepResult
from ..workloads.generators import paper_failure_probabilities
from .base import Experiment, ExperimentConfig, ExperimentResult

__all__ = ["FailureModeComparison"]

#: Every registered simulated geometry (the paper's five plus extensions
#: such as de Bruijn/Koorde), compared under every failure model.  Read from
#: the live overlay registry so a newly shipped geometry joins the
#: comparison with no edit here.
FAILMODE_GEOMETRIES = tuple(OVERLAY_CLASSES)
#: The failure models contrasted (registry kinds from repro.dht.failures).
FAILMODE_MODELS = ("uniform", "targeted", "regional")
#: Severity at which the cross-model summary table compares the models
#: (present in both the fast and the full severity grids).
REFERENCE_SEVERITY = 0.3
FULL_D = 12
FAST_D = 8


class FailureModeComparison(Experiment):
    """Compare all six geometries under uniform vs targeted vs regional failure."""

    experiment_id = "EXT-FAILMODES"
    title = "Static resilience under uniform, degree-targeted and regional failures"
    paper_reference = "Extension of Figure 6 (the paper measures uniform failure only)"

    def run(self, config: Optional[ExperimentConfig] = None) -> ExperimentResult:
        """Sweep every geometry under each failure model across the severity grid."""
        config = config or ExperimentConfig()
        d = config.resolved_simulation_d(full_default=FULL_D, fast_default=FAST_D)
        workload = config.resolved_workload()
        severities = paper_failure_probabilities(fast=config.fast)

        sweeps: Dict[str, Dict[str, ResilienceSweepResult]] = {}
        with SweepRunner(
            pairs=workload.pairs,
            replicates=workload.trials,
            workers=config.workers,
            backend=config.backend,
            base_seed=workload.derived_seed("failmodes"),
        ) as runner:
            # One dispatch over the whole (geometry x model x severity x
            # replicate) grid: cells of different models share overlay
            # builds, so the fused groups span the model axis too.  The
            # per-(model, geometry) sweeps below are served from the memo.
            runner.run(list(FAILMODE_GEOMETRIES), d, severities, list(FAILMODE_MODELS))
            for model in FAILMODE_MODELS:
                sweeps[model] = {
                    geometry: runner.sweep(geometry, d, severities, failure_model=model)
                    for geometry in FAILMODE_GEOMETRIES
                }

        tables: Dict[str, List[Dict[str, object]]] = {}
        for model in FAILMODE_MODELS:
            rows: List[Dict[str, object]] = []
            for index, severity in enumerate(severities):
                row: Dict[str, object] = {"severity": severity}
                for geometry in FAILMODE_GEOMETRIES:
                    metrics = sweeps[model][geometry].results[index].metrics
                    # Zero-attempt points (every replicate degenerate) are
                    # "no data", rendered as -/null, never a raw nan.
                    row[geometry] = (
                        100.0 * metrics.failed_path_fraction_or_none
                        if metrics.measured
                        else None
                    )
                rows.append(row)
            tables[f"failed_path_percent_{model}"] = rows

        reference_index = min(
            range(len(severities)),
            key=lambda index: abs(severities[index] - REFERENCE_SEVERITY),
        )
        summary_rows: List[Dict[str, object]] = []
        for geometry in FAILMODE_GEOMETRIES:
            row = {"geometry": geometry}
            for model in FAILMODE_MODELS:
                metrics = sweeps[model][geometry].results[reference_index].metrics
                row[f"{model}_failed_percent"] = (
                    100.0 * metrics.failed_path_fraction_or_none
                    if metrics.measured
                    else None
                )
            summary_rows.append(row)
        tables["model_comparison_at_reference_severity"] = summary_rows

        return self._result(
            parameters={
                "d": d,
                "pairs": workload.pairs,
                "trials": workload.trials,
                "severities": tuple(severities),
                "reference_severity": severities[reference_index],
                "failure_models": FAILMODE_MODELS,
                "fast": config.fast,
                "backend": config.backend,
                "workers": config.workers,
            },
            tables=tables,
            notes=(
                "Severity means the failure probability q for the uniform model and the failed "
                "fraction of nodes for the targeted and regional models, so columns are comparable "
                "at equal fractions of the system lost.",
                "The geometry ranking measured under uniform failure does not transfer unchanged: "
                "targeted and regional failures are correlated with the identifier structure, so "
                "each curve reshapes according to where the geometry concentrates routing load "
                "(the hypercube's perfectly uniform in-degree makes degree-targeting toothless, "
                "while Symphony's shortcut hubs make it acutely sensitive).",
                "Routability is defined over *surviving* pairs, and the correlated models remove "
                "whole structural regions: the survivors then sit in intact parts of the space, so "
                "a geometry's failed-path fraction can fall below its uniform-failure curve even "
                "though the same node fraction was lost — the static damage is absorbed by the "
                "nodes that disappeared, not by the ones that remain.",
            ),
        )
