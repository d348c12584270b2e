"""TAB-SCAL — the Section 5 scalability classification of the five geometries.

The paper's central qualitative result is a two-way split: hypercube, XOR
and ring routing are scalable (routability converges to a positive value as
the network grows), tree and Symphony are not.  This experiment reproduces
the classification and backs each verdict with numerical evidence: a
convergence diagnostic of the per-phase failure series ``sum Q(m)`` and a
direct numerical estimate of ``lim_h p(h, q)``.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..core.geometries import PAPER_GEOMETRIES
from ..core.geometry import get_geometry
from ..core.scalability import assess_scalability
from .base import Experiment, ExperimentConfig, ExperimentResult

__all__ = ["ScalabilityClassification"]

#: Failure probabilities at which the numerical evidence is gathered.
PROBE_FAILURE_PROBABILITIES = (0.05, 0.1, 0.3)


class ScalabilityClassification(Experiment):
    """Reproduce the scalable/unscalable classification of Section 5."""

    experiment_id = "TAB-SCAL"
    title = "Scalability classification of DHT routing geometries"
    paper_reference = "Section 5 (and the scalable/unscalable labels of Figure 7)"
    table_names = ("scalability_classification", "numerical_evidence")

    def run(self, config: Optional[ExperimentConfig] = None) -> ExperimentResult:
        """Build the Section 5 scalability classification table."""
        config = config or ExperimentConfig()
        rows: List[Dict[str, object]] = []
        evidence_rows: List[Dict[str, object]] = []
        for geometry in PAPER_GEOMETRIES:
            assessment = assess_scalability(geometry, q=0.1)
            rows.append(
                {
                    "geometry": geometry,
                    "system": get_geometry(geometry).system_name,
                    "scalable": assessment.verdict.scalable,
                    "series_behaviour": assessment.verdict.series_behaviour,
                    "numerics_consistent": assessment.consistent,
                }
            )
            for q in PROBE_FAILURE_PROBABILITIES:
                probe = assess_scalability(geometry, q=q)
                limit = probe.success_limit_estimate
                evidence_rows.append(
                    {
                        "geometry": geometry,
                        "q": q,
                        "series_converges": probe.series_diagnostic.converges,
                        "success_limit": limit if limit is not None else float("nan"),
                    }
                )

        return self._result(
            parameters={"probe_qs": PROBE_FAILURE_PROBABILITIES, "fast": config.fast},
            tables={
                "scalability_classification": rows,
                "numerical_evidence": evidence_rows,
            },
            notes=(
                "Scalable: hypercube (CAN), XOR (Kademlia), ring (Chord).  Unscalable: tree (Plaxton) "
                "and small-world (Symphony) — matching the paper's Section 5 conclusions.",
                "The numerical evidence column reports lim_h p(h, q); positive limits for the scalable "
                "geometries, zero for the unscalable ones.",
            ),
        )
