"""FIG7B — routability vs system size at a fixed failure probability (Figure 7(b)).

At ``q = 0.1`` the paper sweeps the system size to beyond billions of nodes:
the routability of the tree and Symphony geometries decays monotonically
towards zero while hypercube, XOR and ring stay essentially flat.  This
experiment regenerates the curves and records, for each geometry, whether
its routability is monotonically degrading and where (if anywhere) it drops
below 50% — the quantitative rendering of "unscalable".
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional

from ..core.geometries import PAPER_GEOMETRIES
from ..core.routability import routability_scaling_curve
from ..workloads.generators import paper_system_sizes
from .base import Experiment, ExperimentConfig, ExperimentResult

__all__ = ["Fig7bScaling"]

#: Figure 7(b) fixes the failure probability at 10%.
FIGURE_Q = 0.1


class Fig7bScaling(Experiment):
    """Reproduce Figure 7(b): routability vs system size for all five geometries."""

    experiment_id = "FIG7B"
    title = "Routability vs system size at q = 0.1"
    paper_reference = "Figure 7(b)"
    table_names = ("fig7b_routability_percent", "scaling_summary")

    def run(self, config: Optional[ExperimentConfig] = None) -> ExperimentResult:
        """Evaluate routability across system sizes for each geometry."""
        config = config or ExperimentConfig()
        system_sizes = paper_system_sizes(fast=config.fast)

        rows: List[Dict[str, object]] = [
            {"n_nodes": float(n), "log2_n": int(math.log2(n))} for n in system_sizes
        ]
        summary_rows: List[Dict[str, object]] = []
        for geometry in PAPER_GEOMETRIES:
            curve = routability_scaling_curve(geometry, system_sizes, q=FIGURE_Q)
            for row, value in zip(rows, curve.y_values):
                row[geometry] = value
            values = curve.y_values
            monotone_decreasing = all(b <= a + 1e-9 for a, b in zip(values, values[1:]))
            below_half = next(
                (int(math.log2(n)) for n, v in zip(system_sizes, values) if v < 50.0), None
            )
            summary_rows.append(
                {
                    "geometry": geometry,
                    "routability_at_largest_n": values[-1],
                    "monotonically_degrading": monotone_decreasing and values[-1] < values[0],
                    "first_log2_n_below_50pct": below_half if below_half is not None else float("nan"),
                }
            )

        return self._result(
            parameters={
                "q": FIGURE_Q,
                "min_n": system_sizes[0],
                "max_n": system_sizes[-1],
                "symphony_near_neighbors": 1,
                "symphony_shortcuts": 1,
                "fast": config.fast,
            },
            tables={
                "fig7b_routability_percent": rows,
                "scaling_summary": summary_rows,
            },
            notes=(
                "Tree and Symphony degrade monotonically towards zero as the system grows; hypercube, "
                "XOR and ring stay highly routable out to billions of nodes — Figure 7(b)'s "
                "scalable/unscalable split.",
            ),
        )
