"""EXT-SYM — Symphony near-neighbour / shortcut sensitivity (extension experiment).

The paper repeatedly stresses that unscalability of the *basic* routing
geometry does not condemn a real deployment: "the designer can always add
enough sequential neighbors to achieve an acceptable routability ... for a
maximum network size".  This extension experiment quantifies that remark
for Symphony: it sweeps the number of near neighbours ``kn`` and shortcuts
``ks`` and reports the analytical routability at several sizes, plus the
largest identifier length that still clears a 90% routability target.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..core.geometry import get_geometry
from ..validation import check_probability
from .base import Experiment, ExperimentConfig, ExperimentResult

__all__ = ["SymphonySensitivity"]

#: Degree combinations swept (kn, ks).
DEGREE_GRID = ((1, 1), (1, 2), (2, 1), (2, 2), (4, 2), (2, 4), (4, 4), (8, 4))
#: Sizes (identifier lengths) at which routability is reported.
REPORT_DS = (10, 16, 20, 30)
#: The failure probability of the sensitivity study.
STUDY_Q = 0.1
#: Routability target used for the "maximum supported size" column.
TARGET_ROUTABILITY = 0.9


def largest_supported_identifier_length(
    near_neighbors: int,
    shortcuts: int,
    q: float,
    *,
    target: float = TARGET_ROUTABILITY,
    max_d: int = 64,
) -> float:
    """Largest ``d`` whose analytical routability still reaches ``target`` (NaN if none)."""
    check_probability(target, "target")
    geometry = get_geometry("smallworld", near_neighbors=near_neighbors, shortcuts=shortcuts)
    best = float("nan")
    for d in range(2, max_d + 1):
        if geometry.routability(q, d=d) >= target:
            best = float(d)
        else:
            # Routability decreases monotonically with d for Symphony, so the
            # first miss ends the search.
            break
    return best


class SymphonySensitivity(Experiment):
    """Quantify how extra Symphony links buy routability at finite sizes."""

    experiment_id = "EXT-SYM"
    title = "Symphony sensitivity to near-neighbour and shortcut counts"
    paper_reference = "Design remark in Sections 1, 3.5 and 6 (no figure in the paper)"
    table_names = ("symphony_sensitivity",)

    def run(self, config: Optional[ExperimentConfig] = None) -> ExperimentResult:
        """Sweep Symphony's shortcut count and measure the sensitivity."""
        config = config or ExperimentConfig()
        rows: List[Dict[str, object]] = []
        for near_neighbors, shortcuts in DEGREE_GRID:
            geometry = get_geometry(
                "smallworld", near_neighbors=near_neighbors, shortcuts=shortcuts
            )
            row: Dict[str, object] = {"kn": near_neighbors, "ks": shortcuts}
            for d in REPORT_DS:
                row[f"routability_d{d}"] = geometry.routability(STUDY_Q, d=d)
            row["largest_d_above_90pct"] = largest_supported_identifier_length(
                near_neighbors, shortcuts, STUDY_Q
            )
            rows.append(row)

        return self._result(
            parameters={
                "q": STUDY_Q,
                "target_routability": TARGET_ROUTABILITY,
                "report_ds": REPORT_DS,
                "fast": config.fast,
            },
            tables={"symphony_sensitivity": rows},
            notes=(
                "Raising kn and ks pushes the size at which Symphony's routability collapses outwards, "
                "but for any constant degree the routability still tends to zero as d grows — the "
                "geometry remains asymptotically unscalable, exactly as the paper argues.",
            ),
        )
