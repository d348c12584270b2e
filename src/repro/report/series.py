"""Multi-series tables: several curves sharing one x-axis, as in the paper's figures.

Each paper figure plots multiple geometries over a common sweep (failure
probability or system size).  :func:`merge_curves` lines the curves up on
the shared x values and :func:`render_series_table` prints them in one
table with a column per geometry — the textual equivalent of the figure.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..core.routability import GeometryCurve
from ..exceptions import InvalidParameterError
from .tables import render_table

__all__ = ["merge_curves", "render_series_table", "shape_summary"]


def merge_curves(
    curves: Sequence[GeometryCurve],
    *,
    x_label: Optional[str] = None,
) -> List[Dict[str, float]]:
    """Merge curves with identical x grids into rows of ``{x, <geometry>: y, ...}``."""
    if not curves:
        raise InvalidParameterError("need at least one curve to merge")
    x_label = x_label or curves[0].x_label
    reference = curves[0].x_values
    for curve in curves:
        if curve.x_values != reference:
            raise InvalidParameterError(
                f"curve for {curve.geometry!r} has a different x grid and cannot be merged"
            )
    rows: List[Dict[str, float]] = []
    for index, x in enumerate(reference):
        row: Dict[str, float] = {x_label: float(x)}
        for curve in curves:
            row[curve.geometry] = float(curve.y_values[index])
        rows.append(row)
    return rows


def render_series_table(
    curves: Sequence[GeometryCurve],
    *,
    title: Optional[str] = None,
    precision: int = 2,
) -> str:
    """Render several curves as one aligned table (x column + one column per geometry)."""
    rows = merge_curves(curves)
    return render_table(rows, title=title, precision=precision)


def shape_summary(curve: GeometryCurve) -> Dict[str, float]:
    """Coarse shape descriptors of one curve: endpoints, midpoint and monotonicity.

    EXPERIMENTS.md records these for every reproduced figure so "the shape
    holds" is a checkable statement rather than a visual impression.
    """
    ys = curve.y_values
    increasing = all(b >= a - 1e-9 for a, b in zip(ys, ys[1:]))
    decreasing = all(b <= a + 1e-9 for a, b in zip(ys, ys[1:]))
    return {
        "first": float(ys[0]),
        "mid": float(ys[len(ys) // 2]),
        "last": float(ys[-1]),
        "monotone_increasing": float(increasing),
        "monotone_decreasing": float(decreasing),
    }
