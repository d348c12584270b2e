"""Plain-text tables for experiment output.

The benchmark and experiment harnesses print the same rows/series the paper
reports; this module renders those rows as aligned ASCII tables (for the
terminal) and as CSV (for further processing).  Only the standard library
is used so reports render identically everywhere.
"""

from __future__ import annotations

import io
import math
from typing import List, Mapping, Optional, Sequence

from ..exceptions import InvalidParameterError

__all__ = ["format_value", "render_table", "render_csv"]


def format_value(value: object, *, precision: int = 4) -> str:
    """Render one cell: floats are rounded, NaN/None shown as ``-``, others via ``str``."""
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        if math.isnan(value):
            return "-"
        if value != 0.0 and (abs(value) >= 1e6 or abs(value) < 10 ** (-precision)):
            return f"{value:.{precision}g}"
        return f"{value:.{precision}f}"
    return str(value)


def _normalise_rows(rows: Sequence[Mapping[str, object]], columns: Optional[Sequence[str]]) -> List[str]:
    if not rows:
        raise InvalidParameterError("cannot render a table with no rows")
    if columns is None:
        columns = list(rows[0].keys())
    missing = [c for c in columns if any(c not in row for row in rows)]
    if missing:
        raise InvalidParameterError(f"rows are missing columns: {missing}")
    return list(columns)


def render_table(
    rows: Sequence[Mapping[str, object]],
    *,
    columns: Optional[Sequence[str]] = None,
    title: Optional[str] = None,
    precision: int = 4,
) -> str:
    """Render rows (list of dicts) as an aligned ASCII table.

    Column order defaults to the key order of the first row; pass
    ``columns`` to select or reorder.
    """
    columns = _normalise_rows(rows, columns)
    rendered = [[format_value(row[c], precision=precision) for c in columns] for row in rows]
    widths = [max(len(str(c)), *(len(r[i]) for r in rendered)) for i, c in enumerate(columns)]
    lines: List[str] = []
    if title:
        lines.append(title)
    header = " | ".join(str(c).ljust(w) for c, w in zip(columns, widths))
    lines.append(header)
    lines.append("-+-".join("-" * w for w in widths))
    for row in rendered:
        lines.append(" | ".join(cell.ljust(w) for cell, w in zip(row, widths)))
    return "\n".join(lines)


def render_csv(
    rows: Sequence[Mapping[str, object]],
    *,
    columns: Optional[Sequence[str]] = None,
    precision: int = 6,
) -> str:
    """Render rows as CSV text (header + one line per row)."""
    columns = _normalise_rows(rows, columns)
    buffer = io.StringIO()
    buffer.write(",".join(columns) + "\n")
    for row in rows:
        buffer.write(",".join(format_value(row[c], precision=precision) for c in columns) + "\n")
    return buffer.getvalue()
