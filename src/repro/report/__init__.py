"""Plain-text reporting of experiment results (tables and CSV)."""

from .tables import format_value, render_csv, render_table

__all__ = [
    "format_value",
    "render_csv",
    "render_table",
]
