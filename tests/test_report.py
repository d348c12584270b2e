"""Tests for the plain-text reporting helpers."""

from __future__ import annotations

import pytest

from repro.exceptions import InvalidParameterError
from repro.report.tables import format_value, render_csv, render_table


class TestFormatValue:
    def test_floats_are_rounded(self):
        assert format_value(0.123456, precision=3) == "0.123"

    def test_nan_is_a_dash(self):
        assert format_value(float("nan")) == "-"

    def test_booleans_are_words(self):
        assert format_value(True) == "yes"
        assert format_value(False) == "no"

    def test_large_and_tiny_floats_use_scientific_notation(self):
        assert "e" in format_value(1.5e12)
        assert "e" in format_value(1.5e-12)

    def test_strings_pass_through(self):
        assert format_value("ring") == "ring"


class TestRenderTable:
    def test_contains_headers_and_values(self):
        rows = [{"geometry": "xor", "routability": 0.9778}, {"geometry": "tree", "routability": 0.489}]
        text = render_table(rows, precision=3)
        assert "geometry" in text
        assert "routability" in text
        assert "0.978" in text
        assert "tree" in text

    def test_title_is_included(self):
        text = render_table([{"a": 1}], title="My table")
        assert text.startswith("My table")

    def test_column_selection_and_order(self):
        rows = [{"a": 1, "b": 2, "c": 3}]
        text = render_table(rows, columns=["c", "a"])
        header = text.splitlines()[0]
        assert header.index("c") < header.index("a")
        assert "b" not in header

    def test_missing_column_rejected(self):
        with pytest.raises(InvalidParameterError):
            render_table([{"a": 1}], columns=["a", "z"])

    def test_empty_rows_rejected(self):
        with pytest.raises(InvalidParameterError):
            render_table([])

    def test_all_rows_are_rendered(self):
        rows = [{"x": i} for i in range(5)]
        text = render_table(rows)
        assert len(text.splitlines()) == 2 + 5  # header + separator + rows


class TestRenderCsv:
    def test_header_and_rows(self):
        rows = [{"q": 0.1, "value": 0.5}, {"q": 0.2, "value": 0.25}]
        csv_text = render_csv(rows)
        lines = csv_text.strip().splitlines()
        assert lines[0] == "q,value"
        assert lines[1].startswith("0.1")
        assert len(lines) == 3

    def test_respects_column_selection(self):
        csv_text = render_csv([{"a": 1, "b": 2}], columns=["b"])
        assert csv_text.strip().splitlines()[0] == "b"

