"""Direct unit tests for repro.utils.tables, including error paths."""

import pytest

from repro.utils.tables import _fmt, format_table


class TestFmt:
    def test_rounds_floats(self):
        assert _fmt(0.123456, 3) == "0.123"
        assert _fmt(0.5, 1) == "0.5"

    def test_non_floats_pass_through(self):
        assert _fmt(7, 3) == "7"
        assert _fmt("name", 3) == "name"
        assert _fmt(None, 3) == "None"


class TestFormatTable:
    def test_alignment_and_borders(self):
        out = format_table(["name", "acc"], [["mnist", 0.91234], ["isolet", 0.8]])
        lines = out.splitlines()
        assert len(lines) == 6  # sep, header, sep, 2 rows, sep
        assert all(len(line) == len(lines[0]) for line in lines)
        assert "| mnist" in out
        assert "0.912" in out
        assert "0.800" in out

    def test_title_prepended(self):
        out = format_table(["a"], [[1]], title="Table 1")
        assert out.splitlines()[0] == "Table 1"

    def test_row_length_mismatch_raises(self):
        with pytest.raises(ValueError, match="row 1 has 1 cells, expected 2"):
            format_table(["a", "b"], [[1, 2], [3]])

    def test_empty_rows_is_valid(self):
        out = format_table(["a", "b"], [])
        assert "| a | b |" in out

    def test_ndigits_respected(self):
        out = format_table(["x"], [[0.123456]], ndigits=5)
        assert "0.12346" in out

    def test_wide_cell_widens_column(self):
        out = format_table(["x"], [["a-very-long-cell"]])
        assert "| a-very-long-cell |" in out
