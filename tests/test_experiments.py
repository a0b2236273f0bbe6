"""Tests for the experiment report helpers and Table 1's constants.

The figure sweeps and headline numbers are checked on their full sweeps,
against their pinned tables, in ``tests/test_fidelity.py``.
"""

import pytest

from repro.experiments.defaults import TABLE1, table1_rows
from repro.experiments.report import Series, reduction_percent


class TestReport:
    def test_series_rejects_wrong_length(self):
        series = Series("t", "x", [1.0, 2.0])
        with pytest.raises(ValueError):
            series.add_column("bad", [1.0])

    def test_format_table_has_header_and_rows(self):
        series = Series("My figure", "x", [1.0, 2.0])
        series.add_column("y", [10.0, 20.5])
        text = series.format_table()
        lines = text.splitlines()
        assert lines[0] == "My figure"
        assert "x" in lines[1] and "y" in lines[1]
        assert len(lines) == 2 + 1 + 2  # title, header, rule, rows

    def test_reduction_percent(self):
        assert reduction_percent(200, 150) == pytest.approx(25.0)
        assert reduction_percent(0, 10) == 0.0


class TestTable1:
    def test_rows_cover_all_parameters(self):
        rows = table1_rows()
        assert len(rows) == 7
        symbols = [symbol for __, symbol, __ in rows]
        assert symbols == ["Tp", "N", "d", "K", "Ms", "Ml", "alpha"]

    def test_table1_object_consistent(self):
        assert TABLE1.group_size == 65_536
        assert TABLE1.k_periods == 10
