"""Tests for clocks, reports and table formatting."""

import pytest

from repro.profiling import ManualClock, RunReport, format_table


class TestManualClock:
    def test_advance(self):
        c = ManualClock()
        assert c.advance(2.5) == 2.5
        assert c.now == c() == 2.5      # callable like time.perf_counter

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            ManualClock().advance(-1.0)

    def test_advance_to_only_forward(self):
        c = ManualClock(10.0)
        c.advance_to(5.0)
        assert c.now == 10.0
        c.advance_to(15.0)
        assert c.now == 15.0

    def test_repr(self):
        assert "now=" in repr(ManualClock(1.0))


class TestFormatTable:
    def test_alignment(self):
        out = format_table(["a", "bbb"], [["x", 1], ["yy", 22]])
        lines = out.splitlines()
        assert len({line.index("|") for line in lines if "|" in line}) == 1

    def test_title(self):
        out = format_table(["a"], [["x"]], title="T")
        assert out.splitlines()[0] == "T"


class TestRunReport:
    def test_add_row_validates_width(self):
        rep = RunReport("t", ["a", "b"])
        with pytest.raises(ValueError):
            rep.add_row(1)

    def test_by_first_column(self):
        rep = RunReport("t", ["k", "v"])
        rep.add_row("x", 1)
        rep.add_row("y", 2)
        assert rep.by_first_column()["y"] == ["y", 2]

    def test_duplicate_key_rejected(self):
        rep = RunReport("t", ["k", "v"])
        rep.add_row("x", 1)
        rep.add_row("x", 2)
        with pytest.raises(KeyError):
            rep.by_first_column()

    def test_str_renders(self):
        rep = RunReport("Title", ["col"])
        rep.add_row("val")
        s = str(rep)
        assert "Title" in s and "val" in s
