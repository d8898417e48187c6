"""Manual clocks and run reports."""

from repro.profiling.clock import ManualClock
from repro.profiling.report import RunReport, format_table

__all__ = ["ManualClock", "RunReport", "format_table"]
