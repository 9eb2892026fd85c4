"""Experiment support: error metrics, figure data, and report rendering.

- :mod:`repro.analysis.metrics` — the paper's percentage-error formula and
  related accuracy statistics;
- :mod:`repro.analysis.figures` — figure data containers with ASCII chart
  rendering and CSV export (the figure commands print the same series
  the paper plots);
- :mod:`repro.analysis.report` — markdown tables for EXPERIMENTS.md.
"""

from repro.analysis.figures import FigureData, Series, ascii_chart
from repro.analysis.metrics import (
    mean_absolute_percentage_error,
    mean_percentage_error,
    percentage_error,
    summarize_errors,
)
from repro.analysis.report import markdown_table

__all__ = [
    "FigureData",
    "Series",
    "ascii_chart",
    "markdown_table",
    "mean_absolute_percentage_error",
    "mean_percentage_error",
    "percentage_error",
    "summarize_errors",
]
