"""Measurement utilities: percentiles, slowdown summaries, load sweeps."""

from repro.metrics.percentile import percentile
from repro.metrics.slowdown import (
    SlowdownSummary, check_warmup_frac, summarize_slowdowns,
)
from repro.metrics.sweep import SweepPoint, knee_load
from repro.metrics.report import format_table
from repro.metrics.plot import ascii_plot

__all__ = [
    "percentile",
    "SlowdownSummary",
    "summarize_slowdowns",
    "check_warmup_frac",
    "SweepPoint",
    "knee_load",
    "format_table",
    "ascii_plot",
]
