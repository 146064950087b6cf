"""Experiment harness: measurement helpers and table/series formatting.

The benchmark scripts under ``benchmarks/`` use this package to time the
rewriting algorithms over generated workloads and to print the tables and
figure series described in ``docs/benchmarks.md``.
"""

from repro.experiments.measure import (
    Measurement,
    percentile,
    time_call,
)
from repro.experiments.tables import format_series, format_table
from repro.experiments.registry import Experiment, all_experiments, get_experiment, register

__all__ = [
    "Experiment",
    "Measurement",
    "all_experiments",
    "format_series",
    "format_table",
    "get_experiment",
    "percentile",
    "register",
    "time_call",
]
