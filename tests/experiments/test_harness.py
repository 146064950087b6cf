"""Tests for the experiment harness (measurement, tables, registry)."""

import pytest

from repro.experiments.measure import Measurement, time_call
from repro.experiments.registry import (
    EXPERIMENTS,
    Experiment,
    all_experiments,
    get_experiment,
    register,
)
from repro.experiments.tables import format_series, format_table


class TestMeasure:
    def test_time_call_repeats_and_keeps_result(self):
        calls = []

        def work(x):
            calls.append(x)
            return x * 2

        measurement = time_call(work, 21, repeat=4, label="double")
        assert measurement.result == 42
        assert len(measurement.timings) == 4
        assert len(calls) == 4
        assert measurement.best <= measurement.mean

    def test_statistics_on_empty_measurement(self):
        empty = Measurement(label="x")
        assert empty.best != empty.best  # NaN
        assert empty.stdev == 0.0

    def test_str_mentions_label(self):
        measurement = time_call(lambda: None, repeat=1, label="noop")
        assert "noop" in str(measurement)


class TestTables:
    def test_format_table_alignment(self):
        table = format_table([[1, 2.0], [30, 4.5]], ["a", "value"], title="demo")
        lines = table.splitlines()
        assert lines[0] == "demo"
        assert "a" in lines[1] and "value" in lines[1]
        assert len(lines) == 5

    def test_format_table_renders_floats_compactly(self):
        table = format_table([[0.000123456]], ["x"])
        assert "e" in table.splitlines()[-1]

    def test_format_series_columns(self):
        text = format_series(
            {"bucket": [1.0, 2.0], "minicon": [0.5, 0.7]},
            x_values=[10, 20],
            x_label="views",
        )
        header = text.splitlines()[0]
        assert header.split("|")[0].strip() == "views"
        assert "bucket" in header and "minicon" in header

    def test_format_series_handles_missing_points(self):
        text = format_series({"a": [1.0]}, x_values=[1, 2])
        assert "-" in text.splitlines()[-1]


class TestRegistry:
    def test_all_experiments_registered(self):
        ids = [e.id for e in all_experiments()]
        # The paper's experiments; the serving-layer numbers live in the
        # benchmarks/e2e ledger instead.
        assert ids == sorted(f"E{i}" for i in range(1, 11))

    def test_get_experiment(self):
        e4 = get_experiment("E4")
        assert e4 is not None
        assert "chain" in e4.title.lower()
        assert get_experiment("E99") is None

    def test_registration_is_idempotent(self):
        register(EXPERIMENTS[0])

    def test_conflicting_registration_rejected(self):
        with pytest.raises(ValueError):
            register(
                Experiment("E1", "different title", "table", "claim", "module")
            )

    def test_every_experiment_names_a_bench_module(self):
        for experiment in all_experiments():
            assert experiment.bench_module.startswith("benchmarks/")
            assert experiment.artefact in ("table", "figure")
