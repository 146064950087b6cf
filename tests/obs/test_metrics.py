"""Tests for the dependency-free metrics core (:mod:`repro.obs.metrics`)."""

import math
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.obs import MetricsRegistry
from repro.obs.metrics import Counter, DEFAULT_LATENCY_BUCKETS, Gauge, Histogram


class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        counter = Counter()
        assert counter.value == 0.0
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5

    def test_negative_increment_raises(self):
        counter = Counter()
        with pytest.raises(ValueError, match="only go up"):
            counter.inc(-1)
        assert counter.value == 0.0


class TestGauge:
    def test_set_inc_dec(self):
        gauge = Gauge()
        gauge.set(10)
        gauge.inc(5)
        gauge.dec(2)
        assert gauge.value == 13.0

    def test_can_go_negative(self):
        gauge = Gauge()
        gauge.dec(4)
        assert gauge.value == -4.0


class TestHistogramBuckets:
    def test_default_buckets_are_strictly_increasing(self):
        assert list(DEFAULT_LATENCY_BUCKETS) == sorted(set(DEFAULT_LATENCY_BUCKETS))

    def test_empty_bounds_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            Histogram(buckets=())

    def test_non_increasing_bounds_rejected(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            Histogram(buckets=(1.0, 1.0, 2.0))

    def test_trailing_inf_bound_is_implicit(self):
        histogram = Histogram(buckets=(1.0, 2.0, float("inf")))
        assert histogram.bounds == (1.0, 2.0)

    def test_observations_land_in_le_buckets(self):
        histogram = Histogram(buckets=(1.0, 2.0, 4.0))
        for value in (0.5, 1.0, 1.5, 3.0, 8.0):
            histogram.observe(value)
        # le semantics: 1.0 belongs to the le="1.0" bucket, 8.0 to +Inf.
        assert histogram.cumulative_counts() == [2, 3, 4, 5]
        assert histogram.count == 5
        assert histogram.sum == pytest.approx(14.0)


class TestHistogramQuantiles:
    def test_linear_interpolation_inside_crossing_bucket(self):
        histogram = Histogram(buckets=(1.0, 2.0, 4.0))
        for value in (0.5, 1.5, 3.0, 8.0):
            histogram.observe(value)
        # cumulative [1, 2, 3, 4]; rank 2.0 crosses in (1, 2].
        assert histogram.quantile(0.5) == pytest.approx(2.0)
        # rank 1.0 crosses in (0, 1].
        assert histogram.quantile(0.25) == pytest.approx(1.0)

    def test_tail_bucket_reports_highest_finite_bound(self):
        histogram = Histogram(buckets=(1.0, 4.0))
        histogram.observe(100.0)
        assert histogram.quantile(0.99) == 4.0
        assert histogram.p99 == 4.0

    def test_empty_histogram_quantile_is_nan(self):
        histogram = Histogram(buckets=(1.0,))
        assert math.isnan(histogram.quantile(0.5))

    def test_out_of_range_quantile_raises(self):
        histogram = Histogram(buckets=(1.0,))
        for bad in (0.0, -0.5, 1.5):
            with pytest.raises(ValueError, match="quantile"):
                histogram.quantile(bad)

    def test_snapshot_shape(self):
        histogram = Histogram(buckets=(1.0, 2.0))
        empty = histogram.snapshot()
        assert empty == {"count": 0, "sum": 0.0, "p50": None, "p90": None, "p99": None}
        histogram.observe(0.5)
        loaded = histogram.snapshot()
        assert loaded["count"] == 1
        assert loaded["sum"] == pytest.approx(0.5)
        assert all(loaded[key] is not None for key in ("p50", "p90", "p99"))


class TestMetricFamily:
    def test_labelled_children_are_cached_per_value(self):
        registry = MetricsRegistry()
        family = registry.counter("x_total", labels=("kind",))
        assert family.labels("a") is family.labels("a")
        assert family.labels("a") is not family.labels("b")
        family.labels("a").inc()
        assert family.labels("a").value == 1.0
        assert family.labels("b").value == 0.0

    def test_named_label_values(self):
        registry = MetricsRegistry()
        family = registry.counter("x_total", labels=("kind", "outcome"))
        assert family.labels(kind="a", outcome="ok") is family.labels("a", "ok")
        with pytest.raises(ValueError, match="missing label"):
            family.labels(kind="a")
        with pytest.raises(ValueError, match="unexpected labels"):
            family.labels(kind="a", outcome="ok", extra="?")
        with pytest.raises(ValueError, match="not both"):
            family.labels("a", outcome="ok")

    def test_wrong_label_arity_raises(self):
        registry = MetricsRegistry()
        family = registry.counter("x_total", labels=("kind",))
        with pytest.raises(ValueError, match="expected 1 label"):
            family.labels("a", "b")

    def test_solo_family_proxies_mutations(self):
        registry = MetricsRegistry()
        registry.counter("c_total").inc(2)
        registry.gauge("g").set(7)
        registry.histogram("h_seconds", buckets=(1.0,)).observe(0.5)
        assert registry.get("c_total").value == 2.0
        assert registry.get("g").value == 7.0
        assert registry.get("h_seconds").snapshot()["count"] == 1

    def test_labelled_family_rejects_solo_access(self):
        registry = MetricsRegistry()
        family = registry.counter("x_total", labels=("kind",))
        with pytest.raises(ValueError, match="use .labels"):
            family.inc()


class TestRegistry:
    def test_declaration_is_idempotent(self):
        registry = MetricsRegistry()
        first = registry.counter("x_total", "help", labels=("kind",))
        second = registry.counter("x_total", "different help", labels=("kind",))
        assert first is second

    def test_type_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("x_total")
        with pytest.raises(ValueError, match="already declared"):
            registry.gauge("x_total")

    def test_label_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("x_total", labels=("kind",))
        with pytest.raises(ValueError, match="already declared"):
            registry.counter("x_total", labels=("other",))

    def test_families_are_sorted_by_name(self):
        registry = MetricsRegistry()
        registry.counter("zz_total")
        registry.gauge("aa")
        assert [family.name for family in registry.families()] == ["aa", "zz_total"]

    def test_collect_snapshot(self):
        registry = MetricsRegistry()
        registry.counter("jobs_total", labels=("kind",)).labels("fast").inc(3)
        registry.histogram("lat_seconds", buckets=(1.0,)).observe(0.5)
        snapshot = registry.collect()
        assert snapshot["jobs_total"]["type"] == "counter"
        assert snapshot["jobs_total"]["series"] == [
            {"labels": {"kind": "fast"}, "value": 3.0}
        ]
        series = snapshot["lat_seconds"]["series"][0]
        assert series["labels"] == {}
        assert series["count"] == 1


EXPECTED_EXPOSITION = """\
# HELP depth Queue depth.
# TYPE depth gauge
depth 3
# HELP jobs_total Jobs run.
# TYPE jobs_total counter
jobs_total{kind="fast"} 1
jobs_total{kind="slow"} 2
# HELP lat_seconds Latency.
# TYPE lat_seconds histogram
lat_seconds_bucket{le="0.1"} 1
lat_seconds_bucket{le="1"} 2
lat_seconds_bucket{le="+Inf"} 3
lat_seconds_sum 5.55
lat_seconds_count 3
"""


class TestExposition:
    def test_render_matches_golden_text(self):
        registry = MetricsRegistry()
        jobs = registry.counter("jobs_total", "Jobs run.", labels=("kind",))
        jobs.labels("fast").inc()
        jobs.labels("slow").inc(2)
        registry.gauge("depth", "Queue depth.").set(3)
        latency = registry.histogram("lat_seconds", "Latency.", buckets=(0.1, 1.0))
        for value in (0.05, 0.5, 5.0):
            latency.observe(value)
        assert registry.render() == EXPECTED_EXPOSITION

    def test_empty_registry_renders_empty(self):
        assert MetricsRegistry().render() == ""

    def test_label_values_are_escaped(self):
        registry = MetricsRegistry()
        family = registry.counter("x_total", labels=("q",))
        family.labels('a"b\\c\nd').inc()
        rendered = registry.render()
        assert '{q="a\\"b\\\\c\\nd"}' in rendered

    def test_help_text_is_escaped(self):
        registry = MetricsRegistry()
        registry.counter("x_total", "line one\nline two")
        assert "# HELP x_total line one\\nline two" in registry.render()


class TestThreadSafety:
    """Hammer each primitive from a pool; totals must come out exact."""

    THREADS = 8
    ROUNDS = 2_000

    def _hammer(self, work):
        with ThreadPoolExecutor(max_workers=self.THREADS) as pool:
            for future in [pool.submit(work) for _ in range(self.THREADS)]:
                future.result()

    def test_counter_increments_are_not_lost(self):
        counter = Counter()
        self._hammer(lambda: [counter.inc() for _ in range(self.ROUNDS)])
        assert counter.value == float(self.THREADS * self.ROUNDS)

    def test_gauge_balanced_inc_dec_nets_zero(self):
        gauge = Gauge()

        def work():
            for _ in range(self.ROUNDS):
                gauge.inc(2)
                gauge.dec(2)

        self._hammer(work)
        assert gauge.value == 0.0

    def test_histogram_count_and_sum_are_exact(self):
        histogram = Histogram(buckets=(0.5, 1.0))
        self._hammer(lambda: [histogram.observe(0.25) for _ in range(self.ROUNDS)])
        total = self.THREADS * self.ROUNDS
        assert histogram.count == total
        assert histogram.sum == pytest.approx(0.25 * total)
        assert histogram.cumulative_counts() == [total, total, total]

    def test_labelled_family_child_creation_race(self):
        registry = MetricsRegistry()
        family = registry.counter("x_total", labels=("kind",))

        def work():
            for index in range(self.ROUNDS):
                family.labels(str(index % 4)).inc()

        self._hammer(work)
        total = sum(child.value for _, child in family.children())
        assert total == float(self.THREADS * self.ROUNDS)
        assert len(family.children()) == 4
