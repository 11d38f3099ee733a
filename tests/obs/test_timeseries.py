"""Tests for windowed time series: sketches, window bucketing, the registry."""

from __future__ import annotations

import io
import re

import numpy as np
import pytest

from repro.obs import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    StreamingQuantile,
    TimeSeriesRegistry,
    WatchRenderer,
)


class TestStreamingQuantile:
    def test_exact_while_under_the_bin_budget(self):
        sketch = StreamingQuantile(max_bins=8)
        for value in (5.0, 1.0, 3.0):
            sketch.observe(value)
        assert sketch.quantile(0) == 1.0
        assert sketch.quantile(100) == 5.0
        assert sketch.count == 3
        assert sketch.sum == 9.0
        assert sketch.mean == 3.0

    def test_accuracy_vs_numpy_on_seeded_data(self):
        rng = np.random.default_rng(7)
        values = rng.exponential(scale=10.0, size=5000)
        sketch = StreamingQuantile(max_bins=64)
        for value in values:
            sketch.observe(float(value))
        for q in (50, 90, 95, 99):
            exact = float(np.percentile(values, q))
            assert sketch.quantile(q) == pytest.approx(exact, rel=0.05)

    def test_min_max_count_sum_are_exact_past_compaction(self):
        rng = np.random.default_rng(3)
        values = rng.normal(100.0, 15.0, size=2000)
        sketch = StreamingQuantile(max_bins=32)
        for value in values:
            sketch.observe(float(value))
        assert len(sketch) <= 32
        assert sketch.min == float(values.min())
        assert sketch.max == float(values.max())
        assert sketch.count == 2000
        assert sketch.sum == pytest.approx(float(values.sum()))
        assert sketch.quantile(0) == sketch.min
        assert sketch.quantile(100) == sketch.max

    def test_merge_matches_the_pooled_distribution(self):
        rng = np.random.default_rng(11)
        left = rng.exponential(scale=5.0, size=1500)
        right = rng.exponential(scale=20.0, size=1500)
        a, b = StreamingQuantile(max_bins=64), StreamingQuantile(max_bins=64)
        for value in left:
            a.observe(float(value))
        for value in right:
            b.observe(float(value))
        merged = a.copy().merge(b)
        pooled = np.concatenate([left, right])
        assert merged.count == 3000
        assert merged.min == float(pooled.min())
        assert merged.max == float(pooled.max())
        for q in (50, 95):
            exact = float(np.percentile(pooled, q))
            assert merged.quantile(q) == pytest.approx(exact, rel=0.08)

    def test_identical_streams_give_identical_quantiles(self):
        # The compaction rule is deterministic (closest pair, lowest index on
        # ties), so two sketches fed the same stream agree bit-for-bit.
        rng = np.random.default_rng(5)
        values = [float(v) for v in rng.uniform(0.0, 50.0, size=1000)]
        a, b = StreamingQuantile(max_bins=16), StreamingQuantile(max_bins=16)
        for value in values:
            a.observe(value)
            b.observe(value)
        assert a._centroids == b._centroids
        assert a._weights == b._weights
        assert a.quantile(99) == b.quantile(99)

    def test_empty_sketch_quantile_raises(self):
        with pytest.raises(ValueError, match="empty"):
            StreamingQuantile().quantile(50)

    def test_out_of_range_percentile_raises(self):
        sketch = StreamingQuantile()
        sketch.observe(1.0)
        with pytest.raises(ValueError, match="percentile"):
            sketch.quantile(101)

    def test_too_few_bins_rejected(self):
        with pytest.raises(ValueError, match="bins"):
            StreamingQuantile(max_bins=1)


class TestWindowBucketing:
    def test_observation_at_the_boundary_lands_in_the_next_window(self):
        registry = TimeSeriesRegistry(window_ms=50.0)
        counter = registry.counter("hits")
        counter.inc()  # now_ms == 0.0 -> window 0
        registry.advance(49.999)
        counter.inc()  # still window 0: [0, 50)
        closed = registry.advance(50.0)
        assert [span.index for span in closed] == [0]
        counter.inc()  # exactly at 50.0 -> window 1: [50, 100)
        assert counter.window_stat(0, "sum") == 2.0
        assert counter.window_stat(1, "sum") == 1.0

    def test_window_spans_are_half_open(self):
        registry = TimeSeriesRegistry(window_ms=20.0)
        span = registry.window_span(3)
        assert span.start_ms == 60.0
        assert span.end_ms == 80.0
        assert span.duration_ms == 20.0
        assert registry.window_index(59.999) == 2
        assert registry.window_index(60.0) == 3

    def test_advance_returns_every_skipped_window(self):
        registry = TimeSeriesRegistry(window_ms=10.0)
        closed = registry.advance(35.0)
        assert [span.index for span in closed] == [0, 1, 2]
        assert registry.advance(35.0) == []

    def test_advance_never_moves_backwards(self):
        registry = TimeSeriesRegistry(window_ms=10.0)
        registry.advance(25.0)
        assert registry.advance(5.0) == []
        assert registry.now_ms == 25.0

    def test_idle_gap_closes_at_most_max_windows(self):
        registry = TimeSeriesRegistry(window_ms=1.0, max_windows=4)
        closed = registry.advance(1000.0)
        assert len(closed) == 4
        assert [span.index for span in closed] == [996, 997, 998, 999]

    def test_flush_closes_the_partial_window(self):
        registry = TimeSeriesRegistry(window_ms=50.0)
        counter = registry.counter("hits")
        registry.advance(60.0)
        counter.inc()
        span = registry.flush()
        assert span.index == 1
        assert counter.window_stat(1, "sum") == 1.0

    def test_ring_evicts_the_oldest_window(self):
        registry = TimeSeriesRegistry(window_ms=1.0, max_windows=3)
        counter = registry.counter("hits")
        for index in range(5):
            registry.advance(float(index))
            counter.inc()
        (series,) = registry.window_snapshot()["hits"]["series"]
        assert [window["index"] for window in series["windows"]] == [2, 3, 4]
        assert counter.window_stat(0, "sum") == 0.0
        assert counter.window_stat(4, "sum") == 1.0

    def test_windowed_registry_builds_the_plain_kinds(self):
        registry = TimeSeriesRegistry()
        assert type(registry.counter("c")) is Counter
        assert type(registry.gauge("g")) is Gauge
        assert type(registry.histogram("h")) is Histogram

    def test_cumulative_view_is_unchanged(self):
        # Windowing adds buckets beside the cumulative series, so existing
        # call sites and reports read the same totals.
        plain = MetricsRegistry()
        windowed = TimeSeriesRegistry(window_ms=10.0)
        for registry in (plain, windowed):
            counter = registry.counter("serve.requests", "arrivals")
            counter.inc(3.0, model="a")
            counter.inc(model="b")
            registry.histogram("latency").observe(5.0)
        assert plain.counter("serve.requests").total() == 4.0
        assert windowed.counter("serve.requests").total() == 4.0
        assert plain.histogram("latency").count() == 1
        assert windowed.histogram("latency").count() == 1

    def test_counter_rate_normalises_by_window_width(self):
        registry = TimeSeriesRegistry(window_ms=20.0)
        counter = registry.counter("hits")
        counter.inc(10.0)
        assert counter.window_stat(0, "rate") == pytest.approx(500.0)  # 10 per 20ms

    def test_gauge_tracks_last_and_max_per_window(self):
        registry = TimeSeriesRegistry(window_ms=10.0)
        gauge = registry.gauge("depth")
        gauge.set(5.0)
        gauge.set(9.0)
        gauge.set(2.0)
        assert gauge.window_stat(0, "last") == 2.0
        assert gauge.window_stat(0, "max") == 9.0
        assert gauge.window_stat(1, "last") is None

    @pytest.mark.parametrize("kind,write,stat,supported", [
        ("histogram", "observe", "max", "count, sum, mean, p<q>"),
        ("histogram", "observe", "p101", "count, sum, mean, p<q>"),
        ("gauge", "set", "bogus", "last, max"),
        ("counter", "inc", "last", "sum, rate"),
    ])
    def test_unsupported_stat_raises_naming_the_family(self, kind, write, stat, supported):
        registry = TimeSeriesRegistry(window_ms=10.0)
        family = getattr(registry, kind)("m")
        getattr(family, write)(5.0)
        message = f"{kind} 'm' has no window stat '{stat}'; a {kind} supports {supported}"
        with pytest.raises(ValueError, match=re.escape(message)):
            family.window_stat(0, stat)

    def test_histogram_window_quantile_reads_one_window(self):
        registry = TimeSeriesRegistry(window_ms=10.0)
        histogram = registry.histogram("latency")
        histogram.observe(1.0)
        registry.advance(10.0)
        histogram.observe(100.0)
        assert histogram.window_stat(0, "p50") == 1.0
        assert histogram.window_stat(1, "p50") == 100.0
        assert histogram.window_stat(5, "p50") is None

    def test_window_snapshot_is_deterministic(self):
        registry = TimeSeriesRegistry(window_ms=10.0)
        registry.counter("hits").inc(model="a")
        registry.histogram("latency").observe(4.0)
        registry.advance(10.0)
        registry.counter("hits").inc(model="a")
        first = registry.window_snapshot()
        second = registry.window_snapshot()
        assert first == second
        assert first["hits"]["type"] == "counter"
        windows = first["hits"]["series"][0]["windows"]
        assert [w["index"] for w in windows] == [0, 1]


class TestWatchRenderer:
    def _overloaded_registry(self) -> TimeSeriesRegistry:
        registry = TimeSeriesRegistry(window_ms=20.0)
        registry.counter("serve.requests.offered").inc(10.0)
        registry.histogram("serve.latency_ms").observe(18.0)
        registry.gauge("serve.queue.depth").set(6.0)
        registry.counter("serve.slo.met").inc(7.0)
        registry.counter("serve.slo.missed").inc(3.0)
        return registry

    def test_dashboard_line_carries_the_headline_numbers(self):
        registry = self._overloaded_registry()
        stream = io.StringIO()
        line = WatchRenderer(stream=stream).emit(
            registry, registry.window_span(0), firing=["slo-burn-rate"]
        )
        assert "rps" in line and "p99" in line
        assert "slo  70.0%" in line
        assert "ALERTS: slo-burn-rate" in line
        assert stream.getvalue().strip() == line

    def test_empty_window_prints_nothing(self):
        registry = TimeSeriesRegistry(window_ms=20.0)
        stream = io.StringIO()
        assert WatchRenderer(stream=stream).emit(
            registry, registry.window_span(0)
        ) is None
        assert stream.getvalue() == ""

    def test_emit_creates_no_family(self):
        registry = TimeSeriesRegistry(window_ms=20.0)
        WatchRenderer(stream=io.StringIO()).emit(registry, registry.window_span(0))
        assert registry.names() == []

    def test_every_skips_intermediate_windows(self):
        registry = self._overloaded_registry()
        stream = io.StringIO()
        renderer = WatchRenderer(stream=stream, every=2)
        span = registry.window_span(0)
        assert renderer.emit(registry, span) is not None
        assert renderer.emit(registry, span) is None
        assert renderer.emit(registry, span) is not None
