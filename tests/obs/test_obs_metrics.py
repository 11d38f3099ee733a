"""Tests for the metrics registry: counters, gauges, histograms, export."""

from __future__ import annotations

import json
import math
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.obs import (
    HISTOGRAM_QUANTILES,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    percentile,
    percentiles,
    quantiles_reference,
)

#: Value lists the percentile oracle is checked on: any finite or infinite
#: double, integers, and few distinct values (many duplicates).
PERCENTILE_VALUES = st.one_of(
    st.lists(st.floats(allow_nan=False), min_size=1, max_size=40),
    st.lists(st.integers(-(2**53), 2**53), min_size=1, max_size=40),
    st.lists(st.sampled_from([0.0, 1.0, 2.5, -3.0, math.inf, -math.inf]),
             min_size=1, max_size=40),
)
PERCENTILE_QS = st.lists(
    st.one_of(st.sampled_from([0, 50, 95, 99, 100]), st.floats(0, 100)),
    min_size=1, max_size=5,
)


def same_double(ours: float, reference: float) -> bool:
    """Bit-identical doubles, up to the sign of a zero and a NaN's payload.

    numpy partitions instead of sorting, and where ``0.0`` and ``-0.0`` tie
    its order of the two is its own, so only the sign of a zero result may
    differ from a stable sort's.
    """
    if math.isnan(ours) or math.isnan(reference):
        return math.isnan(ours) and math.isnan(reference)
    if ours == 0 and reference == 0:
        return True
    return struct.pack("<d", ours) == struct.pack("<d", reference)


class TestPercentiles:
    @settings(max_examples=300, deadline=None)
    @given(values=PERCENTILE_VALUES, qs=PERCENTILE_QS)
    @example(values=[7.5], qs=[0, 50, 100])
    @example(values=[1.0, 2.0, math.inf], qs=[50, 99])
    def test_bit_identical_to_numpy(self, values, qs):
        ours = percentiles(values, qs)
        with np.errstate(all="ignore"):  # inf - inf is nan in both
            reference = [float(np.percentile(values, q)) for q in qs]
        assert all(map(same_double, ours, reference)), (ours, reference)

    def test_one_sort_serves_every_quantile(self):
        values = [5.0, 1.0, 4.0, 2.0, 3.0]
        assert percentiles(values, (0, 50, 90)) == [percentile(values, q) for q in (0, 50, 90)]
        assert values == [5.0, 1.0, 4.0, 2.0, 3.0]  # sorted a copy

    def test_empty_and_out_of_range_raise(self):
        with pytest.raises(ValueError, match="no values"):
            percentiles([], (50,))
        with pytest.raises(ValueError, match=r"\[0, 100\]"):
            percentiles([1.0], (50, -1))


class TestCounter:
    def test_increments_default_to_one(self):
        counter = Counter("requests")
        counter.inc()
        counter.inc()
        assert counter.value() == 2.0
        assert counter.total() == 2.0

    def test_labelled_series_are_independent(self):
        counter = Counter("rejects")
        counter.inc(reason="deadline")
        counter.inc(3.0, reason="capacity")
        assert counter.value(reason="deadline") == 1.0
        assert counter.value(reason="capacity") == 3.0
        assert counter.total() == 4.0

    def test_negative_increment_is_rejected(self):
        counter = Counter("requests")
        with pytest.raises(ValueError, match="only increase"):
            counter.inc(-1.0)

    def test_unset_series_reads_zero(self):
        assert Counter("requests").value(reason="missing") == 0.0

    def test_by_label_groups_totals(self):
        counter = Counter("executions")
        counter.inc(batch_size=1, device="v100")
        counter.inc(batch_size=4, device="v100")
        counter.inc(batch_size=4, device="k80")
        assert counter.by_label("batch_size") == {"1": 1.0, "4": 2.0}
        assert counter.by_label("device") == {"k80": 1.0, "v100": 2.0}


class TestGauge:
    def test_set_overwrites_and_add_adjusts(self):
        gauge = Gauge("queue.depth")
        gauge.set(5.0)
        gauge.add(-2.0)
        assert gauge.value() == 3.0

    def test_high_water_mark_survives_a_drop(self):
        gauge = Gauge("pool.size")
        gauge.set(2.0)
        gauge.set(6.0)
        gauge.set(1.0)
        assert gauge.value() == 1.0
        assert gauge.max() == 6.0

    def test_unset_series_reads_zero(self):
        gauge = Gauge("queue.depth")
        assert gauge.value() == 0.0
        assert gauge.max() == 0.0


class TestNaNIsRejected:
    """A NaN write would poison a total and emit bare ``NaN`` (invalid JSON)."""

    def test_counter_rejects_nan_and_keeps_its_total(self):
        counter = Counter("requests")
        counter.inc(2.0, reason="deadline")
        with pytest.raises(ValueError, match=r"'requests'.*'reason': 'deadline'"):
            counter.inc(float("nan"), reason="deadline")
        assert counter.total() == 2.0
        assert counter.value(reason="deadline") == 2.0

    def test_gauge_rejects_nan_and_keeps_its_value(self):
        gauge = Gauge("queue.depth")
        gauge.set(3.0)
        with pytest.raises(ValueError, match="'queue.depth'.*NaN"):
            gauge.set(float("nan"))
        with pytest.raises(ValueError, match="'queue.depth'.*NaN"):
            gauge.add(float("nan"))
        assert (gauge.value(), gauge.max()) == (3.0, 3.0)

    def test_histogram_rejects_nan_and_exports_strict_json(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("latency_ms")
        histogram.observe(1.5, device="k80")
        with pytest.raises(ValueError, match=r"'latency_ms'.*'device': 'k80'"):
            histogram.observe(float("nan"), device="k80")
        assert histogram.values(device="k80") == [1.5]

        def reject(constant):
            raise AssertionError(f"bare {constant} in the export")

        json.loads(registry.to_json(), parse_constant=reject)


class TestHistogram:
    VALUES = [3.2, 1.1, 8.9, 4.4, 4.4, 0.3, 12.0, 7.5, 2.2, 5.1]

    def observed(self) -> Histogram:
        histogram = Histogram("latency_ms")
        for value in self.VALUES:
            histogram.observe(value)
        return histogram

    def test_count_sum_and_values(self):
        histogram = self.observed()
        assert histogram.count() == len(self.VALUES)
        assert histogram.sum() == pytest.approx(sum(self.VALUES))
        assert histogram.values() == self.VALUES

    def test_quantiles_match_numpy_exactly(self):
        histogram = self.observed()
        for q in (0, 25, 50, 75, 95, 99, 100):
            assert histogram.quantile(q) == float(np.percentile(self.VALUES, q))

    def test_snapshot_arithmetic_matches_the_numpy_reference(self):
        snapshot = self.observed().snapshot()["series"][0]
        reference = quantiles_reference(self.VALUES)
        for q in HISTOGRAM_QUANTILES:
            assert snapshot[f"p{q:g}"] == reference[f"p{q:g}"]
        assert snapshot["count"] == len(self.VALUES)
        assert snapshot["sum"] == pytest.approx(float(np.sum(self.VALUES)))
        assert snapshot["min"] == min(self.VALUES)
        assert snapshot["max"] == max(self.VALUES)
        assert snapshot["mean"] == pytest.approx(float(np.mean(self.VALUES)))

    def test_quantile_of_empty_series_raises(self):
        with pytest.raises(ValueError, match="no observations"):
            Histogram("latency_ms").quantile(50)

    def test_out_of_range_percentile_raises(self):
        histogram = self.observed()
        with pytest.raises(ValueError, match=r"\[0, 100\]"):
            histogram.quantile(101)

    def test_labelled_series_keep_separate_distributions(self):
        histogram = Histogram("latency_ms")
        histogram.observe(1.0, device="v100")
        histogram.observe(9.0, device="k80")
        assert histogram.values(device="v100") == [1.0]
        assert histogram.values(device="k80") == [9.0]


class TestMetricsRegistry:
    def test_families_are_memoised_by_name(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert registry.gauge("b") is registry.gauge("b")
        assert registry.histogram("c") is registry.histogram("c")
        assert len(registry) == 3

    def test_kind_clash_raises(self):
        registry = MetricsRegistry()
        registry.counter("serve.executions")
        with pytest.raises(TypeError, match="is a counter, not a gauge"):
            registry.gauge("serve.executions")

    def test_names_are_sorted_and_membership_works(self):
        registry = MetricsRegistry()
        registry.gauge("z")
        registry.counter("a")
        assert registry.names() == ["a", "z"]
        assert "a" in registry
        assert "missing" not in registry
        assert registry.get("missing") is None

    def test_snapshot_is_insertion_order_independent(self):
        def populate(registry: MetricsRegistry, flipped: bool) -> MetricsRegistry:
            order = ["beta", "alpha"] if flipped else ["alpha", "beta"]
            for name in order:
                registry.counter(name).inc(2.0, kind=name)
            registry.histogram("lat").observe(1.5)
            return registry

        first = populate(MetricsRegistry(), flipped=False)
        second = populate(MetricsRegistry(), flipped=True)
        assert first.to_json() == second.to_json()

    def test_write_round_trips_through_json(self, tmp_path):
        registry = MetricsRegistry()
        registry.counter("requests").inc(7.0)
        target = registry.write(tmp_path / "nested" / "metrics.json")
        assert json.loads(target.read_text()) == registry.snapshot()

    def test_clear_empties_the_namespace(self):
        registry = MetricsRegistry()
        registry.counter("requests").inc()
        registry.clear()
        assert len(registry) == 0
        assert registry.snapshot() == {}

    def test_description_backfills_once(self):
        registry = MetricsRegistry()
        registry.counter("requests")
        assert registry.counter("requests", "total offered").description == "total offered"
        assert registry.counter("requests", "other").description == "total offered"


class TestSnapshotByteStability:
    def _populated(self) -> MetricsRegistry:
        registry = MetricsRegistry()
        histogram = registry.histogram("latency_ms")
        rng = np.random.default_rng(17)
        # Values chosen to produce non-terminating percentile interpolation:
        # without fixed-precision rounding these floats drift in their last
        # digits and the rendered JSON is not byte-reproducible.
        for value in rng.exponential(scale=7.0, size=301):
            histogram.observe(float(value))
        registry.counter("requests").inc(3.0)
        return registry

    def test_to_json_is_byte_identical_across_builds(self):
        assert self._populated().to_json() == self._populated().to_json()

    def test_quantiles_round_to_fixed_precision(self):
        from repro.obs import QUANTILE_DECIMALS

        series = self._populated().snapshot()["latency_ms"]["series"][0]
        for q in HISTOGRAM_QUANTILES:
            value = series[f"p{q:g}"]
            assert value == round(value, QUANTILE_DECIMALS)

    def test_snapshot_matches_the_reference_helper(self):
        registry = self._populated()
        histogram = registry.histogram("latency_ms")
        series = registry.snapshot()["latency_ms"]["series"][0]
        reference = quantiles_reference(histogram.values())
        for q in HISTOGRAM_QUANTILES:
            assert series[f"p{q:g}"] == reference[f"p{q:g}"]
