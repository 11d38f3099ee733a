"""Pre-bound series: ``LazySeries`` shares the keyword API's one recording path.

A ``LazySeries`` lookup binds the family's ``_record`` to the canonical label
key once; every write still lands in that ``_record``, so a lazy series and a
keyword call must be indistinguishable in every export — cumulative and
windowed.
"""

from __future__ import annotations

import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.models import chain_graph
from repro.obs import (
    Counter,
    LazySeries,
    MetricsRegistry,
    TimeSeriesRegistry,
    default_alert_rules,
)
from repro.serve import (
    BatchPolicy,
    InferenceService,
    ScheduleRegistry,
    ServingConfig,
    TrafficConfig,
    TrafficGenerator,
    WorkerPool,
)

#: (time_ms, kind, family, value, labels) — a small scripted workload that
#: crosses several windows and mixes labelled and unlabelled series.
SCRIPT = [
    (0.0, "counter", "requests", 1.0, {}),
    (0.5, "counter", "rejected", 1.0, {"reason": "deadline"}),
    (1.0, "gauge", "depth", 3, {}),
    (1.5, "histogram", "latency", 2.25, {"device": "k80"}),
    (2.0, "histogram", "latency", 0.75, {"device": "v100"}),
    (4.5, "counter", "requests", 2.0, {}),
    (5.0, "gauge", "depth", 1, {}),
    (5.5, "histogram", "latency", 1.125, {"device": "k80"}),
    (6.0, "counter", "rejected", 1.0, {"reason": "shed"}),
    (9.0, "gauge", "depth", 7, {}),
    (9.5, "histogram", "latency", 3.5, {"device": "k80"}),
    (9.5, "counter", "executions", 1.0, {"batch_size": 4}),
]


#: Keyword write method of each family kind.
WRITE = {"counter": "inc", "gauge": "set", "histogram": "observe"}


def _family(registry, kind, name):
    return getattr(registry, kind)(name, f"{name} family")


def _keyword_run(registry, script=SCRIPT):
    for time_ms, kind, name, value, labels in script:
        if isinstance(registry, TimeSeriesRegistry):
            registry.advance(time_ms)
        getattr(_family(registry, kind, name), WRITE[kind])(value, **labels)
    return registry


def _lazy_run(registry, script=SCRIPT):
    """The script through one ``LazySeries`` per family (one label each)."""
    series = {}
    for time_ms, kind, name, value, labels in script:
        if isinstance(registry, TimeSeriesRegistry):
            registry.advance(time_ms)
        ((label, label_value),) = labels.items() or [(None, None)]
        if name not in series:
            series[name] = LazySeries(
                getattr(registry, kind), name, f"{name} family", label
            )
        series[name][label_value](value)
    return registry


def _window_json(registry) -> str:
    return json.dumps(registry.window_snapshot(), sort_keys=True)


class TestLazyAndKeywordPathsAgree:
    def test_plain_registry_exports_are_byte_identical(self):
        keyword = _keyword_run(MetricsRegistry())
        lazy = _lazy_run(MetricsRegistry())
        assert lazy.to_json() == keyword.to_json()

    def test_windowed_exports_are_byte_identical(self):
        keyword = _keyword_run(TimeSeriesRegistry(window_ms=2.0, max_windows=8))
        lazy = _lazy_run(TimeSeriesRegistry(window_ms=2.0, max_windows=8))
        assert lazy.to_json() == keyword.to_json()
        assert _window_json(lazy) == _window_json(keyword)

    def test_lookup_is_the_family_record_bound_to_one_series(self):
        registry = MetricsRegistry()
        executions = LazySeries(registry.counter, "executions", label="batch_size")
        record = executions[4]
        record(1.0)
        executions["4"](2.0)  # labels are stringified: the same series
        counter = registry.counter("executions")
        assert counter.labelsets() == [{"batch_size": "4"}]
        assert counter.value(batch_size=4) == 3.0
        assert executions[4] is record


#: Family name -> (kind, label name or None); LazySeries binds one label.
FAMILIES = {
    "requests": ("counter", None),
    "rejected": ("counter", "reason"),
    "depth": ("gauge", None),
    "busy": ("gauge", "worker"),
    "latency": ("histogram", "device"),
    "occupancy": ("histogram", None),
}
#: Label values, an int and its string form included (one series both).
LABEL_VALUES = ["k80", "v100", "deadline", 4, "4"]
VALUES = {
    "counter": st.floats(min_value=0.0, max_value=1e6),
    "gauge": st.floats(min_value=-1e6, max_value=1e6),
    "histogram": st.floats(min_value=-1e3, max_value=1e6),
}


@st.composite
def scripts(draw):
    """A generated script: family, label, non-decreasing time and a value per step."""
    script, now_ms = [], 0.0
    for _ in range(draw(st.integers(min_value=0, max_value=40))):
        name = draw(st.sampled_from(sorted(FAMILIES)))
        kind, label = FAMILIES[name]
        labels = {} if label is None else {label: draw(st.sampled_from(LABEL_VALUES))}
        now_ms += draw(st.sampled_from([0.0, 0.25, 1.0, 2.5, 7.0]))
        script.append((now_ms, kind, name, draw(VALUES[kind]), labels))
    return script


@settings(max_examples=150, deadline=None)
@given(script=scripts(), window_ms=st.sampled_from([1.0, 2.0, 5.0]),
       max_windows=st.integers(min_value=1, max_value=4))
def test_generated_scripts_export_identically_on_both_paths(script, window_ms, max_windows):
    keyword = _keyword_run(MetricsRegistry(), script)
    assert _lazy_run(MetricsRegistry(), script).to_json() == keyword.to_json()

    def windowed():
        return TimeSeriesRegistry(window_ms=window_ms, max_windows=max_windows)

    windowed_keyword = _keyword_run(windowed(), script)
    windowed_lazy = _lazy_run(windowed(), script)
    assert windowed_lazy.to_json() == windowed_keyword.to_json()
    assert _window_json(windowed_lazy) == _window_json(windowed_keyword)
    # Windowing leaves the cumulative view untouched.
    assert windowed_keyword.to_json() == keyword.to_json()


class TestLookupIsLazy:
    def test_lookup_alone_creates_no_series(self):
        registry = TimeSeriesRegistry(window_ms=1.0)
        LazySeries(registry.counter, "requests", label="reason")["deadline"]
        LazySeries(registry.gauge, "depth")[None]
        LazySeries(registry.histogram, "latency", label="device")["k80"]
        assert registry.names() == ["depth", "latency", "requests"]
        for name in registry.names():
            assert registry.get(name).labelsets() == []
        assert registry.window_snapshot() == {}

    def test_first_record_creates_the_series(self):
        registry = MetricsRegistry()
        LazySeries(registry.counter, "requests", label="reason")["deadline"](1.0)
        counter = registry.counter("requests")
        assert counter.labelsets() == [{"reason": "deadline"}]
        assert counter.value(reason="deadline") == 1.0

    def test_lazy_series_resolve_the_family_on_first_lookup(self):
        registry = MetricsRegistry()
        closes = LazySeries(registry.counter, "batch.closes", "closes by reason", "reason")
        assert "batch.closes" not in registry
        record = closes["full"]
        assert "batch.closes" in registry
        assert registry.get("batch.closes").labelsets() == []
        assert closes["full"] is record
        record(1.0)
        assert registry.counter("batch.closes").value(reason="full") == 1.0
        assert registry.get("batch.closes").description == "closes by reason"

    def test_unlabelled_lazy_series_is_keyed_none(self):
        registry = MetricsRegistry()
        offered = LazySeries(registry.counter, "offered")
        offered[None](1.0)
        offered[None](1.0)
        assert registry.counter("offered").value() == 2.0


class TestLazyWritesAreChecked:
    def test_negative_increment_through_a_lazy_series_raises(self):
        registry = MetricsRegistry()
        record = LazySeries(registry.counter, "requests", label="reason")["x"]
        with pytest.raises(ValueError, match="only increase"):
            record(-1.0)
        assert registry.counter("requests").labelsets() == []

    @pytest.mark.parametrize("kind", ["counter", "gauge", "histogram"])
    def test_nan_through_a_lazy_series_raises_and_records_nothing(self, kind):
        registry = TimeSeriesRegistry(window_ms=1.0)
        record = LazySeries(getattr(registry, kind), "latency", label="device")["k80"]
        with pytest.raises(ValueError, match=r"'latency'.*device"):
            record(math.nan)
        assert registry.get("latency").labelsets() == []
        assert registry.window_snapshot() == {}

    def test_a_standalone_family_keeps_no_windows(self):
        counter = Counter("requests")
        counter.inc(reason="x")
        assert counter.window_snapshot() == []


def _service(metrics):
    registry = ScheduleRegistry(
        graph_builder=lambda model, bs: chain_graph(length=6, batch_size=bs)
    )
    config = ServingConfig(
        model="toy", devices=("k80",), batch_sizes=(1, 2, 4),
        policy=BatchPolicy(max_batch_size=4, max_wait_ms=2.0), admission="priority",
    )
    return InferenceService(
        config, registry=registry, metrics=metrics,
        alerts=default_alert_rules(slo_ms=1.5), window_ms=2.0,
    )


def _requests():
    return TrafficGenerator(TrafficConfig(
        model="toy", pattern="bursty", num_requests=120, rate_rps=4000.0,
        burst_size=32, burst_gap_ms=2.0, sample_sizes=(1, 2),
        sample_weights=(0.6, 0.4), priorities=(0, 1), priority_weights=(0.5, 0.5),
        slo_ms=1.5, seed=3,
    )).generate()


def _without_registry_lookups(snapshot: dict) -> dict:
    """A snapshot minus the schedule-registry counters, cumulative by design."""
    return {name: family for name, family in snapshot.items()
            if name != "serve.registry.lookups"}


class TestLoopRebindsEveryRun:
    def test_a_second_run_on_one_registry_reports_identically(self):
        metrics = TimeSeriesRegistry(window_ms=2.0)
        service = _service(metrics)
        loop, requests = service.loop, _requests()
        first = loop.run(requests)
        first_export = json.loads(metrics.to_json())
        first_windows = metrics.window_snapshot()
        # Worker horizons outlive a run; only the loop and its registry are
        # shared between the two runs.
        loop.pool = WorkerPool(service.pool.devices)
        second = loop.run(requests)
        assert second.metrics is metrics
        assert _without_registry_lookups(json.loads(metrics.to_json())) == (
            _without_registry_lookups(first_export)
        )
        assert _without_registry_lookups(metrics.window_snapshot()) == (
            _without_registry_lookups(first_windows)
        )
        assert second.records == first.records
        assert second.rejected == first.rejected
        # The run really exercised the bound series.
        assert metrics.counter("serve.admission.rejected").total() > 0
        assert metrics.histogram("serve.latency_ms").count(device="k80") > 0
