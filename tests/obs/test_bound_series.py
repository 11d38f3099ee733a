"""Bound series handles: one recording path shared with the keyword API.

A handle canonicalises its labels once at ``bind`` time; every write still
lands in the family's ``_record``, so a handle and a keyword call must be
indistinguishable in every export — cumulative and windowed.
"""

from __future__ import annotations

import json
import math

import pytest

from repro.models import chain_graph
from repro.obs import (
    BoundCounter,
    BoundGauge,
    BoundHistogram,
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


#: Write method of each family kind (the same name on family and handle).
WRITE = {"counter": "inc", "gauge": "set", "histogram": "observe"}


def _family(registry, kind, name):
    return getattr(registry, kind)(name, f"{name} family")


def _keyword_run(registry):
    for time_ms, kind, name, value, labels in SCRIPT:
        if isinstance(registry, TimeSeriesRegistry):
            registry.advance(time_ms)
        getattr(_family(registry, kind, name), WRITE[kind])(value, **labels)
    return registry


def _bound_run(registry):
    handles = {}
    for time_ms, kind, name, value, labels in SCRIPT:
        if isinstance(registry, TimeSeriesRegistry):
            registry.advance(time_ms)
        key = (name, tuple(sorted(labels.items())))
        if key not in handles:
            handles[key] = _family(registry, kind, name).bind(**labels)
        getattr(handles[key], WRITE[kind])(value)
    return registry


class TestBoundAndKeywordPathsAgree:
    def test_plain_registry_exports_are_byte_identical(self):
        keyword = _keyword_run(MetricsRegistry())
        bound = _bound_run(MetricsRegistry())
        assert bound.to_json() == keyword.to_json()

    def test_windowed_exports_are_byte_identical(self):
        keyword = _keyword_run(TimeSeriesRegistry(window_ms=2.0, max_windows=8))
        bound = _bound_run(TimeSeriesRegistry(window_ms=2.0, max_windows=8))
        assert bound.to_json() == keyword.to_json()
        assert json.dumps(bound.window_snapshot(), sort_keys=True) == json.dumps(
            keyword.window_snapshot(), sort_keys=True
        )

    def test_handle_types_follow_the_family(self):
        registry = MetricsRegistry()
        assert isinstance(registry.counter("c").bind(), BoundCounter)
        assert isinstance(registry.gauge("g").bind(), BoundGauge)
        assert isinstance(registry.histogram("h").bind(), BoundHistogram)

    def test_handle_labels_are_canonical(self):
        handle = Counter("executions").bind(batch_size=4, device="k80")
        assert handle.key == (("batch_size", "4"), ("device", "k80"))


class TestBindingIsLazy:
    def test_binding_alone_creates_no_series(self):
        registry = TimeSeriesRegistry(window_ms=1.0)
        counter = registry.counter("requests")
        counter.bind(reason="deadline")
        registry.gauge("depth").bind()
        registry.histogram("latency").bind(device="k80")
        for name in registry.names():
            assert registry.get(name).labelsets() == []
        assert registry.window_snapshot() == {}

    def test_first_record_creates_the_series(self):
        counter = Counter("requests")
        handle = counter.bind(reason="deadline")
        handle.inc()
        assert counter.labelsets() == [{"reason": "deadline"}]
        assert counter.value(reason="deadline") == 1.0

    def test_lazy_series_resolve_the_family_on_first_lookup(self):
        registry = MetricsRegistry()
        closes = LazySeries(registry.counter, "batch.closes", "closes by reason", "reason")
        assert "batch.closes" not in registry
        handle = closes["full"]
        assert "batch.closes" in registry
        assert registry.get("batch.closes").labelsets() == []
        assert closes["full"] is handle
        handle.inc()
        assert registry.counter("batch.closes").value(reason="full") == 1.0
        assert registry.get("batch.closes").description == "closes by reason"

    def test_unlabelled_lazy_series_is_keyed_none(self):
        registry = MetricsRegistry()
        offered = LazySeries(registry.counter, "offered")
        offered[None].inc()
        offered[None].inc()
        assert registry.counter("offered").value() == 2.0


class TestBoundWritesAreChecked:
    def test_negative_increment_through_a_handle_raises(self):
        handle = Counter("requests").bind(reason="x")
        with pytest.raises(ValueError, match="only increase"):
            handle.inc(-1.0)

    @pytest.mark.parametrize("kind", ["counter", "gauge", "histogram"])
    def test_nan_through_a_handle_raises_and_records_nothing(self, kind):
        registry = TimeSeriesRegistry(window_ms=1.0)
        family = getattr(registry, kind)("latency")
        handle = family.bind(device="k80")
        with pytest.raises(ValueError, match=r"'latency'.*device"):
            getattr(handle, WRITE[kind])(math.nan)
        assert family.labelsets() == []
        assert registry.window_snapshot() == {}


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
