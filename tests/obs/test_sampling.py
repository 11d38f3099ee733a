"""Tests for tail-based trace sampling: budgets, must-keeps, reservoirs."""

from __future__ import annotations

import pytest

from repro.obs import (
    SamplingConfig,
    SamplingTracer,
    parse_sampling_spec,
    validate_chrome_trace,
)
from repro.obs.export import chrome_trace


def _request(
    tracer: SamplingTracer,
    correlation: int,
    start_ms: float,
    latency_ms: float,
    *,
    deadline_ms: float | None = None,
    outcome: str = "completed",
) -> None:
    """Emit one request lifecycle the way the serving loop does."""
    name = f"request {correlation}"
    args = {"deadline_ms": deadline_ms} if deadline_ms is not None else {}
    tracer.async_begin(
        name, "serving/requests", correlation, start_ms,
        category="request", args=args,
    )
    tracer.async_end(
        name, "serving/requests", correlation, start_ms + latency_ms,
        category="request", args={"outcome": outcome},
    )


class TestSamplingConfig:
    def test_defaults_are_valid(self):
        config = SamplingConfig()
        assert config.max_records > 0
        assert config.keep_slo_miss and config.keep_rejected

    def test_bad_values_rejected(self):
        with pytest.raises(ValueError):
            SamplingConfig(max_records=0)
        with pytest.raises(ValueError):
            SamplingConfig(head_every=-1)
        with pytest.raises(ValueError):
            SamplingConfig(track_budget=0)

    def test_parse_spec_defaults_and_overrides(self):
        assert parse_sampling_spec("") == SamplingConfig()
        assert parse_sampling_spec("default") == SamplingConfig()
        config = parse_sampling_spec("budget=2000,head=50,track=100")
        assert config.max_records == 2000
        assert config.head_every == 50
        assert config.track_budget == 100

    def test_parse_spec_rejects_unknown_keys(self):
        with pytest.raises(ValueError):
            parse_sampling_spec("rate=5")
        with pytest.raises(ValueError):
            parse_sampling_spec("budget=lots")

    @pytest.mark.parametrize(
        "spec, key", [("budget=1,budget=2", "budget"), ("head=5,track=9,head=5", "head")]
    )
    def test_parse_spec_rejects_a_repeated_key(self, spec, key):
        with pytest.raises(ValueError, match=f"sampling key '{key}' repeated"):
            parse_sampling_spec(spec)

    @pytest.mark.parametrize("spec, entry", [("budget", "budget"), ("budget=10,head", "head")])
    def test_parse_spec_reports_an_entry_without_a_value_as_malformed(self, spec, entry):
        with pytest.raises(ValueError, match=f"malformed sampling entry '{entry}'"):
            parse_sampling_spec(spec)


class TestTailSampling:
    def test_every_slo_miss_is_kept_under_a_tight_budget(self):
        tracer = SamplingTracer(
            SamplingConfig(max_records=10, head_every=0, track_budget=10)
        )
        misses = []
        for correlation in range(1, 101):
            # Every 10th request misses its 5ms deadline.
            missed = correlation % 10 == 0
            latency = 9.0 if missed else 1.0
            if missed:
                misses.append(correlation)
            _request(
                tracer, correlation, float(correlation), latency, deadline_ms=5.0
            )
        kept = {
            record.correlation
            for record in tracer.records
            if record.category == "request"
        }
        assert set(misses) <= kept
        meta = tracer.sampling_metadata()
        assert meta["requests"]["slo_miss_kept"] == len(misses)

    def test_every_rejection_is_kept(self):
        tracer = SamplingTracer(
            SamplingConfig(max_records=6, head_every=0, track_budget=10)
        )
        for correlation in range(1, 31):
            outcome = "rejected" if correlation % 7 == 0 else "completed"
            _request(tracer, correlation, float(correlation), 1.0, outcome=outcome)
        kept = {
            record.correlation
            for record in tracer.records
            if record.category == "request"
        }
        assert {7, 14, 21, 28} <= kept
        assert tracer.sampling_metadata()["requests"]["rejected_kept"] == 4

    def test_eviction_drops_the_fastest_discretionary_requests_first(self):
        # Budget of 6 records = 3 two-record groups.  When request 4 settles,
        # the fastest discretionary group (request 2) is the one evicted.
        tracer = SamplingTracer(
            SamplingConfig(max_records=6, head_every=0, track_budget=10)
        )
        for correlation, latency in [(1, 5.0), (2, 1.0), (3, 9.0), (4, 2.0)]:
            _request(tracer, correlation, 0.0, latency)
        kept = {
            record.correlation
            for record in tracer.records
            if record.category == "request"
        }
        assert kept == {1, 3, 4}

    def test_head_sampling_outranks_slower_discretionary_groups(self):
        tracer = SamplingTracer(
            SamplingConfig(max_records=4, head_every=10, track_budget=10)
        )
        _request(tracer, 10, 0.0, 1.0)  # head (10 % 10 == 0), fast
        _request(tracer, 11, 0.0, 50.0)  # slower, but not head
        _request(tracer, 12, 0.0, 60.0)  # forces one eviction
        kept = {
            record.correlation
            for record in tracer.records
            if record.category == "request"
        }
        # The non-head request 11 evicts despite being slower than the head.
        assert kept == {10, 12}
        assert tracer.sampling_metadata()["requests"]["head_kept"] == 1

    def test_peak_request_records_honours_the_budget(self):
        tracer = SamplingTracer(
            SamplingConfig(max_records=8, head_every=0, track_budget=10)
        )
        for correlation in range(1, 41):
            _request(tracer, correlation, float(correlation), 1.0)
        meta = tracer.sampling_metadata()
        assert meta["records"]["peak_request_records"] <= 8
        assert meta["requests"]["total"] == 40
        assert meta["requests"]["kept"] + meta["requests"]["dropped"] == 40

    def test_lifecycle_groups_keep_or_drop_atomically(self):
        # A dropped request loses both halves of its lifecycle, so async
        # begin/end pairs always stay balanced in the exported trace.
        tracer = SamplingTracer(
            SamplingConfig(max_records=2, head_every=0, track_budget=10)
        )
        _request(tracer, 1, 0.0, 1.0)
        _request(tracer, 2, 0.0, 9.0)
        kept = [r for r in tracer.records if r.category == "request"]
        assert {record.correlation for record in kept} == {2}
        assert len(kept) == 2
        assert validate_chrome_trace(chrome_trace(tracer)) == []

    def test_track_reservoir_bounds_non_request_records(self):
        tracer = SamplingTracer(
            SamplingConfig(max_records=100, head_every=0, track_budget=8)
        )
        for index in range(100):
            tracer.add_span(
                f"kernel {index}", "worker 0/stream 0",
                float(index), float(index) + 0.5, category="kernel",
            )
        spans = [r for r in tracer.records if r.category == "kernel"]
        assert len(spans) <= 8
        assert tracer.sampling_metadata()["records"]["dropped"] >= 92

    def test_alert_and_autoscale_instants_are_exempt(self):
        tracer = SamplingTracer(
            SamplingConfig(max_records=2, head_every=0, track_budget=2)
        )
        for index in range(20):
            tracer.instant(
                f"alert rule-{index}", "serving/alerts", float(index),
                category="alert",
            )
            tracer.instant(
                "scale up", "serving/autoscale", float(index),
                category="autoscale",
            )
        categories = [record.category for record in tracer.records]
        assert categories.count("alert") == 20
        assert categories.count("autoscale") == 20

    def test_records_merge_in_emission_order(self):
        tracer = SamplingTracer(
            SamplingConfig(max_records=100, head_every=1, track_budget=100)
        )
        tracer.instant("before", "serving/admission", 0.0, category="admission")
        _request(tracer, 1, 1.0, 1.0)
        tracer.instant("after", "serving/admission", 3.0, category="admission")
        names = [record.name for record in tracer.records]
        assert names == ["before", "request 1", "request 1", "after"]

    def test_clear_resets_all_state(self):
        tracer = SamplingTracer(SamplingConfig(max_records=10))
        _request(tracer, 1, 0.0, 1.0)
        tracer.clear()
        assert len(tracer) == 0
        assert tracer.records == []
        assert tracer.sampling_metadata()["requests"]["total"] == 0
