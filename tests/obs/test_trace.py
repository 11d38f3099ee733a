"""Tests for the span tracer and its disabled (null) form."""

from __future__ import annotations

import pytest

from repro.obs import NULL_TRACER, NullTracer, SamplingTracer, Tracer
from repro.obs.trace import PrefixedTracer
from repro.obs.trace import ASYNC_BEGIN, ASYNC_END, COUNTER, INSTANT, SPAN


def ticking_clock(step: float = 1.0):
    """A deterministic wall clock advancing ``step`` ms per reading."""
    state = {"now": 0.0}

    def clock() -> float:
        state["now"] += step
        return state["now"]

    return clock


class TestTracer:
    def test_add_span_records_explicit_virtual_times(self):
        tracer = Tracer()
        tracer.add_span("execute", "worker 0/batches", 10.0, 14.5,
                        category="batch", args={"batch_size": 4})
        (record,) = tracer.records
        assert record.kind == SPAN
        assert record.ts_ms == 10.0
        assert record.dur_ms == 4.5
        assert record.end_ms == 14.5
        assert record.args == {"batch_size": 4}

    def test_span_duration_never_goes_negative(self):
        tracer = Tracer()
        tracer.add_span("odd", "main", 5.0, 3.0)
        assert tracer.records[0].dur_ms == 0.0

    def test_context_managed_span_measures_the_injected_clock(self):
        tracer = Tracer(clock=ticking_clock())
        with tracer.span("schedule", "compile/stages") as info:
            info["transitions"] = 12
        (record,) = tracer.records
        # Clock readings: epoch=1, start=2, end=3 → span [1.0, 2.0).
        assert record.ts_ms == 1.0
        assert record.dur_ms == 1.0
        assert record.args == {"transitions": 12}

    def test_span_records_even_when_the_block_raises(self):
        tracer = Tracer(clock=ticking_clock())
        try:
            with tracer.span("doomed", "compile/stages"):
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        assert len(tracer) == 1

    def test_instant_defaults_to_now_and_accepts_explicit_times(self):
        tracer = Tracer(clock=ticking_clock())
        tracer.instant("implicit", "serving/loop")
        tracer.instant("explicit", "serving/loop", ts_ms=42.0)
        implicit, explicit = tracer.records
        assert implicit.kind == INSTANT
        assert implicit.ts_ms == 1.0  # one tick past the epoch
        assert explicit.ts_ms == 42.0

    def test_counter_and_async_records_carry_their_payloads(self):
        tracer = Tracer()
        tracer.counter("queue depth", "serving/loop", 3.0, {"requests": 2})
        tracer.async_begin("request 7", "serving/requests", 7, 1.0,
                           category="request")
        tracer.async_end("request 7", "serving/requests", 7, 9.0,
                         category="request")
        counter, begin, end = tracer.records
        assert counter.kind == COUNTER and counter.args == {"requests": 2}
        assert begin.kind == ASYNC_BEGIN and begin.correlation == 7
        assert end.kind == ASYNC_END and end.ts_ms == 9.0

    def test_spans_filter_by_track(self):
        tracer = Tracer()
        tracer.add_span("a", "compile/stages", 0.0, 1.0)
        tracer.add_span("b", "serving/loop", 0.0, 1.0)
        tracer.instant("not-a-span", "compile/stages")
        assert [span.name for span in tracer.spans()] == ["a", "b"]
        assert [span.name for span in tracer.spans("compile/stages")] == ["a"]

    def test_tracks_list_in_first_appearance_order(self):
        tracer = Tracer()
        tracer.add_span("a", "serving/loop", 0.0, 1.0)
        tracer.add_span("b", "compile/stages", 0.0, 1.0)
        tracer.add_span("c", "serving/loop", 1.0, 2.0)
        assert tracer.tracks() == ["serving/loop", "compile/stages"]

    def test_clear_drops_records_and_restarts_the_clock(self):
        tracer = Tracer(clock=ticking_clock())
        tracer.instant("before", "main")
        first_now = tracer.now_ms()
        tracer.clear()
        assert len(tracer) == 0
        assert tracer.now_ms() < first_now

    def test_tracer_is_truthy_and_enabled(self):
        tracer = Tracer()
        assert tracer
        assert tracer.enabled


class TestNullTracer:
    def test_is_falsy_and_disabled(self):
        assert not NULL_TRACER
        assert not NULL_TRACER.enabled
        assert isinstance(NULL_TRACER, NullTracer)

    def test_swallows_every_recording_call(self):
        tracer = NullTracer()
        tracer.add_span("a", "main", 0.0, 1.0)
        tracer.instant("b", "main")
        tracer.counter("c", "main", 0.0, {"x": 1})
        tracer.async_begin("d", "main", 1, 0.0)
        tracer.async_end("d", "main", 1, 1.0)
        with tracer.span("e", "main") as info:
            info["ignored"] = True
        assert len(tracer) == 0
        assert tracer.records == []

    def test_guard_pattern_skips_all_work(self):
        # The instrumentation idiom: one truth test, zero records.
        tracer = NULL_TRACER
        touched = []
        if tracer:
            touched.append("traced")  # pragma: no cover - must not run
        assert touched == []


class TestPrefixedTracer:
    @pytest.fixture(params=[Tracer, SamplingTracer], ids=["plain", "sampling"])
    def inner(self, request) -> Tracer:
        return request.param()

    @staticmethod
    def _record_five(view: PrefixedTracer) -> None:
        view.add_span("execute", "worker 0/batches", 0.0, 1.0, category="batch")
        view.instant("batch-close", "serving/loop", 1.0, category="batch")
        view.counter("queue depth", "serving/loop", 1.0, {"requests": 2})
        view.async_begin("request 1", "serving/requests", 1, 0.0, category="request")
        view.async_end("request 1", "serving/requests", 1, 2.0, category="request")

    def test_records_land_on_prefixed_tracks_of_the_inner_trace(self, inner):
        view = PrefixedTracer(inner, "host0 ")
        self._record_five(view)
        assert len(view) == len(inner) == 5
        assert {record.track for record in inner.records} == {
            "host0 worker 0/batches", "host0 serving/loop", "host0 serving/requests",
        }

    def test_clear_clears_the_inner_trace(self, inner):
        view = PrefixedTracer(inner, "host0 ")
        self._record_five(view)
        view.clear()
        assert len(view) == len(inner) == 0
        assert view.records == inner.records == []

    def test_len_does_not_materialise_the_inner_records(self, inner, monkeypatch):
        view = PrefixedTracer(inner, "host0 ")
        self._record_five(view)
        if isinstance(inner, SamplingTracer):
            def merged(self):
                raise AssertionError("len() merged the sampled records")

            monkeypatch.setattr(SamplingTracer, "records", property(merged))
        assert len(view) == 5

    def test_wrapping_the_null_tracer_stays_falsy_and_empty(self):
        view = PrefixedTracer(NULL_TRACER, "host0 ")
        view.add_span("a", "main", 0.0, 1.0)
        view.clear()
        assert not view
        assert len(view) == 0
