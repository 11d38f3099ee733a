"""Tests for tail-based trace sampling: budgets, must-keeps, reservoirs."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.obs import (
    SamplingConfig,
    SamplingTracer,
    Tracer,
    parse_sampling_spec,
    validate_chrome_trace,
)
from repro.obs.export import chrome_trace
from repro.obs.trace import (
    ASYNC_BEGIN, ASYNC_END, COUNTER, INSTANT, SPAN, TraceRecord,
)


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

    def test_clear_does_not_materialise_the_records(self, monkeypatch):
        ticks = iter(range(100))
        tracer = SamplingTracer(SamplingConfig(max_records=10),
                                clock=lambda: float(next(ticks)))
        _request(tracer, 1, 0.0, 1.0)
        tracer.add_span("kernel", "worker 0/stream 0", 0.0, 1.0, category="kernel")
        tracer.instant("scale up", "serving/autoscale", 1.0, category="autoscale")

        def merged(self):
            raise AssertionError("clear() merged the sampled records")

        monkeypatch.setattr(
            SamplingTracer, "records", property(merged, SamplingTracer.records.fset)
        )
        tracer.clear()
        assert len(tracer) == 0
        assert tracer.now_ms() == 1.0  # the clock restarted at the clear


# --------------------------------------------------------------------------- #
# Running counts equal a brute-force recount                                  #
# --------------------------------------------------------------------------- #
#: One tracer call each: open a lifecycle, emit a nested phase pair into an
#: open one, close an open one (rejected, or with a latency that may miss its
#: deadline), write a span/counter/instant on one of many tracks, or raise an
#: exempt alert/autoscale instant.
_operations = st.lists(
    st.one_of(
        st.tuples(st.just("open"), st.sampled_from([None, 2.0, 5.0])),
        st.tuples(st.just("phase"), st.integers(0, 7)),
        st.tuples(
            st.just("close"), st.integers(0, 7),
            st.floats(0.0, 10.0, allow_nan=False), st.booleans(),
        ),
        st.tuples(
            st.just("track"), st.integers(0, 11),
            st.sampled_from(["span", "counter", "instant"]),
        ),
        st.tuples(st.just("exempt"), st.sampled_from(["alert", "autoscale"])),
    ),
    max_size=120,
)


def _apply(tracer: SamplingTracer, operation, state: dict) -> None:
    """Emit one operation the way the serving loop would."""
    kind, now = operation[0], state["now"]
    state["now"] += 0.5
    open_ids = state["open"]
    if kind == "open":
        correlation = state["next_id"]
        state["next_id"] += 1
        args = {} if operation[1] is None else {"deadline_ms": operation[1]}
        tracer.async_begin(
            f"request {correlation}", "serving/requests", correlation, now,
            category="request", args=args,
        )
        open_ids[correlation] = now
    elif kind in ("phase", "close") and open_ids:
        correlation = list(open_ids)[operation[1] % len(open_ids)]
        if kind == "phase":
            tracer.async_begin(
                "queued", "serving/requests", correlation, now, category="request"
            )
            tracer.async_end(
                "queued", "serving/requests", correlation, now, category="request"
            )
        else:
            start = open_ids.pop(correlation)
            _, _, latency, rejected = operation
            tracer.async_end(
                f"request {correlation}", "serving/requests", correlation,
                start + latency, category="request",
                args={"outcome": "rejected" if rejected else "completed"},
            )
    elif kind == "track":
        track = f"worker {operation[1]} (k80)/stream 0"
        if operation[2] == "span":
            tracer.add_span("conv", track, now, now + 0.25, category="kernel")
        elif operation[2] == "counter":
            tracer.counter("queue depth", track, now, {"requests": 1.0})
        elif operation[2] == "async":
            tracer.async_begin("copy", track, operation[1], now, category="transfer")
            tracer.async_end("copy", track, operation[1], now + 0.25, category="transfer")
        else:
            tracer.instant("batch-close", track, now, category="batch")
    elif kind == "exempt":
        tracer.instant(f"{operation[1]} event", f"serving/{operation[1]}", now,
                       category=operation[1])
    elif kind == "exempt on track":
        tracer.instant(f"{operation[2]} event", f"worker {operation[1]} (k80)/stream 0",
                       now, category=operation[2])


class _RecountingTracer(SamplingTracer):
    """Checks the running counts against a full rescan after every record.

    A record its track reservoir drops is never built, so it is counted
    where the sampler decides that, not in ``_ingest``.
    """

    def __init__(self, config: SamplingConfig):
        self.emitted = self.peak_retained = self.peak_request_records = 0
        super().__init__(config)

    def _decimated(self, track, category) -> bool:
        dropped = super()._decimated(track, category)
        if dropped:
            self.emitted += 1
            self._recount()
        return dropped

    def _ingest(self, record) -> None:
        super()._ingest(record)
        self.emitted += 1
        self._recount()

    def _recount(self) -> None:
        kept_requests = sum(len(group) for group in self._kept_groups.values())
        open_requests = sum(len(group) for _, group in self._open.values())
        track_records = sum(len(r.kept) for r in self._tracks.values())
        retained = kept_requests + open_requests + track_records + len(self._exempt)
        assert self._open_records() == open_requests
        assert len(self) == retained == len(self.records)
        self.peak_retained = max(self.peak_retained, retained)
        self.peak_request_records = max(
            self.peak_request_records, kept_requests + open_requests
        )
        records = self.sampling_metadata()["records"]
        assert records["kept"] == retained
        assert records["kept"] + records["dropped"] == self.emitted
        assert records["peak_retained"] == self.peak_retained
        assert records["peak_request_records"] == self.peak_request_records


@settings(max_examples=150, deadline=None)
@given(
    _operations,
    st.integers(1, 12),
    st.sampled_from([0, 1, 3]),
    st.integers(2, 6),
)
def test_running_counts_equal_a_brute_force_recount(
    operations, max_records, head_every, track_budget
):
    tracer = _RecountingTracer(SamplingConfig(
        max_records=max_records, head_every=head_every, track_budget=track_budget,
    ))
    state = {"now": 0.0, "next_id": 1, "open": {}}
    for operation in operations:
        _apply(tracer, operation, state)
    assert tracer.emitted == tracer._seq
    tracer.clear()
    assert len(tracer) == tracer._open_records() == 0


# --------------------------------------------------------------------------- #
# Dropping before building equals building, then offering                     #
# --------------------------------------------------------------------------- #
class _BuildThenOffer(SamplingTracer):
    """The sampler with every record built and offered to its reservoir."""

    def add_span(self, name, track, start_ms, end_ms, *, category="", args=None):
        self._ingest(TraceRecord(
            SPAN, name, track, start_ms, max(0.0, end_ms - start_ms), category,
            None, args,
        ))

    def instant(self, name, track, ts_ms=None, *, category="", args=None):
        ts_ms = self.now_ms() if ts_ms is None else ts_ms
        self._ingest(TraceRecord(INSTANT, name, track, ts_ms, 0.0, category, None, args))

    def counter(self, name, track, ts_ms, values):
        self._ingest(TraceRecord(COUNTER, name, track, ts_ms, 0.0, "", None, dict(values)))

    def async_begin(self, name, track, correlation, ts_ms, *, category="", args=None):
        self._ingest(TraceRecord(
            ASYNC_BEGIN, name, track, ts_ms, 0.0, category, correlation, args,
        ))

    def async_end(self, name, track, correlation, ts_ms, *, category="", args=None):
        self._ingest(TraceRecord(
            ASYNC_END, name, track, ts_ms, 0.0, category, correlation, args,
        ))


#: Like ``_operations``, but on three tracks, so their reservoirs halve often,
#: with the exempt instants written onto those same tracks.
_dense_operations = st.lists(
    st.one_of(
        st.tuples(st.just("open"), st.sampled_from([None, 2.0, 5.0])),
        st.tuples(st.just("phase"), st.integers(0, 7)),
        st.tuples(
            st.just("close"), st.integers(0, 7),
            st.floats(0.0, 10.0, allow_nan=False), st.booleans(),
        ),
        st.tuples(
            st.just("track"), st.integers(0, 2),
            st.sampled_from(["span", "counter", "instant", "async"]),
        ),
        st.tuples(
            st.just("exempt on track"), st.integers(0, 2),
            st.sampled_from(["alert", "autoscale"]),
        ),
    ),
    max_size=150,
)


@settings(max_examples=150, deadline=None)
@given(_dense_operations, st.integers(1, 12), st.integers(2, 5))
def test_halving_reservoirs_keep_what_build_then_offer_keeps(
    operations, max_records, track_budget
):
    config = SamplingConfig(
        max_records=max_records, head_every=3, track_budget=track_budget,
    )
    sampler, reference = SamplingTracer(config), _BuildThenOffer(config)
    for tracer in (sampler, reference):
        state = {"now": 0.0, "next_id": 1, "open": {}}
        for operation in operations:
            _apply(tracer, operation, state)
    assert sampler.records == reference.records
    assert sampler.sampling_metadata() == reference.sampling_metadata()
    assert len(sampler) == len(reference)
    assert sampler._seq == reference._seq


def test_a_decimated_record_is_never_built(monkeypatch):
    tracer = SamplingTracer(SamplingConfig(track_budget=2))
    built = []
    monkeypatch.setattr(
        "repro.obs.sampling.TraceRecord",
        lambda *fields: built.append(fields) or TraceRecord(*fields),
    )
    for step in range(8):
        tracer.add_span("conv", "worker 0 (k80)/stream 0", step, step + 1.0)
    # Kept: 0, 1 (halves to 0, stride 2), 2 (halves to 0, stride 4), 4 (halves
    # to 0, stride 8); 3, 5, 6 and 7 are dropped unbuilt.
    assert [fields[3] for fields in built] == [0, 1, 2, 4]
    assert [record.ts_ms for record in tracer.records] == [0]
    assert tracer.sampling_metadata()["records"]["dropped"] == 7


# --------------------------------------------------------------------------- #
# The merge by seq equals a plain tracer's recording order                    #
# --------------------------------------------------------------------------- #
@settings(max_examples=150, deadline=None)
@given(st.one_of(_operations, _dense_operations))
def test_unbounded_sampler_records_equal_a_plain_tracers(operations):
    sampler = SamplingTracer(
        SamplingConfig(max_records=10**6, head_every=0, track_budget=10**6)
    )
    plain = Tracer()
    for tracer in (sampler, plain):
        state = {"now": 0.0, "next_id": 1, "open": {}}
        for operation in operations:
            _apply(tracer, operation, state)
    assert sampler.records == plain.records  # the same fields, in the same order
