"""Tests for the Chrome-trace exporter and its schema validator."""

from __future__ import annotations

import json
import math
import os
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.obs import (
    SamplingConfig,
    SamplingTracer,
    Tracer,
    chrome_trace,
    chrome_trace_json,
    validate_chrome_trace,
)
from repro.obs import export
from repro.obs.export import write_chrome_trace
from repro.obs.trace import ASYNC_BEGIN, ASYNC_END, COUNTER, INSTANT, SPAN


def sample_tracer() -> Tracer:
    """A small trace exercising every record kind across three tracks."""
    tracer = Tracer()
    tracer.add_span("schedule", "compile/stages", 0.0, 2.5,
                    category="compile", args={"graph": "toy"})
    tracer.instant("batch-close", "serving/loop", ts_ms=4.0, category="batch")
    tracer.counter("queue depth", "serving/loop", 4.0, {"requests": 3.0})
    tracer.async_begin("request 1", "serving/requests", 1, 1.0, category="request")
    tracer.async_end("request 1", "serving/requests", 1, 6.0, category="request")
    tracer.add_span("conv", "worker 0 (v100)/stream 0", 4.5, 5.5, category="kernel")
    return tracer


def events_of(document: dict, phase: str) -> list[dict]:
    return [event for event in document["traceEvents"] if event["ph"] == phase]


class TestChromeTrace:
    def test_document_shape_and_track_count(self):
        document = chrome_trace(sample_tracer())
        assert document["displayTimeUnit"] == "ms"
        assert document["otherData"]["generator"] == "repro.obs"
        # compile/stages, serving/loop, serving/requests, worker 0 (v100)/stream 0
        assert document["otherData"]["trackCount"] == 4

    def test_times_convert_to_microseconds(self):
        document = chrome_trace(sample_tracer())
        (span,) = [e for e in events_of(document, "X") if e["name"] == "schedule"]
        assert span["ts"] == 0.0
        assert span["dur"] == 2500.0
        (instant,) = events_of(document, "i")
        assert instant["ts"] == 4000.0
        assert instant["s"] == "t"

    def test_rows_share_a_pid_per_process(self):
        document = chrome_trace(sample_tracer())
        names = {}
        for event in events_of(document, "M"):
            if event["name"] == "process_name":
                names[event["args"]["name"]] = event["pid"]
        assert set(names) == {"compile", "serving", "worker 0 (v100)"}
        instant, counter = events_of(document, "i") + events_of(document, "C")
        begin = events_of(document, "b")[0]
        # serving/loop and serving/requests share the serving pid on
        # different tids.
        assert instant["pid"] == counter["pid"] == begin["pid"] == names["serving"]
        assert instant["tid"] != begin["tid"]

    def test_async_pair_keeps_category_and_id(self):
        document = chrome_trace(sample_tracer())
        (begin,) = events_of(document, "b")
        (end,) = events_of(document, "e")
        assert begin["cat"] == end["cat"] == "request"
        assert begin["id"] == end["id"] == 1

    def test_rendering_is_byte_deterministic(self):
        assert chrome_trace_json(sample_tracer()) == chrome_trace_json(sample_tracer())

    def test_write_creates_parents_and_round_trips(self, tmp_path):
        target = write_chrome_trace(sample_tracer(), tmp_path / "deep" / "t.json")
        data = json.loads(target.read_text())
        assert validate_chrome_trace(data) == []


class TestValidateChromeTrace:
    def test_exported_traces_pass(self):
        assert validate_chrome_trace(chrome_trace(sample_tracer())) == []

    def test_non_object_documents_fail(self):
        assert validate_chrome_trace([1, 2]) != []
        assert validate_chrome_trace({"events": []}) != []

    def test_empty_event_list_fails(self):
        (error,) = validate_chrome_trace({"traceEvents": []})
        assert "empty" in error

    def test_unknown_phase_is_reported(self):
        document = chrome_trace(sample_tracer())
        document["traceEvents"][-1]["ph"] = "Z"
        assert any("unknown phase" in e for e in validate_chrome_trace(document))

    def test_span_without_duration_is_reported(self):
        document = chrome_trace(sample_tracer())
        for event in document["traceEvents"]:
            if event["ph"] == "X":
                del event["dur"]
        assert any("dur" in e for e in validate_chrome_trace(document))

    def test_unbalanced_async_pairs_are_reported(self):
        document = chrome_trace(sample_tracer())
        document["traceEvents"] = [
            event for event in document["traceEvents"] if event["ph"] != "e"
        ]
        assert any("never closed" in e for e in validate_chrome_trace(document))

    def test_unnamed_rows_are_reported(self):
        document = chrome_trace(sample_tracer())
        document["traceEvents"] = [
            event for event in document["traceEvents"]
            if not (event["ph"] == "M" and event["name"] == "thread_name")
        ]
        assert any("thread_name" in e for e in validate_chrome_trace(document))

    def test_a_wrong_track_count_is_reported(self):
        document = chrome_trace(sample_tracer())
        document["otherData"]["trackCount"] = 5
        (error,) = validate_chrome_trace(document)
        assert "trackCount is 5" in error and "4 rows" in error

    def test_a_document_without_a_track_count_is_not_checked_for_one(self):
        document = chrome_trace(sample_tracer())
        del document["otherData"]["trackCount"]
        assert validate_chrome_trace(document) == []


# --------------------------------------------------------------------------- #
# The direct writer against a dict-building oracle                             #
# --------------------------------------------------------------------------- #
#: The exporter as a dict builder handed to ``json.dumps``, kept verbatim as
#: the oracle the direct writer must match byte for byte.
_PHASES = {SPAN: "X", INSTANT: "i", COUNTER: "C", ASYNC_BEGIN: "b", ASYNC_END: "e"}


def _split_track(track: str) -> tuple[str, str]:
    if "/" in track:
        process, thread = track.split("/", 1)
        return process, thread
    return "main", track


def oracle_chrome_trace(tracer: Tracer) -> dict:
    events: list[dict] = []
    pids: dict[str, int] = {}
    tids: dict[tuple[str, str], int] = {}
    threads: dict[str, int] = {}
    rows: dict[str, tuple[int, int]] = {}

    def row(track: str) -> tuple[int, int]:
        process, thread = _split_track(track)
        if process not in pids:
            pid = len(pids) + 1
            pids[process] = pid
            threads[process] = 0
            events.append(
                {
                    "name": "process_name", "ph": "M", "pid": pid, "tid": 0,
                    "args": {"name": process},
                }
            )
            events.append(
                {
                    "name": "process_sort_index", "ph": "M", "pid": pid, "tid": 0,
                    "args": {"sort_index": pid},
                }
            )
        pid = pids[process]
        if (process, thread) not in tids:
            tid = threads[process] + 1
            threads[process] = tid
            tids[(process, thread)] = tid
            events.append(
                {
                    "name": "thread_name", "ph": "M", "pid": pid, "tid": tid,
                    "args": {"name": thread},
                }
            )
            events.append(
                {
                    "name": "thread_sort_index", "ph": "M", "pid": pid, "tid": tid,
                    "args": {"sort_index": tid},
                }
            )
        rows[track] = pid, tids[(process, thread)]
        return rows[track]

    for record in tracer.records:
        pid, tid = rows.get(record.track) or row(record.track)
        event: dict = {
            "name": record.name,
            "ph": _PHASES[record.kind],
            "ts": record.ts_ms * 1e3,
            "pid": pid,
            "tid": tid,
        }
        if record.category:
            event["cat"] = record.category
        if record.kind == SPAN:
            event["dur"] = record.dur_ms * 1e3
        elif record.kind == INSTANT:
            event["s"] = "t"  # thread-scoped marker
        elif record.kind in (ASYNC_BEGIN, ASYNC_END):
            event["cat"] = record.category or "async"
            event["id"] = record.correlation
        if record.args:
            event["args"] = dict(record.args)
        events.append(event)

    other: dict = {
        "generator": "repro.obs",
        "trackCount": len(tids),
    }
    metadata = getattr(tracer, "sampling_metadata", None)
    if metadata is not None:
        other["sampling"] = dict(metadata())

    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": other,
    }


#: Characters JSON must escape, or that ASCII output must escape.
_AWKWARD = st.sampled_from(['"', "\\", "/", "\n", "\t", "\x00", "\x1f", "\x7f",
                            "é", "\u2028", "😀", "\ud800"])
_text = st.text(st.one_of(_AWKWARD, st.characters()), max_size=6)
_track = st.one_of(
    # "bare" and "main/bare" are two spellings of one row.
    st.sampled_from(
        ["serving/requests", "worker 0 (v100)/stream 1", "bare", "main/bare", "a/b/c"]
    ),
    _text,
)
_time = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([-0.0, 0.0, 1e-7, 123.456]),
    st.integers(-10**6, 10**6),
)
_leaf = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(min_value=2**64),
    st.floats(allow_nan=True, allow_infinity=True), _text,
)
_json_value = st.recursive(
    _leaf,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3), st.dictionaries(_text, inner, max_size=3),
    ),
    max_leaves=8,
)
_args = st.dictionaries(_text, _json_value, max_size=4)
_category = st.one_of(st.just(""), _text)
_correlation = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(min_value=2**63),
)
_record = st.tuples(
    st.sampled_from(["span", "instant", "counter", "async_begin", "async_end"]),
    _text, _track, _time, _time, _category, _correlation,
    # An index into a pool of args mappings, so records share some of them;
    # ``None`` records no args.
    st.one_of(st.none(), st.integers(0, 3)),
)


def _fill(tracer: Tracer, records, pool) -> Tracer:
    for kind, name, track, ts, end, category, correlation, pick in records:
        args = None if pick is None else pool[pick % len(pool)]
        if kind == "span":
            tracer.add_span(name, track, ts, end, category=category, args=args)
        elif kind == "instant":
            tracer.instant(name, track, ts, category=category, args=args)
        elif kind == "counter":
            values = {key: value for key, value in (args or {}).items()
                      if isinstance(value, float)}
            tracer.counter(name, track, ts, values)
        elif kind == "async_begin":
            tracer.async_begin(name, track, correlation, ts, category=category, args=args)
        else:
            tracer.async_end(name, track, correlation, ts, category=category, args=args)
    return tracer


@settings(max_examples=100, deadline=None)
@given(
    st.lists(_record, max_size=15),
    st.lists(_args, min_size=1, max_size=4),
    st.booleans(),
)
def test_the_writer_matches_the_dict_building_oracle(records, pool, sampled):
    if sampled:
        # Request lifecycles need matched begin/end pairs; these records are
        # arbitrary, so the sampler sees them on its track reservoirs only.
        records = [record for record in records if record[5] != "request"]
        tracer = SamplingTracer(SamplingConfig(track_budget=2))
    else:
        tracer = Tracer()
    _fill(tracer, records, pool)
    text = chrome_trace_json(tracer)
    assert text == json.dumps(oracle_chrome_trace(tracer), sort_keys=True)
    with tempfile.TemporaryDirectory() as directory:
        target = write_chrome_trace(tracer, Path(directory) / "trace.json")
        assert target.read_bytes() == (text + "\n").encode("ascii")


def test_chrome_trace_is_the_parsed_json():
    tracer = sample_tracer()
    tracer.add_span("nan", "main", math.nan, math.inf, args={"x": -math.inf})
    document = chrome_trace(tracer)
    assert json.dumps(document, sort_keys=True) == chrome_trace_json(tracer)
    assert json.dumps(oracle_chrome_trace(tracer), sort_keys=True) == chrome_trace_json(
        tracer
    )


# --------------------------------------------------------------------------- #
# Event blocks: byte identity at every block boundary                         #
# --------------------------------------------------------------------------- #
def _kernel_spans(tracer: Tracer, count: int) -> Tracer:
    """``count`` spans; span ``i`` opens a new row when ``i`` is a power of two.

    New rows add their metadata events mid-trace, so some blocks mix both.
    """
    for index in range(count):
        tracer.add_span(
            f"kernel {index}", f"worker {index.bit_length()}/stream 0",
            index * 0.5, index * 0.5 + 0.25, category="kernel",
            args={"parity": index % 2},
        )
    return tracer


def assert_same_text(text: str, expected: str) -> None:
    """Byte identity, reported at the first difference.

    pytest's own diff of two long, nearly equal texts takes minutes.
    """
    if text != expected:
        at = len(os.path.commonprefix([text, expected]))
        raise AssertionError(
            f"texts differ at offset {at}: "
            f"{text[at - 40:at + 40]!r} != {expected[at - 40:at + 40]!r}"
        )


@pytest.mark.parametrize("sampled", [False, True], ids=["plain", "sampling"])
@pytest.mark.parametrize("block", [export._BLOCK_EVENTS, 3])
@pytest.mark.parametrize(
    "blocks, extra", [(0, 0), (0, 1), (1, -1), (1, 0), (1, 1), (2, 1)],
    ids=["0", "1", "B-1", "B", "B+1", "2B+1"],
)
def test_block_boundaries_keep_the_bytes(blocks, extra, block, sampled, monkeypatch,
                                         tmp_path):
    monkeypatch.setattr(export, "_BLOCK_EVENTS", block)
    count = blocks * block + extra
    # The default track budget keeps every span of these traces.
    tracer = _kernel_spans(SamplingTracer() if sampled else Tracer(), count)
    text = chrome_trace_json(tracer)
    assert_same_text(text, json.dumps(oracle_chrome_trace(tracer), sort_keys=True))
    events = json.loads(text)["traceEvents"]
    assert sum(event["ph"] != "M" for event in events) == count
    target = write_chrome_trace(tracer, tmp_path / "trace.json")
    assert_same_text(target.read_text(encoding="ascii"), text + "\n")
