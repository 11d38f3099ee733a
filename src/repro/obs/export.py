"""Exporters: Chrome-trace/Perfetto JSON and the trace schema checker.

:func:`chrome_trace_json` renders a :class:`~repro.obs.trace.Tracer`'s
records in the Chrome trace-event format (the JSON ``ui.perfetto.dev`` and
``chrome://tracing`` load directly):

* each ``"process/thread"`` track becomes one row — processes and threads are
  named via metadata events and ordered by first appearance, so a trace lays
  out as *compile*, *serving*, then one process per worker;
* complete spans are ``"X"`` events, instants ``"i"``, counters ``"C"``, and
  request lifecycles async ``"b"``/``"e"`` pairs correlated by id;
* timestamps convert from the tracer's milliseconds to the format's
  microseconds.

The rendering is deterministic: given the same records the emitted JSON is
byte-identical (keys sorted, insertion-ordered events, no wall-clock stamped
at export time).  It is the text ``json.dumps(document, sort_keys=True)``
would give for the document, but written record by record from one
template per kind, so a large trace never exists as a tree of dicts.
:func:`validate_chrome_trace` is the matching schema check used by
``tools/check_trace.py`` and the CI trace-smoke job.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii as _string
from pathlib import Path

from .trace import ASYNC_BEGIN, ASYNC_END, COUNTER, INSTANT, SPAN, Tracer

__all__ = [
    "chrome_trace",
    "chrome_trace_json",
    "validate_chrome_trace",
    "write_chrome_trace",
]

#: Default process (Perfetto row group) for tracks written without a "/".
DEFAULT_PROCESS = "main"

#: Chrome-trace phase of each async record kind.
_ASYNC_PHASES = {ASYNC_BEGIN: "b", ASYNC_END: "e"}

#: Events joined into one chunk as rendering goes: one ``str`` per event
#: would keep tens of thousands of small objects alive until the final join.
_BLOCK_EVENTS = 1024

_INF = float("inf")
_float_repr = float.__repr__
_int_repr = int.__repr__


def _split_track(track: str) -> tuple[str, str]:
    """``"process/thread"`` → (process, thread); bare names join DEFAULT_PROCESS."""
    if "/" in track:
        process, thread = track.split("/", 1)
        return process, thread
    return DEFAULT_PROCESS, track


def _text(value) -> str:
    """JSON text of a string, int or finite float, else ``json``'s own rendering."""
    cls = value.__class__
    if cls is str:
        return _string(value)
    if cls is float and -_INF < value < _INF:
        return _float_repr(value)
    if cls is int:
        return _int_repr(value)
    return json.dumps(value)


def _chunks(tracer: Tracer) -> list[str]:
    """The trace document's JSON text, as chunks to join or write in order.

    Each event is written straight from its record, with its keys in sorted
    order, and every run of :data:`_BLOCK_EVENTS` events is joined into one
    chunk.  Every event but the first starts with the list separator; an args
    mapping is rendered once however many records share it.
    """
    chunks = [""]  # the document head, written once the track count is known
    block: list[str] = []  # the events rendered since the last chunk
    append = block.append
    pids: dict[str, int] = {}
    tids: dict[tuple[str, str], int] = {}
    #: Threads named so far per process (the next thread's tid is one more).
    threads: dict[str, int] = {}
    #: Track → its ``"pid": P`` and ``"tid": T`` texts, resolved once.
    rows: dict[str, tuple[str, str]] = {}
    #: id(args mapping) → its ``"args": {...}, `` text.  The records keep every
    #: mapping alive while they are rendered, so no id is reused meanwhile.
    rendered_args: dict[int, str] = {}

    def row(track: str) -> tuple[str, str]:
        process, thread = _split_track(track)
        if process not in pids:
            pid = len(pids) + 1
            pids[process] = pid
            threads[process] = 0
            append(
                f', {{"args": {{"name": {_text(process)}}}, "name": "process_name", '
                f'"ph": "M", "pid": {pid}, "tid": 0}}'
            )
            append(
                f', {{"args": {{"sort_index": {pid}}}, "name": "process_sort_index", '
                f'"ph": "M", "pid": {pid}, "tid": 0}}'
            )
        pid = pids[process]
        if (process, thread) not in tids:
            tid = threads[process] + 1
            threads[process] = tid
            tids[(process, thread)] = tid
            append(
                f', {{"args": {{"name": {_text(thread)}}}, "name": "thread_name", '
                f'"ph": "M", "pid": {pid}, "tid": {tid}}}'
            )
            append(
                f', {{"args": {{"sort_index": {tid}}}, "name": "thread_sort_index", '
                f'"ph": "M", "pid": {pid}, "tid": {tid}}}'
            )
        rows[track] = f'"pid": {pid}', f'"tid": {tids[(process, thread)]}'
        return rows[track]

    for kind, name, track, ts_ms, dur_ms, category, correlation, args in tracer.records:
        pid, tid = rows.get(track) or row(track)
        head = ""
        if args:
            head = rendered_args.get(id(args))
            if head is None:
                head = f'"args": {json.dumps(dict(args), sort_keys=True)}, '
                rendered_args[id(args)] = head
        if category and kind != ASYNC_BEGIN and kind != ASYNC_END:
            head += f'"cat": {_text(category)}, '
        name = _text(name)
        ts = _text(ts_ms * 1e3)
        if kind == SPAN:
            append(
                f', {{{head}"dur": {_text(dur_ms * 1e3)}, "name": {name}, '
                f'"ph": "X", {pid}, {tid}, "ts": {ts}}}'
            )
        elif kind == INSTANT:
            append(
                f', {{{head}"name": {name}, "ph": "i", {pid}, "s": "t", '
                f'{tid}, "ts": {ts}}}'
            )
        elif kind == COUNTER:
            append(f', {{{head}"name": {name}, "ph": "C", {pid}, {tid}, "ts": {ts}}}')
        else:
            append(
                f', {{{head}"cat": {_text(category or "async")}, '
                f'"id": {_text(correlation)}, "name": {name}, '
                f'"ph": "{_ASYNC_PHASES[kind]}", {pid}, {tid}, "ts": {ts}}}'
            )
        if len(block) >= _BLOCK_EVENTS:
            chunks.append("".join(block))
            block.clear()
    if block:
        chunks.append("".join(block))

    other: dict = {
        "generator": "repro.obs",
        "trackCount": len(tids),
    }
    # A sampling tracer reports what it kept/dropped; embed that so
    # ``ios-bench trace`` can summarise a sampled trace honestly.
    metadata = getattr(tracer, "sampling_metadata", None)
    if metadata is not None:
        other["sampling"] = dict(metadata())
    chunks[0] = (
        f'{{"displayTimeUnit": "ms", "otherData": {json.dumps(other, sort_keys=True)}, '
        f'"traceEvents": ['
    )
    if len(chunks) > 1:
        chunks[1] = chunks[1][2:]  # the first event has no separator
    chunks.append("]}")
    return chunks


def chrome_trace_json(tracer: Tracer) -> str:
    """The tracer's records as a byte-deterministic Chrome-trace JSON text."""
    return "".join(_chunks(tracer))


def chrome_trace(tracer: Tracer) -> dict:
    """The Chrome trace-event document of :func:`chrome_trace_json`, parsed."""
    return json.loads(chrome_trace_json(tracer))


def write_chrome_trace(tracer: Tracer, path) -> Path:
    """Write the trace JSON and a newline to ``path`` (parent directories created)."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    with target.open("w", encoding="ascii") as handle:
        handle.writelines(_chunks(tracer))
        handle.write("\n")
    return target


# --------------------------------------------------------------------------- #
# Schema validation                                                            #
# --------------------------------------------------------------------------- #
#: Phases this exporter can emit; anything else in a trace is a schema error.
_KNOWN_PHASES = {"X", "i", "C", "b", "e", "M"}

_REQUIRED_FIELDS = ("name", "ph", "pid", "tid")


def validate_chrome_trace(data: object) -> list[str]:
    """Schema-check a Chrome trace document; returns a list of problems.

    An empty list means the document is loadable by Perfetto as far as this
    exporter's contract goes: a ``traceEvents`` list whose events carry the
    required fields, known phases, non-negative durations, and whose every
    (pid, tid) row is named by metadata events.  Used by
    ``tools/check_trace.py`` and the ``ios-bench trace`` subcommand.
    """
    errors: list[str] = []
    if not isinstance(data, dict):
        return [f"trace document must be a JSON object, got {type(data).__name__}"]
    events = data.get("traceEvents")
    if not isinstance(events, list):
        return ["trace document must carry a 'traceEvents' list"]
    if not events:
        errors.append("'traceEvents' is empty — nothing was traced")

    named_rows: set[tuple[int, int]] = set()
    named_processes: set[int] = set()
    used_rows: set[tuple[int, int]] = set()
    open_async: dict[tuple[str, object], int] = {}
    for index, event in enumerate(events):
        where = f"traceEvents[{index}]"
        if not isinstance(event, dict):
            errors.append(f"{where}: event must be an object")
            continue
        missing = [key for key in _REQUIRED_FIELDS if key not in event]
        if missing:
            errors.append(f"{where}: missing fields {missing}")
            continue
        phase = event["ph"]
        if phase not in _KNOWN_PHASES:
            errors.append(f"{where}: unknown phase {phase!r}")
            continue
        if phase == "M":
            if event["name"] == "process_name":
                named_processes.add(event["pid"])
            elif event["name"] == "thread_name":
                named_rows.add((event["pid"], event["tid"]))
            continue
        if "ts" not in event:
            errors.append(f"{where}: non-metadata event missing 'ts'")
            continue
        if not isinstance(event["ts"], (int, float)) or event["ts"] < 0:
            errors.append(f"{where}: 'ts' must be a non-negative number")
        used_rows.add((event["pid"], event["tid"]))
        if phase == "X":
            duration = event.get("dur")
            if not isinstance(duration, (int, float)) or duration < 0:
                errors.append(f"{where}: complete span needs a non-negative 'dur'")
        elif phase in ("b", "e"):
            if "id" not in event:
                errors.append(f"{where}: async event missing 'id'")
                continue
            key = (event.get("cat", ""), event["id"], event["name"])
            if phase == "b":
                open_async[key] = open_async.get(key, 0) + 1
            else:
                if open_async.get(key, 0) <= 0:
                    errors.append(
                        f"{where}: async end without a matching begin "
                        f"(cat={key[0]!r}, id={key[1]!r}, name={key[2]!r})"
                    )
                else:
                    open_async[key] -= 1

    for key, still_open in sorted(open_async.items(), key=str):
        if still_open:
            errors.append(
                f"async span never closed (cat={key[0]!r}, id={key[1]!r}, "
                f"name={key[2]!r})"
            )
    for pid, tid in sorted(used_rows):
        if (pid, tid) not in named_rows:
            errors.append(f"row (pid={pid}, tid={tid}) carries events but no thread_name")
        if pid not in named_processes:
            errors.append(f"process {pid} carries events but no process_name")
    return errors
