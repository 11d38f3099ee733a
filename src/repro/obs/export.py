"""Exporters: Chrome-trace/Perfetto JSON and the trace schema checker.

:func:`chrome_trace` renders a :class:`~repro.obs.trace.Tracer`'s records in
the Chrome trace-event format (the JSON ``ui.perfetto.dev`` and
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
at export time).  :func:`validate_chrome_trace` is the matching schema check
used by ``tools/check_trace.py`` and the CI trace-smoke job.
"""

from __future__ import annotations

import json
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

#: Chrome-trace phase per record kind.
_PHASES = {SPAN: "X", INSTANT: "i", COUNTER: "C", ASYNC_BEGIN: "b", ASYNC_END: "e"}


def _split_track(track: str) -> tuple[str, str]:
    """``"process/thread"`` → (process, thread); bare names join DEFAULT_PROCESS."""
    if "/" in track:
        process, thread = track.split("/", 1)
        return process, thread
    return DEFAULT_PROCESS, track


def chrome_trace(tracer: Tracer) -> dict:
    """Render the tracer's records as a Chrome trace-event document."""
    events: list[dict] = []
    pids: dict[str, int] = {}
    tids: dict[tuple[str, str], int] = {}
    #: Threads named so far per process (the next thread's tid is one more).
    threads: dict[str, int] = {}
    #: Track → (pid, tid), resolved once per distinct track.
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
    # A sampling tracer reports what it kept/dropped; embed that so
    # ``ios-bench trace`` can summarise a sampled trace honestly.
    metadata = getattr(tracer, "sampling_metadata", None)
    if metadata is not None:
        other["sampling"] = dict(metadata())

    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": other,
    }


def chrome_trace_json(tracer: Tracer, indent: int | None = None) -> str:
    """Byte-deterministic JSON rendering of :func:`chrome_trace`."""
    return json.dumps(chrome_trace(tracer), indent=indent, sort_keys=True)


def write_chrome_trace(tracer: Tracer, path) -> Path:
    """Write the trace JSON to ``path`` (parent directories created)."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(chrome_trace_json(tracer) + "\n")
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
