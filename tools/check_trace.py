#!/usr/bin/env python
"""Validate an ``ios-bench serve --trace`` JSON and assert its content.

Beyond the schema check (:func:`repro.obs.validate_chrome_trace` — required
fields, known phases, balanced async pairs, named rows), the CI trace-smoke
job asserts the trace actually contains what the observability layer
promises.  Each ``--require`` adds one content check:

* ``compile``  — compile-stage spans (category ``compile``);
* ``requests`` — per-request lifecycle async pairs (category ``request``);
* ``kernels``  — kernel-level spans on per-worker stream tracks
  (category ``kernel``);
* ``counters`` — queue-depth counter samples;
* ``alerts``   — alert-transition instants (category ``alert``) as emitted
  when the serving loop runs with alert rules attached;
* ``hosts``    — per-host track groups (process names starting with
  ``host``) plus inter-host send/recv transfer spans (category
  ``transfer``), as emitted by ``ios-bench serve --cluster N --trace``;
* ``sampling`` — a sampled trace's metadata (``otherData.sampling``) agrees
  with its events: ``records.kept`` equals the number of non-metadata events
  and ``records.peak_retained`` is at least ``records.kept``, as emitted by
  ``ios-bench serve --trace-sample``.

Run from the repo root::

    PYTHONPATH=src python tools/check_trace.py trace.json
    PYTHONPATH=src python tools/check_trace.py trace.json \
        --require compile --require requests --require kernels

Exit status 0 when everything passes, 1 otherwise, one line per failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.obs import validate_chrome_trace  # noqa: E402


def _spans_with_category(events: list[dict], category: str) -> int:
    return sum(
        1 for event in events if event["ph"] == "X" and event.get("cat") == category
    )


def _sampling_errors(data: dict) -> list[str]:
    """The sampler's kept/peak counts must agree with the exported events."""
    other = data.get("otherData")
    sampling = other.get("sampling") if isinstance(other, dict) else None
    if not isinstance(sampling, dict):
        return ["no sampling metadata (otherData.sampling)"]
    records = sampling.get("records", {})
    kept, peak = records.get("kept"), records.get("peak_retained")
    events = sum(1 for event in data["traceEvents"] if event["ph"] != "M")
    errors = []
    if kept != events:
        errors.append(
            f"sampling metadata says {kept} records kept; the trace has {events} events"
        )
    if not isinstance(peak, int) or not isinstance(kept, int) or peak < kept:
        errors.append(f"sampling peak_retained {peak} is below records kept {kept}")
    return errors


def _content_errors(data: dict, requirements: list[str]) -> list[str]:
    """Check each ``--require`` keyword against the trace document."""
    events = data["traceEvents"]
    errors: list[str] = []
    for requirement in requirements:
        if requirement == "compile":
            if not _spans_with_category(events, "compile"):
                errors.append("no compile-stage spans (category 'compile')")
        elif requirement == "requests":
            begins = sum(
                1 for event in events
                if event["ph"] == "b" and event.get("cat") == "request"
            )
            if not begins:
                errors.append("no per-request lifecycle pairs (category 'request')")
        elif requirement == "kernels":
            if not _spans_with_category(events, "kernel"):
                errors.append("no kernel-level spans (category 'kernel')")
        elif requirement == "counters":
            if not any(event["ph"] == "C" for event in events):
                errors.append("no counter samples")
        elif requirement == "alerts":
            instants = sum(
                1 for event in events
                if event["ph"] == "i" and event.get("cat") == "alert"
            )
            if not instants:
                errors.append("no alert-transition instants (category 'alert')")
        elif requirement == "hosts":
            host_processes = sum(
                1 for event in events
                if event["ph"] == "M" and event["name"] == "process_name"
                and str(event.get("args", {}).get("name", "")).startswith("host")
            )
            if not host_processes:
                errors.append("no per-host track groups (process 'host*')")
            if not _spans_with_category(events, "transfer"):
                errors.append("no inter-host transfer spans (category 'transfer')")
        elif requirement == "sampling":
            errors.extend(_sampling_errors(data))
    return errors


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("path", help="trace JSON file to check")
    parser.add_argument(
        "--require",
        action="append",
        default=[],
        choices=[
            "compile", "requests", "kernels", "counters", "alerts", "hosts", "sampling",
        ],
        help="content the trace must contain (repeatable)",
    )
    args = parser.parse_args(argv)

    try:
        data = json.loads(Path(args.path).read_text())
    except OSError as error:
        print(f"error: cannot read {args.path}: {error}", file=sys.stderr)
        return 1
    except json.JSONDecodeError as error:
        print(f"error: {args.path} is not valid JSON: {error}", file=sys.stderr)
        return 1

    errors = validate_chrome_trace(data)
    if not errors:
        errors = _content_errors(data, args.require)
    if errors:
        print(f"{args.path}: FAILED ({len(errors)} problem(s))")
        for problem in errors:
            print(f"  - {problem}")
        return 1
    checked = f" + content ({', '.join(args.require)})" if args.require else ""
    print(f"{args.path}: OK — schema{checked}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
