"""Pinned Chrome-trace export of a sampled overload replay.

The serving side of a trace runs on the virtual clock and the compile spans
read an injected ticking clock, so the exported JSON of a seeded run is
byte-reproducible.  This pins it: the sampler's retained set and its
metadata, the exporter's row numbering and event order, every argument.
The budgets are tight enough that lifecycle eviction and track-reservoir
halving both fire, on a pool that autoscales to several workers' tracks.

When a change is *meant* to alter the exported trace, recompute the digest
with ``PYTHONPATH=src python tests/obs/test_trace_digest.py`` and say why in
the change.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
from pathlib import Path

import pytest

from repro.obs import (
    SamplingConfig,
    SamplingTracer,
    chrome_trace_json,
    default_alert_rules,
    validate_chrome_trace,
)
from repro.serve import (
    BatchPolicy,
    InferenceService,
    ServingConfig,
    TrafficConfig,
    TrafficGenerator,
)

DIGEST = "a20b77bbf081f226f05e1d11285ccc50e5b8ca0ba8fe445cf9115e78b6bbbcaa"

SAMPLING = SamplingConfig(max_records=1500, head_every=10, track_budget=64)


def ticking_clock(step: float = 0.25):
    """Deterministic wall clock for the compile-side spans."""
    state = {"now": 0.0}

    def clock() -> float:
        state["now"] += step
        return state["now"]

    return clock


def sampled_overload_trace() -> SamplingTracer:
    """Bursty priority overload on an elastic k80 pool, traced and sampled."""
    tracer = SamplingTracer(SAMPLING, clock=ticking_clock())
    service = InferenceService(
        ServingConfig(
            model="squeezenet", devices=("k80",), batch_sizes=(1, 2, 4, 8),
            policy=BatchPolicy(max_batch_size=8, max_wait_ms=2.0),
            admission="priority", autoscale="1:4",
        ),
        tracer=tracer, alerts=default_alert_rules(slo_ms=20.0), window_ms=20.0,
    )
    service.run(TrafficGenerator(TrafficConfig(
        model="squeezenet", pattern="bursty", num_requests=600, burst_size=64,
        burst_gap_ms=30.0, priorities=(0, 1, 2), priority_weights=(0.2, 0.3, 0.5),
        slo_ms=20.0, seed=3,
    )).generate())
    return tracer


@pytest.fixture(scope="module")
def traced() -> tuple[SamplingTracer, str]:
    tracer = sampled_overload_trace()
    return tracer, chrome_trace_json(tracer)


def test_exported_trace_matches_its_pinned_digest(traced):
    _, exported = traced
    assert hashlib.sha256(exported.encode()).hexdigest() == DIGEST


def test_the_pinned_run_evicts_halves_and_validates(traced):
    tracer, exported = traced
    document = json.loads(exported)
    assert validate_chrome_trace(document) == []
    sampling = document["otherData"]["sampling"]
    assert sampling["requests"]["dropped"] > 0
    track_dropped = sum(reservoir.dropped for reservoir in tracer._tracks.values())
    assert track_dropped > 0
    events = [event for event in document["traceEvents"] if event["ph"] != "M"]
    assert sampling["records"]["kept"] == len(events) == len(tracer)


def test_check_trace_accepts_the_sampling_metadata(traced, tmp_path, capsys):
    spec = importlib.util.spec_from_file_location(
        "check_trace", Path(__file__).resolve().parents[2] / "tools" / "check_trace.py"
    )
    check_trace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(check_trace)
    _, exported = traced
    good = tmp_path / "sampled.json"
    good.write_text(exported)
    assert check_trace.main([str(good), "--require", "sampling"]) == 0

    document = json.loads(exported)
    document["otherData"]["sampling"]["records"]["kept"] += 1
    bad = tmp_path / "miscounted.json"
    bad.write_text(json.dumps(document))
    assert check_trace.main([str(bad), "--require", "sampling"]) == 1
    assert "records kept; the trace has" in capsys.readouterr().out


if __name__ == "__main__":  # pragma: no cover - digest refresh helper
    exported = chrome_trace_json(sampled_overload_trace())
    print(f'DIGEST = "{hashlib.sha256(exported.encode()).hexdigest()}"')
