"""End-to-end observability: trace determinism, report equivalence, content.

The acceptance bar of the observability layer:

* the same seed and config produce a **byte-identical** trace JSON (the
  serving side runs on the virtual clock; the compile side gets a
  deterministic injected clock);
* a traced run's :meth:`~repro.serve.metrics.ServingReport.describe` is
  byte-identical to the untraced same-seed run — tracing observes, never
  perturbs;
* the trace passes the exporter's schema validation and actually contains
  compile-stage spans, per-request lifecycle pairs and kernel-level child
  events on per-worker tracks.
"""

from __future__ import annotations

import json

from repro.models import chain_graph
from repro.obs import Tracer, chrome_trace_json, validate_chrome_trace
from repro.serve import (
    BatchPolicy,
    InferenceService,
    ScheduleRegistry,
    ServingConfig,
    TrafficConfig,
    TrafficGenerator,
)


def ticking_clock(step: float = 0.25):
    """Deterministic wall clock for the compile-side spans."""
    state = {"now": 0.0}

    def clock() -> float:
        state["now"] += step
        return state["now"]

    return clock


def scenario_requests():
    """A fixed seeded deadline-carrying workload (virtual-clock arrivals)."""
    return TrafficGenerator(
        TrafficConfig(
            model="toy", pattern="bursty", num_requests=30, rate_rps=2000.0,
            burst_size=8, burst_gap_ms=10.0, sample_sizes=(1, 2),
            sample_weights=(0.6, 0.4), slo_ms=25.0, seed=3,
        )
    ).generate()


def traced_service(tracer: Tracer | None) -> InferenceService:
    """A fresh mixed-fleet deadline-admission service (no shared caches)."""
    registry = ScheduleRegistry(
        graph_builder=lambda model, bs: chain_graph(length=3, batch_size=bs)
    )
    config = ServingConfig(
        model="toy", devices=("v100", "k80"), batch_sizes=(1, 2, 4),
        policy=BatchPolicy(max_batch_size=4, max_wait_ms=2.0),
        admission="deadline",
    )
    return InferenceService(config, registry=registry, tracer=tracer)


def run_traced() -> Tracer:
    tracer = Tracer(clock=ticking_clock())
    traced_service(tracer).run(scenario_requests())
    return tracer


class TestTraceDeterminism:
    def test_same_seed_and_config_trace_is_byte_identical(self):
        assert chrome_trace_json(run_traced()) == chrome_trace_json(run_traced())

    def test_traced_report_equals_the_untraced_one(self):
        traced = traced_service(Tracer(clock=ticking_clock()))
        untraced = traced_service(None)
        traced_report = traced.run(scenario_requests())
        untraced_report = untraced.run(scenario_requests())
        assert traced_report.describe() == untraced_report.describe()


class TestTraceContent:
    def test_trace_passes_schema_validation(self):
        tracer = run_traced()
        document = json.loads(chrome_trace_json(tracer))
        assert validate_chrome_trace(document) == []

    def test_compile_requests_and_kernels_all_appear(self):
        tracer = run_traced()
        tracks = tracer.tracks()
        assert "compile/stages" in tracks
        assert "serving/requests" in tracks
        stage_names = {span.name for span in tracer.spans("compile/stages")}
        assert {"schedule", "lower"} <= stage_names
        # Kernel child events land on per-worker stream tracks.
        stream_tracks = [
            track for track in tracks
            if track.startswith("worker ") and "/stream " in track
        ]
        assert stream_tracks
        kernel_spans = [
            span for track in stream_tracks for span in tracer.spans(track)
        ]
        assert kernel_spans
        assert all(span.category == "kernel" for span in kernel_spans)

    def test_request_lifecycles_open_and_close_once_each(self):
        tracer = run_traced()
        begins = [
            r for r in tracer.records
            if r.kind == "async_begin" and r.category == "request"
            and r.name.startswith("request ")
        ]
        ends = [
            r for r in tracer.records
            if r.kind == "async_end" and r.category == "request"
            and r.name.startswith("request ")
        ]
        assert len(begins) == len(scenario_requests())
        assert sorted(r.correlation for r in begins) == sorted(
            r.correlation for r in ends
        )


class TestReportMetrics:
    def test_report_tallies_come_from_the_registry(self):
        report = traced_service(None).run(scenario_requests())
        metrics = report.metrics
        assert metrics is not None
        executions = metrics.get("serve.executions")
        assert report.num_batches == int(executions.total())
        assert report.batch_size_counts == {
            int(size): int(count)
            for size, count in executions.by_label("batch_size").items()
        }

    def test_worker_and_group_utilization_share_one_series(self):
        # The drift bug: per-worker and per-group utilisation used to be
        # computed from separate tallies.  Both now read the same
        # busy/lifetime gauges, so the per-device sums must agree exactly.
        report = traced_service(None).run(scenario_requests())
        busy_by_device: dict[str, float] = {}
        for row in report.worker_summary:
            busy_by_device[row["device"]] = (
                busy_by_device.get(row["device"], 0.0) + row["busy_ms"]
            )
        for group in report.device_summary:
            assert group["busy_ms"] == busy_by_device[group["device"]]
