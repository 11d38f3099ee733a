"""End-to-end serving integration test (the PR's acceptance scenario).

A synthetic traffic generator pushes several hundred requests with mixed
batch-size demand through the full pipeline — dynamic batcher → persistent
schedule registry → simulated worker pool — and the run must report
per-request latency and aggregate throughput.  A second run over the same
registry directory must perform **zero** scheduler searches: every schedule
comes back from disk.
"""

from __future__ import annotations

import pytest

from repro.serve import (
    BatchPolicy,
    InferenceService,
    ScheduleRegistry,
    ServingConfig,
    TrafficConfig,
    TrafficGenerator,
    run_serving,
)

MODEL = "squeezenet"
BATCH_SIZES = (1, 2, 4, 8)


def serving_config(registry_root=None) -> ServingConfig:
    return ServingConfig(
        model=MODEL,
        devices=("v100", "v100"),
        batch_sizes=BATCH_SIZES,
        policy=BatchPolicy(max_batch_size=8, max_wait_ms=4.0),
        registry_root=str(registry_root) if registry_root else None,
    )


def traffic_config() -> TrafficConfig:
    # Mixed batch-size demand: mostly single images, some 2- and 4-image
    # requests, arriving fast enough that real batches form.
    return TrafficConfig(
        model=MODEL, pattern="poisson", num_requests=250, rate_rps=800.0,
        sample_sizes=(1, 2, 4), sample_weights=(0.6, 0.25, 0.15), seed=42,
    )


class TestServingEndToEnd:
    def test_200_plus_requests_flow_through_the_whole_pipeline(self, tmp_path):
        requests = TrafficGenerator(traffic_config()).generate()
        assert len(requests) >= 200
        assert {r.num_samples for r in requests} == {1, 2, 4}

        service = InferenceService(serving_config(tmp_path))
        report = service.run(requests)

        # Every request got an answer with a full latency decomposition.
        assert report.num_requests == len(requests)
        assert len(report.records) == len(requests)
        for record in report.records:
            assert record.latency_ms > 0
            assert record.queue_delay_ms >= 0
            assert record.executed_batch_size in BATCH_SIZES
            assert record.completion_ms > record.request.arrival_ms

        # Aggregate throughput and latency are reported and sane.
        assert report.throughput_rps > 0
        assert report.throughput_samples_per_s >= report.throughput_rps
        assert report.latency.p50_ms <= report.latency.p95_ms <= report.latency.max_ms
        assert report.makespan_ms > 0

        # Dynamic batching actually batched: far fewer executions than
        # requests, and multi-sample batches dominated.
        assert report.num_batches < len(requests) / 2
        assert report.mean_batch_occupancy > 1.5

        # Cold run: the registry compiled one schedule per rung per device
        # at most, not one per batch.
        assert 0 < service.registry.stats.searches <= len(BATCH_SIZES) * 2

    def test_second_run_performs_zero_scheduler_searches(self, tmp_path):
        requests = TrafficGenerator(traffic_config()).generate()

        cold = InferenceService(serving_config(tmp_path))
        cold_report = cold.run(requests)
        assert cold.registry.stats.searches > 0

        warm = InferenceService(serving_config(tmp_path))
        warm_report = warm.run(requests)
        assert warm.registry.stats.searches == 0, (
            "second run must reuse every persisted schedule"
        )
        assert warm.registry.stats.disk_hits == cold.registry.stats.searches

        # Identical workload + deterministic simulation ⇒ identical service.
        assert warm_report.throughput_rps == pytest.approx(cold_report.throughput_rps)
        assert warm_report.latency.p95_ms == pytest.approx(cold_report.latency.p95_ms)

    def test_registry_layout_is_stable_json(self, tmp_path):
        service = InferenceService(serving_config(tmp_path))
        service.warmup()
        files = sorted(p.name for p in (tmp_path / MODEL).glob("*.json"))
        # Every persisted name embeds the kernel profile and the fingerprint
        # of the graph it was searched for
        # (device__profile__variant__bs<batch>__<fingerprint>.json).
        expected = sorted(
            f"v100__cudnn__ios-both__bs{bs}__"
            f"{service.registry.graph_for(MODEL, bs).fingerprint()}.json"
            for bs in BATCH_SIZES
        )
        assert files == expected
        for bs in BATCH_SIZES:
            assert service.registry.path_for(MODEL, bs, "v100").name in files

    def test_run_serving_harness_round_trip(self, tmp_path):
        report = run_serving(
            traffic_config(), serving_config(tmp_path),
            registry=ScheduleRegistry(root=tmp_path),
        )
        assert report.num_requests == 250
        text = report.describe()
        assert "throughput" in text and "latency" in text
