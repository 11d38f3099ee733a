"""Tests for the inference service composition root."""

from __future__ import annotations

import pytest

from repro.hardware import get_device
from repro.models import chain_graph
from repro.obs import Tracer
from repro.runtime.executor import Executor
from repro.serve import (
    AutoscaleConfig,
    BatchPolicy,
    InferenceRequest,
    InferenceService,
    ScheduleRegistry,
    ServingConfig,
    TrafficConfig,
    TrafficGenerator,
)


def toy_registry(root=None):
    return ScheduleRegistry(
        root=root, graph_builder=lambda model, bs: chain_graph(length=3, batch_size=bs)
    )


def toy_service(root=None, **overrides) -> InferenceService:
    overrides.setdefault("model", "toy")
    overrides.setdefault("devices", ("v100",))
    overrides.setdefault("batch_sizes", (1, 2, 4))
    overrides.setdefault("policy", BatchPolicy(max_batch_size=4, max_wait_ms=2.0))
    return InferenceService(ServingConfig(**overrides), registry=toy_registry(root))


def requests_for(count: int, gap_ms: float = 0.5, model: str = "toy",
                 num_samples: int = 1) -> list[InferenceRequest]:
    return [
        InferenceRequest(request_id=i, model=model, arrival_ms=i * gap_ms,
                         num_samples=num_samples)
        for i in range(count)
    ]


class TestInferenceService:
    def test_every_request_is_answered_exactly_once(self):
        service = toy_service()
        report = service.run(requests_for(50))
        assert report.num_requests == 50
        assert sorted(r.request.request_id for r in report.records) == list(range(50))

    def test_latency_decomposition_is_consistent(self):
        service = toy_service()
        report = service.run(requests_for(30))
        for record in report.records:
            assert record.completion_ms >= record.dispatch_ms >= record.batched_ms
            assert record.batched_ms >= record.request.arrival_ms
            assert record.latency_ms == pytest.approx(
                record.queue_delay_ms + record.service_time_ms
            )

    def test_batches_respect_the_ladder(self):
        service = toy_service()
        report = service.run(requests_for(40, num_samples=2))
        assert set(report.batch_size_counts) <= {1, 2, 4}
        assert report.num_batches == sum(report.batch_size_counts.values())

    def test_worker_samples_count_real_demand_not_padding(self):
        # Requests arriving far apart execute alone and get padded up to a
        # rung; the worker accounting must still count one sample each.
        service = toy_service()
        report = service.run(requests_for(10, gap_ms=50.0))
        assert sum(row["samples"] for row in report.worker_summary) == 10
        assert report.num_samples == 10

    def test_report_registry_stats_is_a_snapshot(self):
        registry = toy_registry()
        first = InferenceService(
            ServingConfig(model="toy", devices=("v100",), batch_sizes=(1, 2, 4)),
            registry=registry,
        ).run(requests_for(10))
        searches_after_first = first.registry_stats.searches
        InferenceService(
            ServingConfig(model="toy", devices=("v100",), batch_sizes=(1, 2, 4)),
            registry=registry,
        ).run(requests_for(10))
        assert first.registry_stats.searches == searches_after_first
        assert first.registry_stats is not registry.stats

    def test_selector_prices_rungs_with_the_registry_compiled_models(self):
        service = toy_service()
        service.run(requests_for(20, num_samples=2))
        # Selection cross-evaluated the ladder; each price is the latency of
        # the registry's compiled model for that rung, not a parallel one.
        assert service.selector._latency_cache
        for (model, device, rung), latency in service.selector._latency_cache.items():
            compiled = service.registry.get_compiled(model, rung, get_device(device))
            assert latency == compiled.latency_ms()

    def test_dispatches_charge_the_registry_compiled_model_latency(self):
        service = toy_service(fleet="v100:1,k80:1", router="round-robin")
        requests = TrafficGenerator(
            TrafficConfig(model="toy", num_requests=60, rate_rps=4000.0, seed=3,
                          sample_sizes=(1, 2), sample_weights=(0.5, 0.5))
        ).generate()
        report = service.run(requests)
        assert {record.device for record in report.records} == {"v100", "k80"}
        for record in report.records:
            compiled = service.registry.get_compiled(
                "toy", record.executed_batch_size, get_device(record.device)
            )
            assert record.completion_ms == record.dispatch_ms + compiled.latency_ms()

    def test_each_compiled_model_executes_at_most_once(self, monkeypatch):
        # One execution path: a traced service run, replayed, simulates each
        # compiled model once.  A second execution cache would show up here
        # as a repeated plan.
        runs: list[int] = []
        real_run = Executor.run

        def counting_run(executor, plan):
            runs.append(id(plan))
            return real_run(executor, plan)

        monkeypatch.setattr(Executor, "run", counting_run)
        service = InferenceService(
            ServingConfig(model="toy", fleet="v100:2", batch_sizes=(1, 2, 4),
                          policy=BatchPolicy(max_batch_size=4, max_wait_ms=2.0)),
            registry=toy_registry(),
            tracer=Tracer(),
        )
        for _ in range(2):
            service.run(requests_for(40, num_samples=2))
        assert runs
        assert len(runs) == len(set(runs))
        engine = service.registry.engine_for(get_device("v100"))
        assert set(runs) <= {id(c.plan) for c in engine.compiled_models()}

    def test_wrong_model_rejected(self):
        service = toy_service()
        with pytest.raises(ValueError, match="serves"):
            service.run(requests_for(1, model="other"))

    def test_oversized_request_rejected(self):
        service = toy_service()
        with pytest.raises(ValueError, match="largest specialised batch size"):
            service.run(requests_for(1, num_samples=64))

    def test_empty_run_rejected(self):
        with pytest.raises(ValueError):
            toy_service().run([])

    def test_unsorted_input_is_tolerated(self):
        service = toy_service()
        requests = list(reversed(requests_for(10)))
        report = service.run(requests)
        assert report.num_requests == 10

    def test_warmup_moves_searches_off_the_request_path(self, tmp_path):
        service = toy_service(root=tmp_path)
        service.warmup()
        searches_after_warmup = service.registry.stats.searches
        assert searches_after_warmup == 3  # one per ladder rung
        service.run(requests_for(20))
        assert service.registry.stats.searches == searches_after_warmup

    def test_multiple_workers_share_the_load_under_pressure(self):
        # Batches arrive back-to-back faster than one worker can drain them,
        # so the second worker must pick some up.
        service = toy_service(devices=("v100", "v100"),
                              policy=BatchPolicy(max_batch_size=1, max_wait_ms=0.0))
        report = service.run(requests_for(40, gap_ms=0.01))
        busy_workers = [row for row in report.worker_summary if row["batches"] > 0]
        assert len(busy_workers) == 2

    def test_unbatched_config_serves_each_request_alone(self):
        unbatched = InferenceService(
            ServingConfig(model="toy", devices=("v100",), batch_sizes=(1, 2, 4),
                          policy=BatchPolicy(max_batch_size=1, max_wait_ms=0.0)),
            registry=toy_registry(),
        )
        report = unbatched.run(requests_for(12, num_samples=2))
        assert report.num_batches == 12

    def test_heterogeneous_pool_uses_per_device_schedules(self, tmp_path):
        service = toy_service(devices=("v100", "k80"), root=tmp_path)
        service.warmup()
        # 3 rungs × 2 devices: the registry specialises per device.
        assert service.registry.stats.searches == 6
        report = service.run(requests_for(30, gap_ms=0.05))
        assert report.num_requests == 30


class TestRepeatedRuns:
    """A second run of one service replays exactly like the first."""

    def assert_identical_replay(self, service, requests):
        first = service.run(requests)
        searches = service.registry.stats.searches
        second = service.run(requests)
        assert second.records == first.records
        assert second.rejected == first.rejected
        assert second.worker_summary == first.worker_summary
        assert second.device_summary == first.device_summary
        assert service.registry.stats.searches == searches
        return first

    def test_mixed_fleet_with_deadline_admission(self):
        service = InferenceService(ServingConfig(
            model="squeezenet", fleet="k80:1,v100:2", admission="deadline",
        ))
        requests = TrafficGenerator(TrafficConfig(
            model="squeezenet", pattern="poisson", num_requests=300,
            rate_rps=3000.0, slo_ms=25.0, seed=0,
        )).generate()
        first = self.assert_identical_replay(service, requests)
        assert first.slo_summary.met == 300

    def test_elastic_round_robin_pool(self):
        service = toy_service(
            router="round-robin", admission="deadline",
            autoscale=AutoscaleConfig(min_workers=1, max_workers=3,
                                      interval_ms=0.2, scale_up_backlog_ms=0.02),
        )
        requests = TrafficGenerator(TrafficConfig(
            model="toy", pattern="bursty", num_requests=120, burst_size=30,
            burst_gap_ms=8.0, slo_ms=5.0, seed=2,
        ).capped_to(4)).generate()
        first = self.assert_identical_replay(service, requests)
        assert first.scale_events  # the autoscaler really resized the pool
