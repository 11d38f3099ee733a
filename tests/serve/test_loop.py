"""Tests for the discrete-event serving loop."""

from __future__ import annotations

import pytest

from repro.engine import CompiledModel
from repro.models import chain_graph
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
from repro.serve.loop import _COMPLETION, _SCALE, _TIMEOUT, EventQueue

from offline_batcher import DynamicBatcher


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


def request(request_id, arrival_ms, num_samples=1, **kwargs):
    return InferenceRequest(request_id=request_id, model="toy",
                            arrival_ms=arrival_ms, num_samples=num_samples,
                            **kwargs)


class TestLoopMatchesOfflineBatcher:
    """With admit-all and no autoscaler, the loop IS the offline batcher."""

    def test_batch_close_times_match_the_dynamic_batcher(self):
        requests = [request(i, arrival_ms=i * 0.9, num_samples=1 + i % 2)
                    for i in range(30)]
        policy = BatchPolicy(max_batch_size=4, max_wait_ms=2.0)
        offline = DynamicBatcher(policy).form_batches(requests)

        service = toy_service(policy=policy)
        report = service.run(requests)

        offline_closes = [batch.formed_ms for batch in offline]
        loop_closes = sorted({record.batched_ms for record in report.records})
        assert loop_closes == sorted(set(offline_closes))
        assert report.num_requests == len(requests)

    def test_arrival_exactly_at_the_close_deadline_joins_the_batch(self):
        # The offline batcher only flushes when an arrival is strictly past
        # the deadline; the loop must apply the same tie-break.
        policy = BatchPolicy(max_batch_size=8, max_wait_ms=2.0)
        requests = [request(0, 0.0), request(1, 2.0)]
        service = toy_service(policy=policy)
        report = service.run(requests)
        assert report.num_batches == 1
        assert all(record.batched_ms == 2.0 for record in report.records)

    def test_stale_timeout_does_not_close_the_next_batch(self):
        # Batch A (opened at 0, wait 2) closes full at t=1; its timeout event
        # at t=2 is stale and must not flush batch B (opened at 1.5).
        policy = BatchPolicy(max_batch_size=2, max_wait_ms=2.0)
        requests = [request(0, 0.0), request(1, 1.0), request(2, 1.5)]
        service = toy_service(policy=policy)
        report = service.run(requests)
        by_id = {r.request.request_id: r for r in report.records}
        assert by_id[0].batched_ms == 1.0  # closed full with request 1
        assert by_id[1].batched_ms == 1.0
        assert by_id[2].batched_ms == pytest.approx(3.5)  # its own deadline

    def test_drain_still_stamps_the_close_deadline(self):
        policy = BatchPolicy(max_batch_size=8, max_wait_ms=5.0)
        report = toy_service(policy=policy).run([request(0, 1.0)])
        assert report.records[0].batched_ms == pytest.approx(6.0)


class TestLoopEdgeCases:
    def test_zero_duration_batches_complete_instantly(self, monkeypatch):
        # Dispatch and selection both price a batch by its compiled model.
        monkeypatch.setattr(CompiledModel, "latency_ms", lambda self: 0.0)
        service = toy_service()
        requests = [request(i, arrival_ms=float(i)) for i in range(10)]
        report = service.run(requests)
        assert report.num_requests == 10
        for record in report.records:
            assert record.completion_ms == record.dispatch_ms
            assert record.service_time_ms == 0.0
        # The virtual clock still advanced through the batching waits.
        assert report.makespan_ms > 0

    def test_all_requests_past_deadline_at_arrival_yields_an_all_rejected_report(self):
        service = toy_service(admission="deadline")
        requests = [request(i, arrival_ms=float(i), deadline_ms=0.0)
                    for i in range(8)]
        report = service.run(requests)
        assert report.num_requests == 0
        assert report.num_batches == 0
        assert report.latency.p99_ms == 0.0
        slo = report.slo_summary
        assert slo.offered == 8
        assert slo.rejected == 8
        assert slo.attainment_rate == 0.0
        assert slo.rejection_reasons == {"predicted-deadline-miss": 8}

    def test_empty_request_list_still_rejected(self):
        with pytest.raises(ValueError):
            toy_service().run([])


class TestLoopDeterminism:
    def _report(self, seed=3):
        traffic = TrafficConfig(
            model="toy", pattern="bursty", num_requests=120, burst_size=24,
            burst_gap_ms=6.0, slo_ms=5.0, priorities=(0, 1),
            priority_weights=(0.8, 0.2), seed=seed,
        ).capped_to(4)
        service = toy_service(
            devices=("v100",), admission="deadline", autoscale="1:3",
        )
        return service.run(TrafficGenerator(traffic).generate())

    def test_same_seed_gives_the_identical_report_twice(self):
        first, second = self._report(), self._report()
        assert first.num_requests == second.num_requests
        assert first.records == second.records
        assert first.rejected == second.rejected
        assert first.scale_events == second.scale_events
        assert first.slo_summary == second.slo_summary
        assert first.latency == second.latency
        assert first.makespan_ms == second.makespan_ms

    def test_different_seed_gives_a_different_report(self):
        assert self._report(seed=3).records != self._report(seed=4).records


class TestDirectlyDrivenLoop:
    """``service.loop.run`` replays like ``InferenceService.run``: the loop
    itself returns the pool, router and autoscaler to their configured state."""

    def test_replaying_through_the_loop_twice_is_identical(self):
        service = toy_service(
            devices=("v100", "k80"), router="round-robin", admission="deadline",
            autoscale=AutoscaleConfig(min_workers=1, max_workers=3,
                                      interval_ms=0.2, scale_up_backlog_ms=0.02),
        )
        requests = TrafficGenerator(TrafficConfig(
            model="toy", pattern="bursty", num_requests=120, burst_size=30,
            burst_gap_ms=8.0, slo_ms=5.0, seed=2,
        ).capped_to(4)).generate()


        def run():
            result = service.loop.run(requests)
            # Registry lookups are cumulative by design; every other series
            # (pool size, worker utilisation, latency) is per run.
            metrics = result.metrics.snapshot()
            del metrics["serve.registry.lookups"]
            return result, metrics

        first, first_metrics = run()
        second, second_metrics = run()
        assert first.scale_events  # the pool grew, so state was carried out
        assert second.records == first.records
        assert second.rejected == first.rejected
        assert second.scale_events == first.scale_events
        assert second.batch_size_counts == first.batch_size_counts
        assert second_metrics == first_metrics


class TestEventQueue:
    """One heap orders every event of a run by ``(time_ms, rank, seq)``."""

    def test_same_time_events_pop_cluster_actions_then_each_hosts_kinds(self):
        queue = EventQueue()
        loops = [toy_service().loop, toy_service().loop]
        for index, loop in enumerate(loops):
            loop.begin(queue, index)
        popped = []

        def cluster_action(time_ms, payload):
            popped.append(("cluster", payload))

        for loop in loops:
            # Record which loop and kind each handler belongs to, not run it.
            loop._handlers = tuple(
                lambda time_ms, payload, owner=loop, kind=kind: popped.append(
                    (loops.index(owner), kind, payload)
                )
                for kind in (_COMPLETION, _TIMEOUT, _SCALE)
            )
        scrambled = [
            (1, _SCALE), (0, _TIMEOUT), "a", (1, _COMPLETION), (0, _SCALE),
            (1, _TIMEOUT), "b", (0, _COMPLETION), "c", (0, _TIMEOUT),
        ]
        for seq, push in enumerate(scrambled):
            if isinstance(push, str):
                queue.push(5.0, cluster_action, push)
            else:
                host, kind = push
                loops[host]._push(5.0, kind, seq)
        assert queue.arrivals_left == 3
        queue.run()
        assert popped == [
            ("cluster", "a"), ("cluster", "b"), ("cluster", "c"),
            (0, _COMPLETION, 7), (0, _TIMEOUT, 1), (0, _TIMEOUT, 9), (0, _SCALE, 4),
            (1, _COMPLETION, 3), (1, _TIMEOUT, 5), (1, _SCALE, 0),
        ]
        assert queue.arrivals_left == 0
        # Only the loop events handled with no arrival left count as drained.
        assert queue.drained == 7

    def test_run_handles_only_events_strictly_before_the_horizon(self):
        queue = EventQueue()
        seen = []
        for time_ms in (3.0, 1.0, 2.0):
            queue.push(time_ms, lambda t, payload: seen.append(t), None, rank=1)
        queue.run(2.0)
        assert seen == [1.0]
        queue.run()
        assert seen == [1.0, 2.0, 3.0]


class TestReportContract:
    """The pre-SLO report surface is unchanged for old invocations."""

    def test_plain_run_keeps_the_legacy_fields_and_gains_slo_defaults(self):
        service = toy_service()
        report = service.run([request(i, arrival_ms=i * 0.5) for i in range(20)])
        assert report.num_requests == 20
        assert report.router == "earliest-finish"
        assert report.admission == "admit-all"
        assert report.rejected == []
        assert report.scale_events == []
        # admit-all on deadline-free traffic is not an SLO run.
        assert report.slo_summary is None

    def test_deadline_traffic_alone_triggers_the_slo_summary(self):
        service = toy_service()  # admit-all, fixed pool
        report = service.run(
            [request(i, arrival_ms=i * 0.5, deadline_ms=100.0) for i in range(10)]
        )
        assert report.slo_summary is not None
        assert report.slo_summary.attainment_rate == 1.0

    def test_describe_mentions_slo_and_autoscale_sections_when_present(self):
        traffic = TrafficConfig(
            model="toy", pattern="bursty", num_requests=60, burst_size=20,
            burst_gap_ms=5.0, slo_ms=2.0, seed=1,
        ).capped_to(4)
        service = toy_service(admission="deadline", autoscale="1:2")
        text = service.run(TrafficGenerator(traffic).generate()).describe()
        assert "admission : deadline" in text
        assert "slo" in text
