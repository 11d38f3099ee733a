"""Tests for serving metrics aggregation."""

from __future__ import annotations

import dataclasses
import pickle
import random

import pytest

from repro.obs import percentile
from repro.serve import (
    BurstSlo,
    InferenceRequest,
    LatencySummary,
    PriorityClassSlo,
    RejectedRequest,
    RequestRecord,
    build_report,
    build_slo_summary,
)
from repro.serve.registry import RegistryStats


def record(request_id: int, arrival: float, completed: float,
           dispatched: float | None = None, **request_kwargs) -> RequestRecord:
    dispatched = arrival if dispatched is None else dispatched
    return RequestRecord(
        request=InferenceRequest(request_id=request_id, model="m",
                                 arrival_ms=arrival, **request_kwargs),
        batched_ms=dispatched,
        dispatch_ms=dispatched,
        completion_ms=completed,
        executed_batch_size=1,
        worker_id=0,
    )


def rejection(request_id: int, arrival: float, reason: str = "shed",
              **request_kwargs) -> RejectedRequest:
    return RejectedRequest(
        request=InferenceRequest(request_id=request_id, model="m",
                                 arrival_ms=arrival, **request_kwargs),
        rejected_ms=arrival,
        reason=reason,
    )


class TestPercentile:
    def test_median_of_odd_list(self):
        assert percentile([3.0, 1.0, 2.0], 50) == 2.0

    def test_interpolates(self):
        assert percentile([0.0, 10.0], 50) == 5.0

    def test_extremes(self):
        values = [5.0, 1.0, 9.0]
        assert percentile(values, 0) == 1.0
        assert percentile(values, 100) == 9.0

    def test_rejects_empty_and_out_of_range(self):
        with pytest.raises(ValueError):
            percentile([], 50)
        with pytest.raises(ValueError):
            percentile([1.0], 150)


class TestBuildReport:
    def test_throughput_uses_the_full_span(self):
        records = [record(0, 0.0, 50.0), record(1, 100.0, 200.0)]
        report = build_report(records, num_batches=2, batch_size_counts={1: 2},
                              registry_stats=RegistryStats(), worker_summary=[])
        # 2 requests over 200 ms of virtual time.
        assert report.throughput_rps == pytest.approx(10.0)
        assert report.makespan_ms == pytest.approx(200.0)

    def test_latency_and_queue_delay_summaries(self):
        records = [
            record(0, 0.0, 4.0, dispatched=1.0),
            record(1, 0.0, 8.0, dispatched=2.0),
        ]
        report = build_report(records, num_batches=2, batch_size_counts={1: 2},
                              registry_stats=RegistryStats(), worker_summary=[])
        assert report.latency.mean_ms == pytest.approx(6.0)
        assert report.latency.max_ms == pytest.approx(8.0)
        assert report.queue_delay.mean_ms == pytest.approx(1.5)

    def test_mean_batch_occupancy(self):
        records = [record(i, 0.0, 1.0) for i in range(6)]
        report = build_report(records, num_batches=2, batch_size_counts={4: 1, 2: 1},
                              registry_stats=RegistryStats(), worker_summary=[])
        assert report.mean_batch_occupancy == pytest.approx(3.0)
        assert list(report.batch_size_counts) == [2, 4]

    def test_describe_mentions_the_headline_numbers(self):
        records = [record(0, 0.0, 2.0)]
        report = build_report(records, num_batches=1, batch_size_counts={1: 1},
                              registry_stats=RegistryStats(searches=3),
                              worker_summary=[{"worker": 0, "device": "v100",
                                              "batches": 1, "samples": 1,
                                              "busy_ms": 2.0, "utilization": 1.0}])
        text = report.describe()
        assert "1 requests" in text
        assert "3 searches" in text
        assert "worker 0 (v100)" in text

    def test_empty_records_rejected(self):
        with pytest.raises(ValueError):
            build_report([], num_batches=0, batch_size_counts={},
                         registry_stats=RegistryStats(), worker_summary=[])

    def test_no_slo_summary_without_slo_signals(self):
        report = build_report([record(0, 0.0, 2.0)], num_batches=1,
                              batch_size_counts={1: 1},
                              registry_stats=RegistryStats(), worker_summary=[])
        assert report.slo_summary is None

    def test_all_rejected_run_builds_an_empty_latency_report(self):
        report = build_report(
            [], num_batches=0, batch_size_counts={},
            registry_stats=RegistryStats(), worker_summary=[],
            rejected=[rejection(0, 0.0), rejection(1, 1.0)],
        )
        assert report.num_requests == 0
        assert report.latency == LatencySummary.empty()
        assert report.slo_summary.offered == 2
        assert report.slo_summary.rejected == 2
        assert report.slo_summary.attainment_rate == 0.0


class TestSloSummary:
    def test_attainment_counts_rejections_as_misses(self):
        records = [
            record(0, 0.0, 5.0, deadline_ms=10.0),   # met
            record(1, 0.0, 20.0, deadline_ms=10.0),  # violated
            record(2, 0.0, 5.0),                     # no SLO: counts as met
        ]
        rejected = [rejection(3, 0.0, deadline_ms=10.0)]
        slo = build_slo_summary(records, rejected)
        assert slo.offered == 4
        assert slo.admitted == 3
        assert slo.rejected == 1
        assert slo.met == 2
        assert slo.violations == 1
        assert slo.with_deadline == 2
        assert slo.attainment_rate == pytest.approx(0.5)

    def test_rejection_reasons_are_tallied(self):
        slo = build_slo_summary([], [
            rejection(0, 0.0, reason="predicted-deadline-miss"),
            rejection(1, 0.0, reason="predicted-deadline-miss"),
            rejection(2, 0.0, reason="low-priority-shed"),
        ])
        assert slo.rejection_reasons == {
            "predicted-deadline-miss": 2,
            "low-priority-shed": 1,
        }

    def test_per_priority_breakdown_is_highest_first(self):
        records = [
            record(0, 0.0, 5.0, deadline_ms=10.0, priority=1),
            record(1, 0.0, 20.0, deadline_ms=10.0, priority=0),
        ]
        rejected = [rejection(2, 0.0, deadline_ms=10.0, priority=0)]
        slo = build_slo_summary(records, rejected)
        assert [row.priority for row in slo.per_priority] == [1, 0]
        high, low = slo.per_priority
        assert (high.offered, high.met, high.attainment) == (1, 1, 1.0)
        assert (low.offered, low.met, low.attainment) == (2, 0, 0.0)
        assert low.rejected == 1

    def test_per_burst_breakdown(self):
        records = [
            record(0, 0.0, 5.0, deadline_ms=10.0, burst_id=0),
            record(1, 0.0, 30.0, deadline_ms=10.0, burst_id=1),
        ]
        rejected = [rejection(2, 0.0, deadline_ms=10.0, burst_id=1)]
        slo = build_slo_summary(records, rejected)
        assert [row.burst_id for row in slo.per_burst] == [0, 1]
        first, second = slo.per_burst
        assert first.attainment == 1.0
        assert second.offered == 2
        assert second.attainment == 0.0

    def test_describe_mentions_attainment_and_rejections(self):
        slo = build_slo_summary(
            [record(0, 0.0, 5.0, deadline_ms=10.0)],
            [rejection(1, 0.0, reason="predicted-deadline-miss")],
        )
        text = slo.describe()
        assert "1/2 met" in text
        assert "predicted-deadline-miss×1" in text

    def test_rows_match_a_recount_of_each_group(self):
        rng = random.Random(5)
        records = [
            record(i, float(i), i + rng.uniform(1.0, 20.0), deadline_ms=10.0,
                   priority=rng.choice((0, 1, 2)), burst_id=rng.choice((None, 0, 1, 2)))
            for i in range(200)
        ]
        rejected = [
            rejection(i, float(i), priority=rng.choice((0, 3)), burst_id=rng.choice((None, 2, 4)))
            for i in range(200, 240)
        ]
        slo = build_slo_summary(records, rejected)
        for row in slo.per_priority:
            done = [r for r in records if r.request.priority == row.priority]
            shed = [r for r in rejected if r.request.priority == row.priority]
            met = sum(r.deadline_met for r in done)
            latencies = [r.latency_ms for r in done]
            assert row == PriorityClassSlo(
                row.priority, len(done) + len(shed), len(done), len(shed), met,
                len(done) - met, met / (len(done) + len(shed)),
                *((percentile(latencies, q) for q in (50, 95, 99)) if done else (0.0,) * 3),
            )
        for row in slo.per_burst:
            done = [r for r in records if r.request.burst_id == row.burst_id]
            shed = [r for r in rejected if r.request.burst_id == row.burst_id]
            met = sum(r.deadline_met for r in done)
            assert row == BurstSlo(
                row.burst_id, len(done) + len(shed), len(done), met,
                met / (len(done) + len(shed)),
            )
        assert [row.priority for row in slo.per_priority] == [3, 2, 1, 0]
        assert [row.burst_id for row in slo.per_burst] == [0, 1, 2, 4]

    def test_deadline_met_property(self):
        assert record(0, 0.0, 5.0, deadline_ms=10.0).deadline_met
        assert not record(0, 0.0, 15.0, deadline_ms=10.0).deadline_met
        assert record(0, 0.0, 1e9).deadline_met  # no SLO is never violated


class TestRequestTypesAreSlotted:
    """Replays hold one record per request: the types carry no ``__dict__``."""

    def test_pickle_and_replace_round_trip(self):
        request = InferenceRequest(7, "m", 1.5, num_samples=2, deadline_ms=9.0,
                                   priority=1, burst_id=3)
        done = record(7, 1.5, 4.0, deadline_ms=9.0)
        shed = rejection(8, 2.0, reason="predicted-deadline-miss")
        for value in (request, done, shed):
            assert not hasattr(value, "__dict__")
            assert pickle.loads(pickle.dumps(value)) == value
            assert dataclasses.replace(value) == value
        assert dataclasses.replace(request, priority=2).priority == 2
        assert dataclasses.replace(done, worker_id=3).worker_id == 3
        with pytest.raises(dataclasses.FrozenInstanceError):
            request.priority = 5
