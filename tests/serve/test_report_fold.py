"""ReportFold builds the same reports the record lists built, field for field.

The oracle below is the list-walking report arithmetic the fold replaced:
each summary computed by its own walk over the whole record list.  Every
report built through the fold — from a list, from a fold fed one record at a
time in any interleaving with the rejections, keeping its records or not —
must equal it exactly (floats included), save the dropped records.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import percentiles
from repro.serve import (
    BurstSlo,
    InferenceRequest,
    LatencySummary,
    PriorityClassSlo,
    RejectedRequest,
    ReportFold,
    RequestRecord,
    ServingReport,
    SloSummary,
    build_report,
    build_slo_summary,
)
from repro.serve.registry import RegistryStats

DEVICES = ("k80", "v100", "")
GROUPS = [
    {"device": device, "workers": 1, "batches": 3, "samples": 5, "utilization": 0.5}
    for device in ("k80", "v100", "p100")
]


# --------------------------------------------------------------------------- #
# The list-built oracle                                                       #
# --------------------------------------------------------------------------- #
def oracle_slo_summary(records, rejected) -> SloSummary:
    met = with_deadline = 0
    classes: dict[int, list] = defaultdict(lambda: [[], 0, 0])
    bursts: dict[int, list[int]] = defaultdict(lambda: [0, 0, 0])
    for record in records:
        request = record.request
        hit = record.deadline_met
        met += hit
        with_deadline += request.deadline_ms is not None
        group = classes[request.priority]
        group[0].append(record.latency_ms)
        group[1] += hit
        if request.burst_id is not None:
            bursts[request.burst_id][0] += 1
            bursts[request.burst_id][1] += hit
    reasons: dict[str, int] = {}
    for rejection in rejected:
        reasons[rejection.reason] = reasons.get(rejection.reason, 0) + 1
        classes[rejection.request.priority][2] += 1
        if rejection.request.burst_id is not None:
            bursts[rejection.request.burst_id][2] += 1
    per_priority = []
    for priority in sorted(classes, reverse=True):
        latencies, class_met, class_rejected = classes[priority]
        offered = len(latencies) + class_rejected
        p50, p95, p99 = percentiles(latencies, (50, 95, 99)) if latencies else (0.0,) * 3
        per_priority.append(PriorityClassSlo(
            priority=priority, offered=offered, admitted=len(latencies),
            rejected=class_rejected, met=class_met,
            violations=len(latencies) - class_met,
            attainment=class_met / offered if offered else 0.0,
            p50_ms=p50, p95_ms=p95, p99_ms=p99,
        ))
    per_burst = []
    for burst_id in sorted(bursts):
        admitted, burst_met, burst_rejected = bursts[burst_id]
        offered = admitted + burst_rejected
        per_burst.append(BurstSlo(
            burst_id=burst_id, offered=offered, admitted=admitted, met=burst_met,
            attainment=burst_met / offered if offered else 0.0,
        ))
    offered = len(records) + len(rejected)
    return SloSummary(
        offered=offered, admitted=len(records), rejected=len(rejected),
        with_deadline=with_deadline, met=met, violations=len(records) - met,
        attainment_rate=met / offered if offered else 0.0,
        rejection_reasons=reasons, per_priority=per_priority, per_burst=per_burst,
    )


def oracle_report(records, rejected, group_summary, admission) -> ServingReport:
    arrivals = [r.request.arrival_ms for r in records] + [
        r.request.arrival_ms for r in rejected
    ]
    first_arrival = min(arrivals)
    last_completion = max((r.completion_ms for r in records), default=first_arrival)
    makespan_ms = max(last_completion - first_arrival, 1e-9)
    num_samples = sum(r.request.num_samples for r in records)
    device_summary = []
    for group in group_summary:
        row = dict(group)
        latencies = [r.latency_ms for r in records if r.device == row["device"]]
        row["requests"] = len(latencies)
        if latencies:
            row["latency"] = LatencySummary.from_values(latencies)
        device_summary.append(row)
    slo = None
    if (
        (admission and admission != "admit-all")
        or rejected
        or any(r.request.deadline_ms is not None for r in records)
    ):
        slo = oracle_slo_summary(records, rejected)
    return ServingReport(
        num_requests=len(records), num_samples=num_samples, num_batches=7,
        makespan_ms=makespan_ms,
        throughput_rps=len(records) / (makespan_ms / 1e3),
        throughput_samples_per_s=num_samples / (makespan_ms / 1e3),
        latency=(LatencySummary.from_values([r.latency_ms for r in records])
                 if records else LatencySummary.empty()),
        queue_delay=(LatencySummary.from_values([r.queue_delay_ms for r in records])
                     if records else LatencySummary.empty()),
        batch_size_counts={1: 3, 4: 4},
        registry_stats=RegistryStats(),
        worker_summary=[],
        device_summary=device_summary,
        router="r",
        records=list(records),
        admission=admission,
        rejected=list(rejected),
        slo_summary=slo,
    )


def report_of(records, rejected=(), group_summary=GROUPS, admission="") -> ServingReport:
    return build_report(
        records, num_batches=7, batch_size_counts={4: 4, 1: 3},
        registry_stats=RegistryStats(), worker_summary=[],
        group_summary=group_summary, router="r", admission=admission,
        rejected=rejected,
    )


# --------------------------------------------------------------------------- #
# Generated runs                                                              #
# --------------------------------------------------------------------------- #
times = st.floats(min_value=0.0, max_value=1e4, allow_nan=False, allow_infinity=False)
gaps = st.floats(min_value=0.0, max_value=50.0, allow_nan=False, allow_infinity=False)


@st.composite
def requests(draw, request_id: int) -> InferenceRequest:
    return InferenceRequest(
        request_id=request_id, model="m", arrival_ms=draw(times),
        num_samples=draw(st.integers(1, 8)),
        deadline_ms=draw(st.none() | gaps),
        priority=draw(st.integers(0, 3)),
        burst_id=draw(st.none() | st.integers(0, 4)),
    )


@st.composite
def runs(draw):
    """(records, rejections, the order they happened in) of one run."""
    outcomes = draw(st.lists(st.booleans(), max_size=40))
    records, rejected, order = [], [], []
    for request_id, completed in enumerate(outcomes):
        request = draw(requests(request_id))
        if completed:
            batched = request.arrival_ms + draw(gaps)
            dispatched = batched + draw(gaps)
            records.append(RequestRecord(
                request=request, batched_ms=batched, dispatch_ms=dispatched,
                completion_ms=dispatched + draw(gaps),
                executed_batch_size=draw(st.sampled_from((1, 2, 4, 8))),
                worker_id=draw(st.integers(0, 3)),
                device=draw(st.sampled_from(DEVICES)),
            ))
            order.append(records[-1])
        else:
            rejected.append(RejectedRequest(
                request=request, rejected_ms=request.arrival_ms,
                reason=draw(st.sampled_from(("predicted-deadline-miss", "low-priority-shed"))),
            ))
            order.append(rejected[-1])
    return records, rejected, order


@settings(max_examples=200, deadline=None)
@given(run=runs(), admission=st.sampled_from(("", "admit-all", "deadline")))
def test_folded_reports_equal_the_list_built_ones(run, admission):
    records, rejected, order = run
    if not records and not rejected:
        with pytest.raises(ValueError, match="zero records"):
            report_of(records, rejected)
        return
    expected = oracle_report(records, rejected, GROUPS, admission)
    assert report_of(records, rejected, admission=admission) == expected
    assert build_slo_summary(records, rejected) == oracle_slo_summary(records, rejected)
    # Fed one at a time, records and rejections interleaved as they happened.
    for keep_records in (True, False):
        fold = ReportFold(keep_records)
        for item in order:
            if isinstance(item, RequestRecord):
                fold.add(item)
            else:
                fold.reject(item)
        assert fold.num_records == len(records)
        report = report_of(fold, admission=admission)
        assert report == replace(expected, records=records if keep_records else [])


def test_a_fold_carries_its_own_rejections():
    fold = ReportFold()
    with pytest.raises(ValueError, match="carries its own rejections"):
        report_of(fold, [RejectedRequest(
            request=InferenceRequest(request_id=0, model="m", arrival_ms=0.0),
            rejected_ms=0.0, reason="shed",
        )])

