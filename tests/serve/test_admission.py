"""Tests for the admission-control policies."""

from __future__ import annotations

import pytest

from repro.models import chain_graph
from repro.serve import (
    AdmissionPolicy,
    AdmitAll,
    BatchPolicy,
    DeadlineAwareAdmission,
    InferenceRequest,
    InferenceService,
    PriorityAdmission,
    ScheduleRegistry,
    ServingConfig,
    get_admission_policy,
    list_admission_policies,
)


def toy_service(**overrides) -> InferenceService:
    overrides.setdefault("model", "toy")
    overrides.setdefault("devices", ("v100",))
    overrides.setdefault("batch_sizes", (1, 2, 4))
    overrides.setdefault("policy", BatchPolicy(max_batch_size=4, max_wait_ms=2.0))
    registry = ScheduleRegistry(
        graph_builder=lambda model, bs: chain_graph(length=3, batch_size=bs)
    )
    return InferenceService(ServingConfig(**overrides), registry=registry)


def request(request_id, arrival_ms, **kwargs):
    return InferenceRequest(request_id=request_id, model="toy",
                            arrival_ms=arrival_ms, **kwargs)


def run_with_backlog(service, requests, busy_until_ms):
    """Replay ``requests`` with worker 0 busy until ``busy_until_ms`` from the start.

    Every run resets the pool first, so the horizon is pinned right after
    that reset.
    """
    pool = service.pool
    reset = pool.reset

    def reset_then_occupy():
        reset()
        pool.workers[0].busy_until_ms = busy_until_ms

    pool.reset = reset_then_occupy
    try:
        ordered = sorted(requests, key=lambda r: (r.arrival_ms, r.request_id))
        return service.loop.run(ordered)
    finally:
        del pool.reset


class TestRegistry:
    def test_lists_all_policies(self):
        assert list_admission_policies() == ["admit-all", "deadline", "priority"]

    def test_get_normalises_spelling(self):
        assert isinstance(get_admission_policy("Admit_All"), AdmitAll)
        assert isinstance(get_admission_policy("DEADLINE"), DeadlineAwareAdmission)

    def test_get_passes_instances_through(self):
        policy = PriorityAdmission(slack_ms=1.0)
        assert get_admission_policy(policy) is policy

    def test_unknown_name_lists_the_catalog(self):
        with pytest.raises(ValueError, match="admit-all"):
            get_admission_policy("yolo")

    def test_config_resolves_names_eagerly(self):
        with pytest.raises(ValueError):
            ServingConfig(model="toy", admission="nope")

    def test_config_carries_instances(self):
        policy = DeadlineAwareAdmission(slack_ms=0.5)
        config = ServingConfig(model="toy", admission=policy)
        assert config.admission is policy


class TestAdmitAll:
    def test_never_rejects_even_hopeless_deadlines(self):
        service = toy_service()  # admit-all is the default
        requests = [request(i, arrival_ms=0.0, deadline_ms=0.0) for i in range(4)]
        report = service.run(requests)
        assert report.num_requests == 4
        assert report.rejected == []
        # They were admitted, executed, and all violated their deadline.
        assert report.slo_summary.violations == 4
        assert report.slo_summary.attainment_rate == 0.0


class TestDeadlineAwareAdmission:
    def test_requests_without_deadlines_always_admit(self):
        service = toy_service(admission="deadline")
        report = service.run([request(i, arrival_ms=float(i)) for i in range(6)])
        assert report.num_requests == 6
        assert report.rejected == []

    def test_rejects_only_the_predicted_misses(self):
        service = toy_service(admission="deadline")
        generous = request(0, arrival_ms=0.0, deadline_ms=1000.0)
        hopeless = request(1, arrival_ms=0.0, deadline_ms=0.0)
        report = service.run([generous, hopeless])
        assert [r.request.request_id for r in report.records] == [0]
        assert [r.request.request_id for r in report.rejected] == [1]
        assert report.rejected[0].reason == "predicted-deadline-miss"

    def test_slack_loosens_the_gate(self):
        service = toy_service(admission=DeadlineAwareAdmission(slack_ms=1e6))
        report = service.run([request(0, arrival_ms=0.0, deadline_ms=0.0)])
        assert report.num_requests == 1
        assert report.rejected == []

    def test_backlog_on_the_pool_triggers_rejections(self):
        service = toy_service(admission="deadline")
        # Pin the worker's horizon far in the future: every deadline-carrying
        # arrival now predicts a miss.
        report = run_with_backlog(service, [
            request(0, arrival_ms=0.0, deadline_ms=50.0),
            request(1, arrival_ms=0.0),  # no SLO: rides regardless
        ], busy_until_ms=1e6)
        assert [r.request.request_id for r in report.rejected] == [0]
        assert [r.request.request_id for r in report.records] == [1]


class TestPriorityAdmission:
    def test_order_key_ranks_priority_then_fifo(self):
        policy = PriorityAdmission()
        low_early = request(0, arrival_ms=0.0, priority=0)
        high_late = request(1, arrival_ms=1.0, priority=5)
        ranked = sorted([low_early, high_late], key=policy.order_key)
        assert [r.request_id for r in ranked] == [1, 0]

    def test_high_priority_dispatches_ahead_within_a_batch(self):
        service = toy_service(admission="priority",
                              policy=BatchPolicy(max_batch_size=2, max_wait_ms=5.0))
        low = request(0, arrival_ms=0.0, priority=0)
        high = request(1, arrival_ms=1.0, priority=3)
        report = service.run([low, high])
        assert report.num_batches == 1  # they closed "full" together
        ids_in_dispatch_order = [r.request.request_id for r in report.records]
        assert ids_in_dispatch_order == [1, 0]

    def test_preemption_rescues_a_tight_high_priority_deadline(self):
        service = toy_service(admission="priority",
                              policy=BatchPolicy(max_batch_size=4, max_wait_ms=10.0))
        exec_ms = service.selector.predicted_latency(
            "toy", 2, service.pool.workers[0].device
        )
        low = request(0, arrival_ms=0.0, priority=0)
        # Meets its deadline only if dispatched on arrival — waiting out the
        # 10ms batch window would blow it.
        high = request(1, arrival_ms=1.0, priority=3, deadline_ms=exec_ms + 1.0)
        report = service.run([low, high])
        by_id = {r.request.request_id: r for r in report.records}
        assert by_id[1].batched_ms == 1.0  # preempted: closed on arrival
        assert by_id[1].deadline_met
        assert by_id[0].batched_ms == 1.0  # the low request rode along

    def test_preemption_cannot_rescue_past_a_busy_worker_horizon(self):
        # Skipping the batching wait only helps when the wait is the binding
        # term; with the worker horizon far out, immediate dispatch still
        # misses, so the request must be shed instead of preempting a batch.
        service = toy_service(admission="priority",
                              policy=BatchPolicy(max_batch_size=4, max_wait_ms=200.0))
        exec_ms = service.selector.predicted_latency(
            "toy", 2, service.pool.workers[0].device
        )
        low = request(0, arrival_ms=0.0, priority=0)
        high = request(1, arrival_ms=1.0, priority=3, deadline_ms=exec_ms + 50.0)
        report = run_with_backlog(service, [low, high], busy_until_ms=100.0)
        assert [r.request.request_id for r in report.rejected] == [1]
        assert report.rejected[0].reason == "predicted-deadline-miss"
        # No preemption fired: the surviving batch waited out its window.
        assert report.records[0].batched_ms == pytest.approx(200.0)

    def test_no_preemption_when_the_deadline_is_safe_anyway(self):
        service = toy_service(admission="priority",
                              policy=BatchPolicy(max_batch_size=4, max_wait_ms=10.0))
        low = request(0, arrival_ms=0.0, priority=0)
        high = request(1, arrival_ms=1.0, priority=3, deadline_ms=1000.0)
        report = service.run([low, high])
        # Batching wins: both wait out the window and share one batch.
        assert all(r.batched_ms == pytest.approx(10.0) for r in report.records)

    def test_rejections_below_the_top_class_are_labelled_as_shed(self):
        service = toy_service(admission="priority")
        report = run_with_backlog(service, [
            request(0, arrival_ms=0.0, priority=2, deadline_ms=10.0),
            request(1, arrival_ms=0.5, priority=0, deadline_ms=10.0),
        ], busy_until_ms=1e6)  # hopeless backlog
        reasons = {r.request.request_id: r.reason for r in report.rejected}
        # The top class's own overflow is an ordinary predicted miss; only
        # classes below the top one are "shed".
        assert reasons[0] == "predicted-deadline-miss"
        assert reasons[1] == "low-priority-shed"

    def test_preemption_rescues_a_vip_arriving_to_an_empty_queue(self):
        # Admission must be monotonic in load: a request that immediate
        # dispatch would save cannot be shed just because nothing is queued.
        service = toy_service(admission="priority",
                              policy=BatchPolicy(max_batch_size=4, max_wait_ms=10.0))
        exec_ms = service.selector.predicted_latency(
            "toy", 1, service.pool.workers[0].device
        )
        vip = request(0, arrival_ms=0.0, priority=3, deadline_ms=exec_ms + 1.0)
        report = service.run([vip])
        assert report.rejected == []
        assert report.records[0].batched_ms == 0.0  # dispatched alone, on arrival
        assert report.records[0].deadline_met

    def test_protection_margin_sheds_the_marginal_low_class_request(self):
        # A below-top-class request predicted to meet its deadline with only
        # a sliver of budget to spare is shed: the headroom is reserved for
        # the top class.  protection=0.0 restores the plain deadline gate.
        def scenario(policy):
            service = toy_service(admission=policy)
            high = request(0, arrival_ms=0.0, priority=3)
            # Predicted to finish ~10.1ms in against a 12.5ms absolute
            # deadline: a couple of ms to spare, far less than the capped
            # margin (0.75 × 12ms) the protection demands.
            low = request(1, arrival_ms=0.5, priority=0, deadline_ms=12.0)
            # A pinned horizon makes the worker, not the batching wait, the
            # binding term — so preemption cannot rescue the low request
            # either, and only the margin decides.
            return run_with_backlog(service, [high, low], busy_until_ms=10.0)

        protected = scenario(PriorityAdmission())
        assert [r.request.request_id for r in protected.rejected] == [1]
        assert protected.rejected[0].reason == "low-priority-shed"

        unprotected = scenario(PriorityAdmission(protection=0.0))
        assert unprotected.rejected == []
        by_id = {r.request.request_id: r for r in unprotected.records}
        assert by_id[1].deadline_met

    def test_protection_margin_arithmetic_scales_with_class_distance(self):
        policy = PriorityAdmission(protection=0.25)
        low = request(0, arrival_ms=0.0, priority=0, deadline_ms=10.0)
        # No class seen yet, and the top class itself: no margin.
        assert policy._protection_margin_ms(low) == 0.0
        policy._highest_seen = 0
        assert policy._protection_margin_ms(low) == 0.0
        # One level below the top: a quarter of the budget.
        policy._highest_seen = 1
        assert policy._protection_margin_ms(low) == pytest.approx(2.5)
        # Deeply subordinate: capped at MAX_PROTECTION of the budget.
        policy._highest_seen = 10
        assert policy._protection_margin_ms(low) == pytest.approx(7.5)

    def test_priority_class_floor_resets_between_runs_of_one_service(self):
        # The policy's class bookkeeping must not outlive a run: a
        # priority-0-only second run has 0 as its top class, so its
        # rejections are ordinary predicted misses — not "low-priority-shed"
        # relative to the previous run's class 5.
        service = toy_service(admission="priority")
        service.run([request(0, arrival_ms=0.0, priority=5)])
        report = run_with_backlog(
            service, [request(1, arrival_ms=0.0, priority=0, deadline_ms=10.0)],
            busy_until_ms=1e6,
        )
        assert [r.reason for r in report.rejected] == ["predicted-deadline-miss"]


class TestPolicyInterface:
    def test_custom_policy_instances_plug_in(self):
        class EvenOnly(AdmissionPolicy):
            name = "even-only"

            def admit(self, request, state):
                from repro.serve import AdmissionDecision
                if request.request_id % 2 == 0:
                    return AdmissionDecision.admit()
                return AdmissionDecision.reject("odd")

        service = toy_service(admission=EvenOnly())
        report = service.run([request(i, arrival_ms=float(i)) for i in range(6)])
        assert sorted(r.request.request_id for r in report.records) == [0, 2, 4]
        assert sorted(r.request.request_id for r in report.rejected) == [1, 3, 5]
        assert report.admission == "even-only"
