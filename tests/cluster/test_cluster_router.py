"""Tests for cluster-level routing policies."""

from __future__ import annotations

import pytest

from repro.cluster import (
    CLUSTER_ROUTERS,
    PartitionAffinityRouter,
    RankingHostRouter,
    RoundRobinHostRouter,
    get_cluster_router,
    list_cluster_routers,
)
from repro.serve import InferenceRequest


class FakeHost:
    """Just enough of a Host for router ranking."""

    def __init__(self, host_id, predicted=0.0, remaining=0.0, pending=0):
        self.host_id = host_id
        self._predicted = predicted
        self._remaining = remaining
        self.pending_samples = pending

    def predicted_completion_ms(self, request):
        return self._predicted

    def remaining_work_ms(self, now_ms):
        return self._remaining


def request(request_id=0, model="m"):
    return InferenceRequest(request_id=request_id, model=model, arrival_ms=0.0)


class TestRegistry:
    def test_lists_all_policies(self):
        assert list_cluster_routers() == sorted(CLUSTER_ROUTERS)
        assert "earliest-finish-host" in list_cluster_routers()

    def test_name_normalisation(self):
        router = get_cluster_router("Least_Loaded_Host")
        assert isinstance(router, RankingHostRouter)
        assert router.name == "least-loaded-host"

    def test_instances_pass_through(self):
        router = RoundRobinHostRouter()
        assert get_cluster_router(router) is router

    def test_unknown_name_lists_policies(self):
        with pytest.raises(ValueError, match="earliest-finish-host"):
            get_cluster_router("random")

    def test_factories_build_fresh_instances(self):
        assert get_cluster_router("round-robin-host") is not get_cluster_router(
            "round-robin-host"
        )


class TestPolicies:
    def test_earliest_finish_prefers_the_fastest_prediction(self):
        hosts = [FakeHost(0, predicted=5.0), FakeHost(1, predicted=2.0)]
        assert get_cluster_router("earliest-finish-host").pick(hosts, request(), 0.0).host_id == 1

    def test_earliest_finish_ties_break_by_host_id(self):
        hosts = [FakeHost(1, predicted=2.0), FakeHost(0, predicted=2.0)]
        assert get_cluster_router("earliest-finish-host").pick(hosts, request(), 0.0).host_id == 0

    def test_least_loaded_ranks_by_busy_then_pending(self):
        hosts = [
            FakeHost(0, remaining=4.0),
            FakeHost(1, remaining=1.0, pending=3),
            FakeHost(2, remaining=1.0, pending=1),
        ]
        assert get_cluster_router("least-loaded-host").pick(hosts, request(), 0.0).host_id == 2

    @pytest.mark.parametrize("name", ["least-loaded-host", "partition-affinity"])
    def test_least_loaded_ties_break_by_host_id(self, name):
        hosts = [FakeHost(2, remaining=1.0, pending=1), FakeHost(1, remaining=1.0, pending=1)]
        assert get_cluster_router(name).pick(hosts, request(), 0.0).host_id == 1

    def test_round_robin_cycles_in_order(self):
        hosts = [FakeHost(0), FakeHost(1), FakeHost(2)]
        router = RoundRobinHostRouter()
        picks = [router.pick(hosts, request(i), 0.0).host_id for i in range(5)]
        assert picks == [0, 1, 2, 0, 1]

    def test_partition_affinity_without_a_plan_falls_back(self):
        hosts = [FakeHost(0, remaining=9.0), FakeHost(1, remaining=1.0)]
        assert PartitionAffinityRouter().pick(hosts, request(), 0.0).host_id == 1

    def test_partition_affinity_pins_covered_models_to_stage_zero(self):
        from repro.cluster import partition_graph
        from repro.frontend import load

        plan = partition_graph(load("squeezenet", 1), 2, model="squeezenet")
        router = PartitionAffinityRouter()
        router.plan = plan
        hosts = [FakeHost(0, remaining=9.0), FakeHost(1, remaining=1.0)]
        picked = router.pick(hosts, request(model="squeezenet"), 0.0)
        assert picked.host_id == plan.host_of_stage(0)
        # A model the plan does not cover falls back to least-loaded.
        assert router.pick(hosts, request(model="other"), 0.0).host_id == 1
