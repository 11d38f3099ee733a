"""Tests for heterogeneous fleets: FleetSpec, routers, mixed-device serving."""

from __future__ import annotations

import pytest

from repro.hardware import get_device
from repro.serve import (
    BatchPolicy,
    FleetSpec,
    InferenceService,
    RoundRobinRouter,
    Router,
    ScheduleRegistry,
    ServingConfig,
    TrafficConfig,
    TrafficGenerator,
    WorkerPool,
    get_router,
    list_routers,
    run_fleet_comparison,
)

MODEL = "squeezenet"
LADDER = (1, 2, 4)


def traffic(num_requests=120, rate_rps=2500.0, seed=7, **overrides):
    config = TrafficConfig(
        model=MODEL, num_requests=num_requests, rate_rps=rate_rps, seed=seed,
        **overrides,
    ).capped_to(max(LADDER))
    return TrafficGenerator(config).generate()


def fleet_config(fleet, **overrides):
    overrides.setdefault("batch_sizes", LADDER)
    return ServingConfig(model=MODEL, fleet=fleet, **overrides)


class TestFleetSpec:
    def test_parse_groups_counts_and_expansion(self):
        fleet = FleetSpec.parse("k80:2,v100:4")
        assert fleet.groups == (("k80", 2), ("v100", 4))
        assert fleet.num_workers == 6
        assert fleet.device_names() == ("k80", "k80", "v100", "v100", "v100", "v100")
        assert fleet.device_types() == ("k80", "v100")
        assert not fleet.is_homogeneous
        assert fleet.describe() == "k80:2,v100:4" == str(fleet)

    def test_parse_bare_device_name_means_one_worker(self):
        fleet = FleetSpec.parse("v100")
        assert fleet.groups == (("v100", 1),)
        assert fleet.is_homogeneous

    def test_parse_rejects_repeated_device_groups(self):
        # A repeated group is almost always a typo'd count; merging would
        # hide it.  The message quotes the whole offending spec.
        with pytest.raises(ValueError, match=r"duplicate device group"):
            FleetSpec.parse("v100:1,k80:2,v100:2")
        with pytest.raises(ValueError, match=r"v100:1,k80:2,v100:2"):
            FleetSpec.parse("v100:1,k80:2,v100:2")

    def test_parse_rejects_duplicates_through_aliases(self):
        with pytest.raises(ValueError, match="duplicate device group 'v100'"):
            FleetSpec.parse("v100:1,Tesla-V100:2")

    def test_parse_errors_quote_the_full_spec(self):
        with pytest.raises(ValueError, match=r"k80:2,v100:x"):
            FleetSpec.parse("k80:2,v100:x")
        with pytest.raises(KeyError, match=r"k80:1,tpu:4"):
            FleetSpec.parse("k80:1,tpu:4")

    def test_device_aliases_canonicalise(self):
        fleet = FleetSpec.parse("2080ti:2,Tesla-V100:1")
        assert fleet.device_types() == ("rtx2080ti", "v100")

    def test_homogeneous_constructor(self):
        fleet = FleetSpec.homogeneous("k80", 3)
        assert fleet.groups == (("k80", 3),)
        assert fleet.num_workers == 3

    def test_of_accepts_spec_string_and_mapping(self):
        fleet = FleetSpec.parse("k80:1,v100:2")
        assert FleetSpec.of(fleet) is fleet
        assert FleetSpec.of("k80:1,v100:2") == fleet
        assert FleetSpec.of({"k80": 1, "v100": 2}) == fleet
        with pytest.raises(TypeError):
            FleetSpec.of(3)

    @pytest.mark.parametrize("bad", ["", ",", "v100:", "v100:zero", "v100:0",
                                     "v100:-1", ":3"])
    def test_malformed_specs_rejected(self, bad):
        with pytest.raises(ValueError):
            FleetSpec.parse(bad)

    def test_unknown_device_lists_the_catalog(self):
        with pytest.raises(KeyError, match="registered device names"):
            FleetSpec.parse("tpu:4")


class TestRouters:
    @pytest.fixture
    def pool(self, v100, k80):
        return WorkerPool([k80, v100])

    @staticmethod
    def no_estimate(worker):
        raise AssertionError("this router must not ask for latency estimates")

    def test_registry_lists_all_policies(self):
        assert list_routers() == sorted(
            ["earliest-finish", "earliest-start", "round-robin", "least-loaded"]
        )

    def test_get_router_normalises_spelling(self):
        assert get_router("EARLIEST_FINISH").name == "earliest-finish"
        router = RoundRobinRouter()
        assert get_router(router) is router

    def test_get_router_rejects_unknown_names(self):
        with pytest.raises(ValueError, match="registered router names"):
            get_router("random")

    def test_earliest_finish_prefers_the_faster_device_when_idle(self, pool):
        speed = {"k80": 5.0, "v100": 1.0}
        router = get_router("earliest-finish")
        picked = router.pick(pool.workers, 0.0, lambda w: speed[w.device.name])
        assert picked.device.name == "v100"

    def test_earliest_finish_falls_back_to_the_slow_device_under_queueing(self, pool):
        speed = {"k80": 5.0, "v100": 1.0}
        fast = next(w for w in pool.workers if w.device.name == "v100")
        fast.busy_until_ms = 100.0  # deep backlog on the fast worker
        router = get_router("earliest-finish")
        picked = router.pick(pool.workers, 0.0, lambda w: speed[w.device.name])
        assert picked.device.name == "k80"

    def test_earliest_start_ignores_device_speed(self, pool):
        # Both idle: the tie breaks by worker id, k80 first — and the router
        # must never consult the estimate.
        picked = get_router("earliest-start").pick(pool.workers, 0.0, self.no_estimate)
        assert picked.worker_id == 0

    def test_round_robin_cycles_without_estimates(self, pool):
        router = get_router("round-robin")
        order = [router.pick(pool.workers, 0.0, self.no_estimate).worker_id
                 for _ in range(4)]
        assert order == [0, 1, 0, 1]

    def test_least_loaded_balances_cumulative_busy_time(self, pool):
        pool.workers[0].busy_ms = 10.0
        picked = get_router("least-loaded").pick(pool.workers, 0.0, self.no_estimate)
        assert picked.worker_id == 1

    def test_earliest_finish_estimates_once_per_device_type_per_pick(self, v100, k80):
        pool = WorkerPool([k80, v100, k80, v100, v100])
        asked = []

        def estimate(worker):
            asked.append(worker.device.name)
            return {"k80": 5.0, "v100": 1.0}[worker.device.name]

        router = get_router("earliest-finish")
        for pick in range(1, 4):
            router.pick(pool.workers, 0.0, estimate)
            assert sorted(asked) == sorted(["k80", "v100"] * pick)

    @pytest.mark.parametrize("name", ["earliest-finish", "earliest-start", "least-loaded"])
    def test_ranking_ties_break_by_worker_id(self, name, v100):
        pool = WorkerPool([v100, v100, v100])
        workers = list(reversed(pool.workers))  # candidates out of id order
        picked = get_router(name).pick(workers, 0.0, lambda worker: 1.0)
        assert picked.worker_id == 0


class TestServingConfigFleet:
    def test_fleet_rewrites_devices_to_the_expanded_pool(self):
        config = fleet_config("k80:1,v100:2")
        assert config.devices == ("k80", "v100", "v100")
        assert isinstance(config.fleet, FleetSpec)

    def test_fleet_accepts_mapping_and_spec_objects(self):
        config = fleet_config({"v100": 2})
        assert config.devices == ("v100", "v100")
        assert fleet_config(FleetSpec.homogeneous("v100", 2)).devices == config.devices

    def test_router_name_is_validated_at_config_time(self):
        with pytest.raises(ValueError, match="registered router names"):
            fleet_config("v100:1", router="fastest")

    def test_router_spelling_is_normalised(self):
        assert fleet_config("v100:1", router="Round_Robin").router == "round-robin"

    def test_custom_router_instance_is_carried_through(self):
        class FirstWorkerRouter(Router):
            name = "first-worker"

            def pick(self, workers, ready_ms, estimate):
                return workers[0]

        router = FirstWorkerRouter()
        service = InferenceService(fleet_config("k80:1,v100:1", router=router))
        assert service.router is router
        report = service.run(traffic(num_requests=30))
        assert report.router == "first-worker"
        # Everything went to worker 0 (the k80), as the custom policy says.
        assert {record.worker_id for record in report.records} == {0}

    def test_unknown_fleet_device_fails_at_config_time(self):
        with pytest.raises(KeyError):
            fleet_config("h100:8")


class TestMixedFleetServing:
    def test_mixed_fleet_report_has_per_group_breakdown(self):
        service = InferenceService(fleet_config("k80:1,v100:1"))
        report = service.run(traffic())
        groups = {row["device"]: row for row in report.device_summary}
        assert set(groups) == {"k80", "v100"}
        for row in groups.values():
            assert row["workers"] == 1
            assert 0.0 <= row["utilization"] <= 1.0
        assert report.router == "earliest-finish"
        # Per-record device identity matches the worker that executed it.
        workers = {w.worker_id: w.device.name for w in service.pool.workers}
        assert all(r.device == workers[r.worker_id] for r in report.records)
        # The heavy traffic engaged the fast device at least.
        assert groups["v100"]["batches"] > 0

    def test_same_seed_and_fleet_spec_give_identical_reports(self):
        def run():
            service = InferenceService(fleet_config("k80:2,v100:2"))
            return service.run(traffic(seed=13))

        first, second = run(), run()
        assert first.throughput_rps == second.throughput_rps
        assert first.latency == second.latency
        assert first.queue_delay == second.queue_delay
        assert first.batch_size_counts == second.batch_size_counts
        assert [
            (r.request.request_id, r.worker_id, r.device, r.completion_ms)
            for r in first.records
        ] == [
            (r.request.request_id, r.worker_id, r.device, r.completion_ms)
            for r in second.records
        ]
        assert first.device_summary == second.device_summary

    def test_cold_device_type_compiles_on_first_dispatch(self, tmp_path):
        # Registry pre-warmed for v100 only: the k80 group has no entries yet.
        registry = ScheduleRegistry(root=tmp_path)
        registry.warmup(MODEL, LADDER, get_device("v100"))
        searches_after_warmup = registry.stats.searches
        assert searches_after_warmup == len(LADDER)
        k80_engine = registry.engine_for(get_device("k80"))
        assert k80_engine.compiled_models() == []

        service = InferenceService(fleet_config("k80:1,v100:1"), registry=registry)
        report = service.run(traffic())
        assert report.num_requests == 120
        # Routing estimates forced the k80 fan-out lazily — cold compiles
        # happened on the request path, not up front, and were persisted.
        assert registry.stats.searches > searches_after_warmup
        compiled = k80_engine.compiled_models()
        assert compiled and all(registry.path_for(MODEL, c.batch_size, "k80").exists()
                                for c in compiled)

    def test_warmup_compiles_once_per_device_type_not_per_replica(self):
        service = InferenceService(fleet_config("v100:3"))
        service.warmup()
        assert service.registry.stats.searches == len(LADDER)

    def test_earliest_start_router_on_mixed_fleet_wastes_the_fast_device(self):
        # Device-oblivious routing alternates onto the k80 whenever it is
        # free; the device-aware default routes around it at this load, so
        # earliest-finish must deliver lower mean latency.
        aware = InferenceService(
            fleet_config("k80:2,v100:2", router="earliest-finish")
        ).run(traffic())
        oblivious = InferenceService(
            fleet_config("k80:2,v100:2", router="earliest-start")
        ).run(traffic())
        assert aware.latency.mean_ms < oblivious.latency.mean_ms


class TestFleetComparison:
    def test_mixed_fleet_beats_the_worse_homogeneous_fleet(self):
        table = run_fleet_comparison(
            TrafficConfig(model=MODEL, num_requests=150, rate_rps=4000.0, seed=3),
            fleet_config("k80:2,v100:2", policy=BatchPolicy(max(LADDER), 5.0)),
            ("poisson",),
        )
        rows = {row["fleet"]: row for row in table.rows}
        assert set(rows) == {"k80:2,v100:2", "k80:4", "v100:4"}
        worse = min(rows["k80:4"]["throughput_rps"], rows["v100:4"]["throughput_rps"])
        assert rows["k80:2,v100:2"]["throughput_rps"] > worse
        # Per-device-group utilisation is reported for the mixed fleet.
        assert "k80:2@" in rows["k80:2,v100:2"]["groups"]
        assert "v100:2@" in rows["k80:2,v100:2"]["groups"]

    def test_registry_is_shared_across_fleets(self):
        table = run_fleet_comparison(
            TrafficConfig(model=MODEL, num_requests=60, rate_rps=3000.0),
            fleet_config("k80:1,v100:1", batch_sizes=(1, 2), policy=BatchPolicy(2, 5.0)),
            ("uniform",),
        )
        # Two device types × two rungs: four searches total, cumulative
        # across rows (later fleets reuse the earlier fleets' artifacts).
        assert table.rows[-1]["searches"] == 4
