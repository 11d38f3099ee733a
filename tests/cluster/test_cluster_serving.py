"""End-to-end cluster serving: golden equivalence, determinism, behavior."""

from __future__ import annotations

import itertools

import pytest

from repro.cluster import (
    ClusterConfig,
    ClusterLoop,
    Host,
    HostSpec,
    LinkModel,
    get_cluster_router,
    run_cluster_serving,
)
from repro.obs import Tracer, chrome_trace_json, default_alert_rules
from repro.serve import (
    AutoscaleConfig,
    BatchPolicy,
    InferenceService,
    ServingConfig,
    TrafficConfig,
    TrafficGenerator,
)
from repro.serve.experiment import run_serving
from repro.serve.loop import ServingLoop


def traffic(**overrides) -> TrafficConfig:
    base = dict(
        model="squeezenet",
        pattern="bursty",
        num_requests=48,
        rate_rps=150.0,
        burst_size=8,
        slo_ms=120.0,
        seed=5,
    )
    base.update(overrides)
    return TrafficConfig(**base)


def serving(**overrides) -> ServingConfig:
    base = dict(
        model="squeezenet",
        devices=("k80",),
        batch_sizes=(1, 2, 4),
        policy=BatchPolicy(max_batch_size=4, max_wait_ms=3.0),
    )
    base.update(overrides)
    return ServingConfig(**base)


def counter_tracer() -> Tracer:
    ticks = itertools.count()
    return Tracer(clock=lambda: float(next(ticks)))


class TestGoldenEquivalence:
    """``--cluster 1`` must reproduce the single-host loop byte for byte."""

    def test_report_is_byte_identical(self):
        single = run_serving(traffic(), serving())
        cluster = run_cluster_serving(
            traffic(), ClusterConfig(serving=serving(), num_hosts=1)
        )
        assert cluster.describe() == single.describe()
        assert cluster.report.records == single.records

    def test_report_is_byte_identical_under_admission_and_fleet(self):
        config = serving(
            devices=("v100",), fleet="k80:1,v100:1", admission="deadline"
        )
        single = run_serving(traffic(), config)
        cluster = run_cluster_serving(
            traffic(), ClusterConfig(serving=config, num_hosts=1)
        )
        assert cluster.describe() == single.describe()

    def test_trace_is_byte_identical(self):
        a, b = counter_tracer(), counter_tracer()
        run_serving(traffic(), serving(), tracer=a)
        run_cluster_serving(
            traffic(), ClusterConfig(serving=serving(), num_hosts=1), tracer=b
        )
        assert chrome_trace_json(a) == chrome_trace_json(b)


class TestDeterminism:
    """Same seed, same config → byte-identical outputs, run to run."""

    def _run(self, **cluster_overrides):
        config = ClusterConfig(
            serving=serving(), num_hosts=4, **cluster_overrides
        )
        tracer = counter_tracer()
        report = run_cluster_serving(traffic(), config, tracer=tracer)
        return report.describe(), chrome_trace_json(tracer)

    def test_replicated_run_is_deterministic(self):
        assert self._run() == self._run()

    def test_partitioned_run_is_deterministic(self):
        kwargs = dict(partition=True, router="partition-affinity")
        assert self._run(**kwargs) == self._run(**kwargs)


class TestDirectlyDrivenClusterLoop:
    def test_replaying_through_the_cluster_loop_twice_is_identical(self):
        # Every host's pool, router and autoscaler and the round-robin
        # cluster router start each run from their configured state.
        autoscale = AutoscaleConfig(
            min_workers=1, max_workers=2, interval_ms=1.0, scale_up_backlog_ms=2.0
        )
        config = ClusterConfig(
            serving=serving(admission="deadline", autoscale=autoscale), num_hosts=2
        )
        hosts = [
            Host(host_id, spec, InferenceService(config.serving))
            for host_id, spec in enumerate(config.host_specs())
        ]
        loop = ClusterLoop(hosts, get_cluster_router("round-robin-host"), LinkModel())
        # An odd count leaves the round-robin rotation mid-cycle.
        requests = TrafficGenerator(traffic(num_requests=95)).generate()
        first = loop.run(requests)
        second = loop.run(requests)
        assert any(result.scale_events for result in first.host_results)
        assert second.records == first.records
        assert second.rejected == first.rejected
        assert second.routed == first.routed
        assert [r.scale_events for r in second.host_results] == [
            r.scale_events for r in first.host_results
        ]


class TestReplicatedCluster:
    def test_every_request_served_exactly_once(self):
        report = run_cluster_serving(
            traffic(), ClusterConfig(serving=serving(), num_hosts=3)
        )
        ids = sorted(r.request.request_id for r in report.report.records)
        assert ids == list(range(48))
        assert sum(report.routed.values()) == 48
        assert sum(len(r) for r in report.records_by_host.values()) == 48

    def test_describe_adds_cluster_and_host_rows(self):
        report = run_cluster_serving(
            traffic(), ClusterConfig(serving=serving(), num_hosts=2)
        )
        text = report.describe()
        assert "cluster   : 2 hosts" in text
        assert "host0" in text and "host1" in text

    def test_memory_bounds_filter_routing(self):
        # squeezenet carries ~5 MB of weights: only host 0 can hold it.
        report = run_cluster_serving(
            traffic(),
            ClusterConfig(
                serving=serving(),
                num_hosts=3,
                host_memory_gb=(1.0, 1e-3, 1e-3),
            ),
        )
        assert set(report.routed) == {0}

    def test_no_fitting_host_raises(self):
        with pytest.raises(ValueError, match="no host can hold"):
            run_cluster_serving(
                traffic(),
                ClusterConfig(serving=serving(), num_hosts=2, host_memory_gb=1e-3),
            )

    def test_ingress_serialisation_delays_deliveries(self):
        # A very slow ingress NIC turns client deliveries into modeled
        # transfers and pushes completions later than the instant-delivery run.
        instant = run_cluster_serving(
            traffic(), ClusterConfig(serving=serving(), num_hosts=1)
        )
        slow = run_cluster_serving(
            traffic(),
            ClusterConfig(
                serving=serving(),
                num_hosts=1,
                link=LinkModel(ingress_gb_s=0.01),
            ),
        )
        assert slow.transfers.count == 48
        assert (
            slow.report.latency.mean_ms > instant.report.latency.mean_ms
        )

    def test_per_host_alerts_are_isolated_and_renamed(self):
        report = run_cluster_serving(
            traffic(num_requests=64, rate_rps=2000.0),
            ClusterConfig(serving=serving(), num_hosts=2),
            alerts=default_alert_rules(slo_ms=120.0, queue_limit=4.0),
        )
        names = {event.rule for event in report.report.alerts}
        assert names, "the overload burst should trip at least one alert"
        assert all(name.startswith(("host0-", "host1-")) for name in names)


class TestPartitionedCluster:
    @pytest.fixture(scope="class")
    def report(self):
        return run_cluster_serving(
            traffic(),
            ClusterConfig(
                serving=serving(),
                num_hosts=3,
                partition=True,
                router="partition-affinity",
            ),
        )

    def test_every_stage_handoff_is_followed_by_a_scale_check(self, monkeypatch):
        # A host's scale-check chain stops when it goes idle between bursts;
        # the stage handoffs that reach it later must start the chain again.
        checks, arrivals = {}, {}
        on_check, arrive = ServingLoop._on_scale_check, ServingLoop.arrive

        def record_check(loop, time_ms, payload):
            checks.setdefault(id(loop), []).append(time_ms)
            on_check(loop, time_ms, payload)

        def record_arrival(loop, time_ms, request):
            arrivals.setdefault(id(loop), []).append(time_ms)
            arrive(loop, time_ms, request)

        monkeypatch.setattr(ServingLoop, "_on_scale_check", record_check)
        monkeypatch.setattr(ServingLoop, "arrive", record_arrival)
        elastic = ServingConfig(
            model="squeezenet", devices=("k80",), batch_sizes=(1, 2, 4, 8),
            policy=BatchPolicy(max_batch_size=8, max_wait_ms=2.0),
            autoscale=AutoscaleConfig(min_workers=1, max_workers=3, interval_ms=1.0),
        )
        run_cluster_serving(
            TrafficConfig(
                model="squeezenet", pattern="bursty", num_requests=240, seed=11
            ).capped_to(8),
            ClusterConfig(
                serving=elastic, num_hosts=4, partition=True,
                router="partition-affinity", link="bw=12.5,lat=0.05",
            ),
        )
        assert len(arrivals) == 4
        for loop, times in arrivals.items():
            assert len(times) == 240
            assert max(checks[loop]) >= max(times)

    def test_one_transfer_per_stage_boundary(self, report):
        assert report.plan is not None
        assert report.transfers.count == 48 * (report.plan.num_stages - 1)
        assert report.transfers.total_ms > 0

    def test_end_to_end_records_against_original_requests(self, report):
        ids = sorted(r.request.request_id for r in report.report.records)
        assert ids == list(range(48))
        for record in report.report.records:
            assert record.request.model == "squeezenet"
            # End-to-end latency spans all stages plus transfers.
            assert record.completion_ms > record.request.arrival_ms

    def test_final_stage_host_owns_the_e2e_records(self, report):
        final_host = report.plan.host_of_stage(report.plan.num_stages - 1)
        assert set(report.records_by_host) >= {final_host}
        assert len(report.records_by_host[final_host]) == 48

    def test_intermediate_hosts_report_stage_work(self, report):
        entry_host = report.plan.host_of_stage(0)
        stage_report = report.host_reports[entry_host]
        assert stage_report is not None
        assert stage_report.num_requests == 48
        text = report.describe()
        assert "stage requests" in text
        assert "partition of 'squeezenet'" in text

    def test_transfer_spans_land_on_host_link_tracks(self):
        tracer = counter_tracer()
        run_cluster_serving(
            traffic(),
            ClusterConfig(serving=serving(), num_hosts=2, partition=True),
            tracer=tracer,
        )
        tracks = {record.track for record in tracer.records}
        assert "host0 link/send" in tracks
        assert "host1 link/recv" in tracks
        transfer_spans = [
            record
            for record in tracer.records
            if getattr(record, "category", None) == "transfer"
        ]
        assert transfer_spans


class TestClusterConfig:
    def test_host_fleet_count_must_match(self):
        with pytest.raises(ValueError, match="2 entries"):
            ClusterConfig(
                serving=serving(), num_hosts=3, host_fleets=("k80:1", "v100:1")
            )

    def test_memory_scalar_broadcasts(self):
        config = ClusterConfig(serving=serving(), num_hosts=3, host_memory_gb=2.0)
        assert config.host_memory_gb == (2.0, 2.0, 2.0)
        assert all(spec.memory_gb == 2.0 for spec in config.host_specs())

    def test_router_names_resolve_eagerly(self):
        with pytest.raises(ValueError, match="unknown cluster router"):
            ClusterConfig(serving=serving(), router="nope")

    def test_link_spec_strings_parse(self):
        config = ClusterConfig(serving=serving(), link="bw=5,lat=0.2")
        assert config.link == LinkModel(bandwidth_gb_s=5.0, latency_ms=0.2)

    def test_num_hosts_must_be_positive(self):
        with pytest.raises(ValueError, match="num_hosts"):
            ClusterConfig(serving=serving(), num_hosts=0)

    def test_host_specs_describe_the_fleet(self):
        config = ClusterConfig(
            serving=serving(), num_hosts=2, host_fleets=("k80:2", "v100:1")
        )
        specs = config.host_specs()
        assert [spec.fleet.describe() for spec in specs] == ["k80:2", "v100:1"]
        assert isinstance(specs[0], HostSpec)

    def test_registry_conflicts_with_partitioning(self):
        from repro.serve import ScheduleRegistry

        with pytest.raises(ValueError, match="registry"):
            run_cluster_serving(
                traffic(),
                ClusterConfig(serving=serving(), num_hosts=2, partition=True),
                registry=ScheduleRegistry(),
            )
