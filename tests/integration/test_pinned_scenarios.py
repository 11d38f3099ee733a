"""Pinned outputs of three seeded serving scenarios and three cold compiles.

Everything pinned here is deterministic. The serving loops run on a virtual
clock, and the DP's work counts do not depend on the machine. So every pin is
an exact equality: a change that moves one latency by one ulp fails.

Serving scenarios, 240 requests each unless noted:

* bursty: squeezenet on a ``k80:1,v100:2`` fleet, bursty deadline-carrying
  traffic, deadline admission, seed 0;
* transformer: ``examples/transformer_block.json`` served from its file on two
  v100 workers with the pass pipeline, seed 5;
* cluster: squeezenet partitioned across four k80 hosts over a
  ``bw=12.5,lat=0.05`` link, seed 11;
* elastic-cluster: squeezenet replicated on three elastic k80 hosts
  (deadline admission, autoscaled 1-3 workers) behind a modeled ingress
  link, 400 bursty requests, seed 11.  Every arrival is an ingress
  delivery, most are rejected and every host scales, so it pins how host
  events interleave with cluster deliveries.

Each pins its latency, throughput and attainment figures and a sha256 over
every completed and rejected request; elastic-cluster also pins each host's
batch closes by reason and its scale events.

Cold compiles on ``Engine("v100")`` without passes: squeezenet, inception_v3
and the zoo ``transformer_block``. Each pins its latency and the search's
work: DP transitions, cost-model measurements and block searches. A recompile
must return the cached object, and an artifact reload must search nothing.

Wall-clock time is measured by ``bench/run.py`` alone.

When a change is *meant* to alter these outputs, recompute the pins with
``PYTHONPATH=src python tests/integration/test_pinned_scenarios.py`` and say
why in the change.
"""

from __future__ import annotations

import hashlib
from dataclasses import replace
from pathlib import Path

import pytest

from repro.cluster import ClusterConfig, run_cluster_serving
from repro.core import IOSScheduler
from repro.engine import CompiledModel, Engine
from repro.serve import (
    AutoscaleConfig,
    BatchPolicy,
    ServingConfig,
    TrafficConfig,
    run_serving,
)

TRANSFORMER_EXAMPLE = str(
    Path(__file__).resolve().parents[2] / "examples" / "transformer_block.json"
)
LADDER = (1, 2, 4, 8)
POLICY = BatchPolicy(max_batch_size=8, max_wait_ms=2.0)

SERVING_PINS = {
    "bursty": {
        "p50_ms": 2.25838978421411,
        "p99_ms": 3.4881688022114132,
        "mean_queue_ms": 0.7065943799385976,
        "throughput_rps": 1140.956750831348,
        "attainment": 1.0,
        "records_sha256": "95f41fefaa28b5bd8ecf74281d8877f2b1ebb6593a8b7766f308c8740b6e5c1b",
    },
    "cluster": {
        "attainment": 1.0,
        "p99_ms": 27.263319975790736,
        "transfers": 720,
        "transfer_ms": 137.29244159999948,
        "records_sha256": "a160c03d1914519f4340fc8fb0713e8704141da18ffb2e97ee443fd5f139515a",
    },
    "elastic-cluster": {
        "attainment": 0.3175,
        "p99_ms": 14.974239292236359,
        "rejected": 272,
        "transfers": 400,
        "transfer_ms": 34314.977228382246,
        "closes": [{"timeout": 2.0}, {"timeout": 43.0}, {"timeout": 39.0}],
        "scale_events": [2, 26, 24],
        "records_sha256": "437da6e9cffb525abd32897febff936aae41429998b910084ee3a74e2a44eb40",
    },
    "transformer": {
        "p99_ms": 2.1246612475845836,
        "attainment": 1.0,
        "records_sha256": "bd58006cfba06f98e60e789963909a3595c96bfa58e991dcb9c1d685bf1c78ff",
    },
}

COMPILE_PINS = {
    "inception_v3": {
        "latency_ms": 2.7749268310903514,
        "transitions": 25105,
        "measurements": 1897,
        "block_searches": 12,
    },
    "squeezenet": {
        "latency_ms": 0.5629467111932962,
        "transitions": 118,
        "measurements": 74,
        "block_searches": 10,
    },
    "transformer_block": {
        "latency_ms": 0.10683334136725602,
        "transitions": 2811,
        "measurements": 210,
        "block_searches": 4,
    },
}


def records_sha256(report) -> str:
    """sha256 over every completed and rejected request, in request-id order.

    The model name is blanked: the transformer is served from a file path,
    which differs between checkouts.
    """
    finished = sorted(
        [*report.records, *report.rejected], key=lambda item: item.request.request_id
    )
    digest = hashlib.sha256()
    for item in finished:
        digest.update(repr(replace(item, request=replace(item.request, model=""))).encode())
        digest.update(b"\n")
    return digest.hexdigest()


def bursty() -> dict:
    report = run_serving(
        TrafficConfig(
            model="squeezenet", pattern="bursty", num_requests=240, rate_rps=2000.0,
            burst_size=24, burst_gap_ms=25.0, slo_ms=25.0, seed=0,
        ).capped_to(8),
        ServingConfig(
            model="squeezenet", fleet="k80:1,v100:2", batch_sizes=LADDER,
            policy=POLICY, admission="deadline",
        ),
    )
    return {
        "p50_ms": report.latency.p50_ms,
        "p99_ms": report.latency.p99_ms,
        "mean_queue_ms": report.queue_delay.mean_ms,
        "throughput_rps": report.throughput_rps,
        "attainment": report.slo_summary.attainment_rate,
        "records_sha256": records_sha256(report),
    }


def transformer() -> dict:
    report = run_serving(
        TrafficConfig(
            model=TRANSFORMER_EXAMPLE, pattern="bursty", num_requests=240,
            rate_rps=600.0, burst_size=16, burst_gap_ms=25.0, slo_ms=30.0, seed=5,
        ).capped_to(8),
        ServingConfig(
            model=TRANSFORMER_EXAMPLE, devices=("v100", "v100"), batch_sizes=LADDER,
            policy=POLICY, passes=True, admission="deadline",
        ),
    )
    return {
        "p99_ms": report.latency.p99_ms,
        "attainment": report.slo_summary.attainment_rate,
        "records_sha256": records_sha256(report),
    }


def cluster() -> dict:
    serving = ServingConfig(
        model="squeezenet", devices=("k80",), batch_sizes=LADDER, policy=POLICY
    )
    result = run_cluster_serving(
        TrafficConfig(
            model="squeezenet", pattern="bursty", num_requests=240, rate_rps=400.0,
            burst_size=32, burst_gap_ms=40.0, slo_ms=40.0, seed=11,
        ).capped_to(8),
        ClusterConfig(
            serving=serving, num_hosts=4, partition=True,
            router="partition-affinity", link="bw=12.5,lat=0.05",
        ),
    )
    return {
        "attainment": result.attainment,
        "p99_ms": result.report.latency.p99_ms,
        "transfers": result.transfers.count,
        "transfer_ms": result.transfers.total_ms,
        "records_sha256": records_sha256(result.report),
    }


def elastic_cluster() -> dict:
    serving = ServingConfig(
        model="squeezenet", devices=("k80",), batch_sizes=LADDER, policy=POLICY,
        admission="deadline",
        autoscale=AutoscaleConfig(
            min_workers=1, max_workers=3, interval_ms=1.0, scale_up_backlog_ms=2.0
        ),
    )
    result = run_cluster_serving(
        TrafficConfig(
            model="squeezenet", pattern="bursty", num_requests=400, rate_rps=400.0,
            burst_size=32, burst_gap_ms=25.0, slo_ms=15.0, seed=11,
        ).capped_to(8),
        ClusterConfig(
            serving=serving, num_hosts=3, link="bw=12.5,lat=0.05,ingress=0.5"
        ),
    )
    return {
        "attainment": result.attainment,
        "p99_ms": result.report.latency.p99_ms,
        "rejected": len(result.report.rejected),
        "transfers": result.transfers.count,
        "transfer_ms": result.transfers.total_ms,
        "closes": [
            report.metrics.counter("serve.batch.closes").by_label("reason")
            for report in result.host_reports
        ],
        "scale_events": [len(report.scale_events) for report in result.host_reports],
        "records_sha256": records_sha256(result.report),
    }


SCENARIOS = {
    "bursty": bursty,
    "transformer": transformer,
    "cluster": cluster,
    "elastic-cluster": elastic_cluster,
}


def cold_compile(model: str) -> tuple[Engine, CompiledModel]:
    """A compile on a fresh engine."""
    engine = Engine("v100")
    return engine, engine.compile_model(model)


def compile_work(compiled: CompiledModel) -> dict:
    schedule = compiled.stats.stage("schedule").detail
    return {
        "latency_ms": compiled.latency_ms(),
        "transitions": schedule["transitions"],
        "measurements": compiled.stats.num_measurements,
        "block_searches": schedule["block_searches"],
    }


@pytest.mark.parametrize("name", sorted(SERVING_PINS))
def test_serving_scenario_matches_its_pins(name):
    assert SCENARIOS[name]() == SERVING_PINS[name]


@pytest.fixture(scope="module")
def compiles() -> dict[str, tuple[Engine, CompiledModel]]:
    return {model: cold_compile(model) for model in COMPILE_PINS}


@pytest.mark.parametrize("model", sorted(COMPILE_PINS))
def test_cold_compile_matches_its_pins(compiles, model):
    _, compiled = compiles[model]
    assert compile_work(compiled) == COMPILE_PINS[model]


@pytest.mark.parametrize("model", sorted(COMPILE_PINS))
def test_a_recompile_returns_the_cached_object(compiles, model):
    engine, compiled = compiles[model]
    searches = engine.stats.searches
    assert engine.compile_model(model) is compiled
    assert engine.stats.searches == searches


@pytest.mark.parametrize("model", sorted(COMPILE_PINS))
def test_an_artifact_reload_searches_nothing(compiles, model, tmp_path, monkeypatch):
    _, compiled = compiles[model]
    path = compiled.save(tmp_path / f"{model}.json")

    def forbidden(*args, **kwargs):
        raise AssertionError("an artifact reload ran a DP search")

    monkeypatch.setattr(IOSScheduler, "_search_block_dp", forbidden)
    reloaded = CompiledModel.load(path)
    assert not reloaded.stats.searched
    assert reloaded.latency_ms() == compiled.latency_ms()


if __name__ == "__main__":  # pragma: no cover - pin refresh helper
    print("SERVING_PINS = {")
    for name in sorted(SCENARIOS):
        print(f"    {name!r}: {SCENARIOS[name]()!r},")
    print("}\n\nCOMPILE_PINS = {")
    for model in sorted(COMPILE_PINS):
        print(f"    {model!r}: {compile_work(cold_compile(model)[1])!r},")
    print("}")
