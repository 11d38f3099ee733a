"""Pinned metrics exports of the serving and cluster loops.

Request records are pinned elsewhere; these digests pin what the loops write
into their metrics registries.  A family created where none was before, a new
empty series, or a float fold summed in another order changes the exported
JSON and fails the digest.

The three runs mirror the benchmark's serving workloads at a small scale:

* steady: deadline admission on a ``k80:1,v100:2`` fleet, Poisson load;
* overload: priority admission on an elastic k80 pool (``1:4``), 20 ms
  windows and the default alert rules — its windowed export is pinned too;
* a squeezenet pipeline partitioned across four hosts.

When a change is *meant* to alter the metrics output, recompute the digests
with ``PYTHONPATH=src python tests/obs/test_metrics_digests.py`` and say why in
the change.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.cluster import ClusterConfig, run_cluster_serving
from repro.obs import default_alert_rules
from repro.serve import (
    BatchPolicy,
    InferenceService,
    ServingConfig,
    TrafficConfig,
    TrafficGenerator,
)

LADDER = (1, 2, 4, 8)
POLICY = BatchPolicy(max_batch_size=8, max_wait_ms=2.0)

DIGESTS = {
    "steady": "6209d68de0bd23c1f82893bb6ca40e32099c7a01282de549b4f46d98301ab907",
    "overload": "e02e4a186d05de5a6161225025a8627256105def3412d9b9b5d717935669466c",
    "overload-windows": "b75b71426c6a471c0c906b6d95fc944562cfef5b7320b71441e76bce57b67bd9",
    "cluster": "5c20db18c877305cf43c37ea5bbb859d32525032d21abc6a0df147d4a771788a",
}


def _sha256(documents: list[str]) -> str:
    return hashlib.sha256("\n".join(documents).encode()).hexdigest()


def steady_exports() -> dict[str, list[str]]:
    service = InferenceService(ServingConfig(
        model="squeezenet", fleet="k80:1,v100:2", batch_sizes=LADDER, policy=POLICY,
        admission="deadline",
    ))
    requests = TrafficGenerator(TrafficConfig(
        model="squeezenet", pattern="poisson", num_requests=600, rate_rps=3000.0,
        slo_ms=25.0, seed=0,
    )).generate()
    return {"steady": [service.run(requests).metrics.to_json()]}


def overload_exports() -> dict[str, list[str]]:
    service = InferenceService(
        ServingConfig(
            model="squeezenet", devices=("k80",), batch_sizes=LADDER, policy=POLICY,
            admission="priority", autoscale="1:4",
        ),
        alerts=default_alert_rules(slo_ms=20.0), window_ms=20.0,
    )
    requests = TrafficGenerator(TrafficConfig(
        model="squeezenet", pattern="bursty", num_requests=600, burst_size=64,
        burst_gap_ms=30.0, priorities=(0, 1, 2), priority_weights=(0.2, 0.3, 0.5),
        slo_ms=20.0, seed=3,
    )).generate()
    metrics = service.run(requests).metrics
    return {
        "overload": [metrics.to_json()],
        "overload-windows": [
            json.dumps(metrics.window_snapshot(), indent=2, sort_keys=True)
        ],
    }


def cluster_exports() -> dict[str, list[str]]:
    serving = ServingConfig(model="squeezenet", devices=("k80",), batch_sizes=LADDER,
                            policy=POLICY)
    result = run_cluster_serving(
        TrafficConfig(model="squeezenet", pattern="poisson", num_requests=400,
                      rate_rps=1000.0, slo_ms=40.0, seed=11),
        ClusterConfig(serving=serving, num_hosts=4, partition=True,
                      router="partition-affinity", link="bw=12.5,lat=0.05"),
    )
    return {"cluster": [result.cluster_metrics.to_json()] + [
        report.metrics.to_json() for report in result.host_reports if report is not None
    ]}


RUNS = {
    "steady": steady_exports,
    "overload": overload_exports,
    "overload-windows": overload_exports,
    "cluster": cluster_exports,
}


@pytest.fixture(scope="module")
def exports() -> dict[str, list[str]]:
    out: dict[str, list[str]] = {}
    for build in dict.fromkeys(RUNS.values()):
        out.update(build())
    return out


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_metrics_export_matches_its_pinned_digest(exports, name):
    assert _sha256(exports[name]) == DIGESTS[name]


def _reject_constant(name: str):
    raise AssertionError(f"metrics export holds a bare {name}, which is not JSON")


def test_pinned_exports_are_strict_json(exports):
    for documents in exports.values():
        for document in documents:
            json.loads(document, parse_constant=_reject_constant)


if __name__ == "__main__":  # pragma: no cover - digest refresh helper
    built: dict[str, list[str]] = {}
    for build in dict.fromkeys(RUNS.values()):
        built.update(build())
    for name in sorted(built):
        print(f'    "{name}": "{_sha256(built[name])}",')
