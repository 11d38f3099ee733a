"""Benchmark: serving throughput of the dynamic batcher vs. no batching.

Serves an overloaded synthetic workload through the ``repro.serve`` pipeline
(batcher → schedule registry → simulated worker pool) twice — once with
dynamic batching onto batch-size-specialised schedules, once executing every
request by itself — and prints requests/sec and p50/p95 latency for both.
Under overload, batching onto specialised schedules must win throughput.
"""

from conftest import full_run, run_once

from repro.serve import BatchPolicy, ServingConfig, TrafficConfig, run_serving_comparison


def _rows(table, pattern):
    by = {(row["pattern"], row["policy"]): row for row in table.rows}
    return by[(pattern, "dynamic")], by[(pattern, "unbatched")]


def test_serving_throughput_overloaded(benchmark, device_name):
    num_requests = 1000 if full_run() else 300
    traffic = TrafficConfig(
        model="squeezenet", num_requests=num_requests, rate_rps=3000.0,
        burst_size=32, burst_gap_ms=5.0,
    )
    serving = ServingConfig(
        model="squeezenet", devices=(device_name,),
        policy=BatchPolicy(max_batch_size=16, max_wait_ms=3.0),
    )
    table = run_once(
        benchmark, run_serving_comparison, traffic, serving, ("poisson", "bursty"),
    )
    for pattern in ("poisson", "bursty"):
        dynamic, unbatched = _rows(table, pattern)
        # Overload: arrivals outpace per-request execution, so batching onto
        # specialised schedules must deliver strictly higher throughput...
        assert dynamic["throughput_rps"] > 1.2 * unbatched["throughput_rps"]
        # ...and it does so with far fewer device launches.
        assert dynamic["batches"] < unbatched["batches"]
    # The registry is shared across all four runs: one search per ladder rung
    # (plus the unbatched single-sample rung), never one per run.
    assert table.rows[-1]["searches"] == table.rows[0]["searches"]


def test_serving_latency_light_load(benchmark, device_name):
    """Light load: batching must not blow up tail latency beyond the wait bound."""
    traffic = TrafficConfig(
        model="squeezenet", num_requests=200 if not full_run() else 500, rate_rps=100.0,
    )
    serving = ServingConfig(
        model="squeezenet", devices=(device_name,) * 2,
        policy=BatchPolicy(max_batch_size=16, max_wait_ms=2.0),
    )
    table = run_once(benchmark, run_serving_comparison, traffic, serving, ("poisson",))
    dynamic, unbatched = _rows(table, "poisson")
    # The p95 penalty of waiting for batches is bounded by the policy knob
    # plus one batch execution.
    assert dynamic["p95_ms"] <= unbatched["p95_ms"] + 2.0 + dynamic["p50_ms"] + 1.0
