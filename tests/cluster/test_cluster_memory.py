"""Memory a partitioned cluster replay retains per request.

A 4-host pipeline used to keep every stage's ``RequestRecord`` (and the
stage ``InferenceRequest`` it points at) to the end of the run, although only
the final stage's records reach the end-to-end report.  The intermediate
stage hosts now fold their records into their reports' summaries and drop
them.  The test measures what a finished replay still holds with
:mod:`tracemalloc`, as the slope between a short and a long replay of the
same configuration, so that the compiled stage schedules, the registry and
everything else of fixed size cancel out.
"""

from __future__ import annotations

import gc
import tracemalloc

from repro.cluster import ClusterConfig, run_cluster_serving
from repro.serve import BatchPolicy, ServingConfig, TrafficConfig

SHORT, LONG = 2_000, 8_000

#: Bytes a finished replay may hold per request.  Python 3.11 measures about
#: 606 here (the traffic, the end-to-end and final-stage records, the stage
#: requests of the final host, the journeys, the metric series and the
#: intermediate hosts' report floats) against about 1,310 when every stage
#: kept its records.  900 sits about halfway, so the test fails when the
#: intermediate stages keep their records again, yet leaves room for a
#: Python version whose objects are a little larger.
MAX_BYTES_PER_REQUEST = 900


def retained_bytes(num_requests: int) -> int:
    """Bytes still allocated, beyond the start, while the report is alive."""
    serving = ServingConfig(
        model="squeezenet", devices=("k80",), batch_sizes=(1, 2, 4, 8),
        policy=BatchPolicy(max_batch_size=8, max_wait_ms=2.0),
    )
    cluster = ClusterConfig(serving=serving, num_hosts=4, partition=True,
                            router="partition-affinity", link="bw=12.5,lat=0.05")
    traffic = TrafficConfig(model="squeezenet", pattern="poisson",
                            num_requests=num_requests, rate_rps=1000.0,
                            slo_ms=40.0, seed=11)
    gc.collect()
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        report = run_cluster_serving(traffic, cluster)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        if started:
            tracemalloc.stop()
    assert len(report.report.records) == num_requests
    return retained


def test_partitioned_replay_retains_a_bounded_number_of_bytes_per_request():
    slope = (retained_bytes(LONG) - retained_bytes(SHORT)) / (LONG - SHORT)
    assert slope <= MAX_BYTES_PER_REQUEST
