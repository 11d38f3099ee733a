"""Memory a partitioned cluster replay retains per request.

A 4-host pipeline used to keep every stage's ``RequestRecord`` (and the
stage ``InferenceRequest`` it points at) to the end of the run, although only
the end-to-end records reach the cluster's report.  Every stage host now
folds its records into its report's summaries and drops them; the final
stage's host builds the end-to-end record at its dispatch.  The test
measures what a finished replay still holds with :mod:`tracemalloc`, as the
slope between a short and a long replay of the same configuration, so that
the compiled stage schedules, the registry and everything else of fixed
size cancel out.
"""

from __future__ import annotations

import gc
import tracemalloc

from repro.cluster import ClusterConfig, run_cluster_serving
from repro.serve import BatchPolicy, ServingConfig, TrafficConfig

SHORT, LONG = 2_000, 8_000

#: Bytes a finished replay may hold per request.  Python 3.11 to 3.13 measure
#: about 370 here (3.10 about 331): the traffic, the end-to-end records, the
#: four hosts' folds and the cluster report's, and the transfer histograms.
#: It was about 606 while the final stage's host kept its stage records and
#: requests and the latency histograms kept arrays of their own, and about
#: 1,310 when every stage kept its records.  488 sits halfway between 370 and
#: 606, so the test fails when either store comes back.
MAX_BYTES_PER_REQUEST = 488


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
