"""Memory a standalone serving run peaks at, per request.

Each served request's latency and queue delay are stored once, in the run's
report fold, which the ``serve.latency_ms`` and ``serve.queue_delay_ms``
histograms read instead of keeping arrays of their own, and which the report
reads instead of building arrays at report time.  The test measures the
:mod:`tracemalloc` peak of a run and its report as the slope between a short
and a long run of the benchmark's serve-steady configuration, so that the
compiled schedules, the registry and everything else of fixed size cancel
out.  The requests are generated before the measurement starts.
"""

from __future__ import annotations

import gc
import tracemalloc

from repro.serve import (
    BatchPolicy,
    InferenceService,
    ServingConfig,
    TrafficConfig,
    TrafficGenerator,
)

SHORT, LONG = 2_000, 8_000

#: Peak bytes a run may add per request.  Python 3.10 to 3.13 measure about
#: 166 here: the record and its list slot, the dispatch floats records
#: share, the fold's two floats, and the report's sorted copy of one float
#: series.  Each further store of both floats adds about 17; with the
#: histograms' own arrays and the four arrays a report used to build, the
#: peak was about 200.  175 sits about halfway to one further store, so the
#: test fails when either float is stored twice again.
MAX_PEAK_BYTES_PER_REQUEST = 175


def peak_bytes(num_requests: int) -> int:
    """Peak bytes allocated, beyond the start, while serving and reporting."""
    service = InferenceService(ServingConfig(
        model="squeezenet", fleet="k80:1,v100:2", batch_sizes=(1, 2, 4, 8),
        policy=BatchPolicy(max_batch_size=8, max_wait_ms=2.0), admission="deadline",
    ))
    service.warmup()
    requests = TrafficGenerator(TrafficConfig(
        model="squeezenet", pattern="poisson", num_requests=num_requests,
        rate_rps=3000.0, slo_ms=25.0, seed=11,
    )).generate()
    gc.collect()
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        report = service.run(requests)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if started:
            tracemalloc.stop()
    assert report.num_requests + len(report.rejected) == num_requests
    return peak


def test_a_served_request_stores_its_floats_once():
    peak_bytes(SHORT)  # what only a process's first run allocates
    slope = (peak_bytes(LONG) - peak_bytes(SHORT)) / (LONG - SHORT)
    assert slope <= MAX_PEAK_BYTES_PER_REQUEST
