"""Memory bounds of tracing: what a sampler retains, and the export's peak.

Both tests measure with :mod:`tracemalloc` on a fresh tracer fed one
synthetic trace: 20,000 kernel spans on one track plus 4,000 four-record
request lifecycles, each stamped with its own float timestamps as the
serving loop stamps them.  The budgets keep every record, so the sampler
holds the whole trace in its buffers.
"""

from __future__ import annotations

import gc
import tracemalloc
from contextlib import contextmanager

from repro.obs import SamplingConfig, SamplingTracer, chrome_trace_json

SPANS = 20_000
LIFECYCLES = 4_000

#: Bytes a sampler may retain per record, the records themselves included.
#: The seq arrays measure about 202 here; ``(seq, record)`` pairs about 270.
MAX_BYTES_PER_RECORD = 220

#: The export's peak above its start, as a multiple of the text's length:
#: about 2.0 (the text plus its chunks) when events are joined in blocks,
#: about 2.6 when every event is a chunk of its own.
MAX_EXPORT_PEAK_RATIO = 2.2


def unbounded_sampler() -> SamplingTracer:
    return SamplingTracer(
        SamplingConfig(max_records=10**6, head_every=0, track_budget=10**6)
    )


def record_synthetic_trace(tracer: SamplingTracer) -> SamplingTracer:
    for index in range(SPANS):
        tracer.add_span(
            "conv", "worker 0 (k80)/stream 0", index * 0.5, index * 0.5 + 0.25,
            category="kernel",
        )
    track = "serving/requests"
    for correlation in range(LIFECYCLES):
        start = correlation * 2.0
        tracer.async_begin("request", track, correlation, start, category="request")
        tracer.async_begin("queued", track, correlation, start, category="request")
        tracer.async_end("queued", track, correlation, start + 0.5, category="request")
        tracer.async_end("request", track, correlation, start + 1.0, category="request")
    return tracer


@contextmanager
def traced_memory():
    """Trace allocations for the block (left on if they were traced already)."""
    gc.collect()
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        yield
    finally:
        if started:
            tracemalloc.stop()


def test_sampler_retains_a_bounded_number_of_bytes_per_record():
    with traced_memory():
        before = tracemalloc.get_traced_memory()[0]
        tracer = record_synthetic_trace(unbounded_sampler())
        retained = tracemalloc.get_traced_memory()[0] - before
    assert len(tracer) == SPANS + 4 * LIFECYCLES  # nothing was dropped
    assert retained / len(tracer) <= MAX_BYTES_PER_RECORD


def test_export_peaks_at_about_the_text_and_one_copy():
    tracer = record_synthetic_trace(unbounded_sampler())
    with traced_memory():
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        text = chrome_trace_json(tracer)
        peak = tracemalloc.get_traced_memory()[1] - start
    assert peak / len(text) <= MAX_EXPORT_PEAK_RATIO
