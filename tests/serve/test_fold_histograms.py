"""The latency histograms read the report fold's one store of each value.

``serve.latency_ms`` and ``serve.queue_delay_ms`` keep no arrays of their
own: each device's series reads the :class:`~repro.obs.PartedSeries` the
run's :class:`~repro.serve.ReportFold` appends to, cell by (device,
priority) cell, with a running sum kept in record order.  Their exports must
equal, byte for byte, those of histograms that observed every record — the
cumulative snapshot and, on a windowed registry, every window.  Every float
sum behind them adds left to right, so the bytes are the same on every
Python version.
"""

from __future__ import annotations

import json
import math
from array import array

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import (
    Histogram,
    LazySeries,
    MetricsRegistry,
    PartedSeries,
    TimeSeriesRegistry,
    ordered_sum,
)
from repro.serve import InferenceRequest, LatencySummary, ReportFold, RequestRecord

#: Three values whose compensated sum (``math.fsum``, or ``sum()`` from
#: Python 3.12) is 1.0 and whose left-to-right sum is 0.0.
CANCELLING = [1e16, 1.0, -1e16]

gaps = st.floats(min_value=0.0, max_value=40.0, allow_nan=False, allow_infinity=False)


@st.composite
def records(draw) -> list[RequestRecord]:
    """Records in dispatch order on at least two devices and two priorities."""
    cells = draw(st.lists(
        st.tuples(st.sampled_from(("k80", "v100", "p100")), st.integers(0, 2)),
        min_size=4, max_size=60,
    ).filter(lambda cells: len({d for d, _ in cells}) > 1 and len({p for _, p in cells}) > 1))
    made, dispatch_ms = [], 0.0
    for request_id, (device, priority) in enumerate(cells):
        dispatch_ms += draw(gaps)
        arrival_ms = max(0.0, dispatch_ms - draw(gaps))
        made.append(RequestRecord(
            request=InferenceRequest(
                request_id=request_id, model="m", arrival_ms=arrival_ms,
                priority=priority,
            ),
            batched_ms=dispatch_ms, dispatch_ms=dispatch_ms,
            completion_ms=dispatch_ms + draw(gaps), executed_batch_size=1,
            worker_id=0, device=device,
        ))
    return made


def exports(registry: MetricsRegistry) -> tuple[str, str]:
    windows = (
        json.dumps(registry.window_snapshot(), indent=2, sort_keys=True)
        if isinstance(registry, TimeSeriesRegistry) else ""
    )
    return registry.to_json(), windows


def fold_backed(made, registry: MetricsRegistry) -> tuple[str, str]:
    """Exports of histograms bound to a fold, fed as the serving loop feeds them."""
    fold = ReportFold(keep_records=False)
    latency = LazySeries(registry.histogram, "serve.latency_ms", "", "device",
                         source=fold.latencies_on)
    queue_delay = LazySeries(registry.histogram, "serve.queue_delay_ms", "", "device",
                             source=fold.queue_delays_on)
    for record in made:
        if isinstance(registry, TimeSeriesRegistry):
            registry.advance(record.dispatch_ms)
        observe_latency = latency[record.device]
        observe_queue_delay = queue_delay[record.device]
        fold.add(record)
        if observe_latency is not None:
            observe_latency(record.latency_ms)
            observe_queue_delay(record.queue_delay_ms)
    return exports(registry)


def observed(made, registry: MetricsRegistry) -> tuple[str, str]:
    """Exports of histograms that observed every record themselves."""
    for record in made:
        if isinstance(registry, TimeSeriesRegistry):
            registry.advance(record.dispatch_ms)
        registry.histogram("serve.latency_ms").observe(
            record.latency_ms, device=record.device
        )
        registry.histogram("serve.queue_delay_ms").observe(
            record.queue_delay_ms, device=record.device
        )
    return exports(registry)


@settings(max_examples=150, deadline=None)
@given(made=records(), window_ms=st.sampled_from((5.0, 20.0)))
def test_fold_backed_histograms_export_what_observed_ones_do(made, window_ms):
    assert fold_backed(made, MetricsRegistry()) == observed(made, MetricsRegistry())
    assert fold_backed(made, TimeSeriesRegistry(window_ms=window_ms)) == observed(
        made, TimeSeriesRegistry(window_ms=window_ms)
    )


class TestOrderedSums:
    def test_the_cancelling_values_tell_the_two_sums_apart(self):
        assert ordered_sum(CANCELLING) == 0.0
        assert math.fsum(CANCELLING) == 1.0

    def test_histogram_sums_add_left_to_right(self):
        histogram = Histogram("h")
        for value in CANCELLING:
            histogram.observe(value)
        series = histogram.snapshot()["series"][0]
        assert histogram.sum() == series["sum"] == series["mean"] == 0.0

    def test_latency_summary_means_add_left_to_right(self):
        assert LatencySummary.from_values(CANCELLING).mean_ms == 0.0

    def test_a_parted_series_sums_to_its_running_total(self):
        series = PartedSeries([array("d", [1.0]), array("d", [2.0])], total=3.5)
        assert (len(series), list(series), ordered_sum(series)) == (2, [1.0, 2.0], 3.5)

    def test_a_fold_keeps_its_running_sums_in_record_order(self):
        made = [
            RequestRecord(
                request=InferenceRequest(request_id=i, model="m", arrival_ms=0.0,
                                         priority=i % 2),
                batched_ms=0.0, dispatch_ms=0.0, completion_ms=latency,
                executed_batch_size=1, worker_id=0, device="k80",
            )
            for i, latency in enumerate(CANCELLING)
        ]
        fold = ReportFold.of(made)
        # The cells group the values by priority, [1e16, -1e16] and [1.0],
        # which sum to 1.0 left to right; record order sums to 0.0.
        assert list(fold.latencies) == [1e16, -1e16, 1.0]
        assert ordered_sum(fold.latencies) == ordered_sum(fold.latencies_on("k80")) == 0.0
