"""Windowed time series: bounded-memory live metrics on the virtual clock.

The :class:`~repro.obs.metrics.MetricsRegistry` answers "what happened over
the whole run" — one snapshot at the end.  At trace-replay scale that is not
enough: an operator (or an alert rule) needs to know what the p99 and the
attainment look like *right now*, and keeping every raw observation around to
answer that would grow without bound.

:class:`TimeSeriesRegistry` closes the gap.  It is a drop-in
:class:`~repro.obs.metrics.MetricsRegistry` — keyword calls
(``metrics.counter(...).inc()`` et al.) and bound handles do not change —
whose families additionally bucket every observation into fixed virtual-time
windows:

* **counters** keep the per-window increment sum (→ rates);
* **gauges** keep the per-window last value and high-water mark;
* **histograms** keep one bounded :class:`StreamingQuantile` sketch per
  window instead of the raw samples.

Windows live in a ring: at most ``max_windows`` of them are retained per
series, so memory stays **O(windows × series)** no matter how many requests
flow through.  The loop advances the registry's clock as its event heap
drains; every window close is reported so alert rules
(:mod:`repro.obs.alerts`) and the ``--watch`` dashboard can act *during* the
run, not after it.
"""

from __future__ import annotations

import bisect
from collections import OrderedDict
from dataclasses import dataclass
from typing import Iterable, Sequence, TextIO

from ..checks import require_int, require_number
from .metrics import Counter, Gauge, Histogram, Metric, MetricsRegistry, _label_key

__all__ = [
    "StreamingQuantile",
    "WindowSpan",
    "WindowedCounter",
    "WindowedGauge",
    "WindowedHistogram",
    "WindowedSeries",
    "TimeSeriesRegistry",
    "WatchRenderer",
]


class StreamingQuantile:
    """A bounded, mergeable, deterministic quantile sketch.

    The classic streaming histogram of Ben-Haim & Tom-Yossef: observations
    insert as unit-weight bins; when the sketch exceeds ``max_bins`` the two
    *closest* adjacent bins merge into their weighted centroid (ties break on
    the lower index, so the compaction is deterministic).  While fewer than
    ``max_bins`` distinct values have been observed the sketch is exact;
    beyond that, quantiles interpolate between centroids and are clamped to
    the true ``[min, max]``, which the sketch tracks exactly alongside
    ``count`` and ``sum``.
    """

    __slots__ = ("max_bins", "_centroids", "_weights", "count", "sum", "min", "max")

    def __init__(self, max_bins: int = 64):
        if max_bins < 2:
            raise ValueError(f"a quantile sketch needs >= 2 bins, got {max_bins}")
        self.max_bins = max_bins
        self._centroids: list[float] = []
        self._weights: list[float] = []
        self.count = 0
        self.sum = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def observe(self, value: float) -> None:
        """Fold one observation into the sketch."""
        value = float(value)
        self.count += 1
        self.sum += value
        self.min = min(self.min, value)
        self.max = max(self.max, value)
        index = bisect.bisect_left(self._centroids, value)
        if index < len(self._centroids) and self._centroids[index] == value:
            self._weights[index] += 1.0
        else:
            self._centroids.insert(index, value)
            self._weights.insert(index, 1.0)
            if len(self._centroids) > self.max_bins:
                self._compact()

    def _compact(self) -> None:
        """Merge the closest adjacent bin pair (lowest index wins ties)."""
        centroids, weights = self._centroids, self._weights
        best, best_gap = 0, float("inf")
        for i in range(len(centroids) - 1):
            gap = centroids[i + 1] - centroids[i]
            if gap < best_gap:
                best, best_gap = i, gap
        w = weights[best] + weights[best + 1]
        centroids[best] = (
            centroids[best] * weights[best] + centroids[best + 1] * weights[best + 1]
        ) / w
        weights[best] = w
        del centroids[best + 1]
        del weights[best + 1]

    def merge(self, other: "StreamingQuantile") -> "StreamingQuantile":
        """Fold ``other`` into this sketch (used to aggregate label sets)."""
        for centroid, weight in zip(other._centroids, other._weights):
            index = bisect.bisect_left(self._centroids, centroid)
            if index < len(self._centroids) and self._centroids[index] == centroid:
                self._weights[index] += weight
            else:
                self._centroids.insert(index, centroid)
                self._weights.insert(index, weight)
        while len(self._centroids) > self.max_bins:
            self._compact()
        self.count += other.count
        self.sum += other.sum
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)
        return self

    def copy(self) -> "StreamingQuantile":
        clone = StreamingQuantile(self.max_bins)
        clone._centroids = list(self._centroids)
        clone._weights = list(self._weights)
        clone.count, clone.sum = self.count, self.sum
        clone.min, clone.max = self.min, self.max
        return clone

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """The ``q``-th percentile (0..100), clamped to the exact [min, max]."""
        if not 0 <= q <= 100:
            raise ValueError(f"percentile must be in [0, 100], got {q}")
        if not self.count:
            raise ValueError("quantile of an empty sketch")
        centroids, weights = self._centroids, self._weights
        if len(centroids) == 1:
            return centroids[0]
        target = q / 100.0 * self.count
        # Each bin is treated as centred on its centroid: the cumulative
        # weight *at* centroid i is sum(w[:i]) + w[i]/2.
        cumulative = 0.0
        previous_c, previous_cum = self.min, 0.0
        for centroid, weight in zip(centroids, weights):
            centre = cumulative + weight / 2.0
            if target <= centre:
                span = centre - previous_cum
                fraction = (target - previous_cum) / span if span > 0 else 0.0
                value = previous_c + fraction * (centroid - previous_c)
                return min(max(value, self.min), self.max)
            previous_c, previous_cum = centroid, centre
            cumulative += weight
        return self.max

    def __len__(self) -> int:
        return len(self._centroids)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"<StreamingQuantile n={self.count} bins={len(self._centroids)}"
            f"/{self.max_bins}>"
        )


@dataclass(frozen=True)
class WindowSpan:
    """One closed virtual-time window ``[start_ms, end_ms)``."""

    index: int
    start_ms: float
    end_ms: float

    @property
    def duration_ms(self) -> float:
        return self.end_ms - self.start_ms


class WindowedSeries:
    """Ring buffer of per-window buckets for one labelled series.

    ``kind`` selects the bucket shape: ``"counter"`` buckets are increment
    sums, ``"gauge"`` buckets are ``(last, max)`` pairs, ``"histogram"``
    buckets are :class:`StreamingQuantile` sketches.  At most ``max_windows``
    buckets are retained; older ones evict in insertion order.
    """

    __slots__ = ("kind", "max_windows", "sketch_bins", "_buckets")

    def __init__(self, kind: str, max_windows: int, sketch_bins: int = 64):
        self.kind = kind
        self.max_windows = max_windows
        self.sketch_bins = sketch_bins
        self._buckets: OrderedDict[int, object] = OrderedDict()

    def _bucket(self, index: int):
        bucket = self._buckets.get(index)
        if bucket is None:
            if self.kind == "counter":
                bucket = 0.0
            elif self.kind == "gauge":
                bucket = (0.0, float("-inf"))
            else:
                bucket = StreamingQuantile(self.sketch_bins)
            self._buckets[index] = bucket
            while len(self._buckets) > self.max_windows:
                self._buckets.popitem(last=False)
        return bucket

    def record(self, index: int, value: float) -> None:
        if self.kind == "counter":
            self._buckets[index] = self._bucket(index) + value
        elif self.kind == "gauge":
            _, high = self._bucket(index)
            self._buckets[index] = (value, max(high, value))
        else:
            self._bucket(index).observe(value)

    def get(self, index: int):
        """The bucket of window ``index`` (``None`` when nothing recorded)."""
        return self._buckets.get(index)

    def indices(self) -> list[int]:
        """Window indices with data, oldest first."""
        return list(self._buckets)

    def __len__(self) -> int:
        return len(self._buckets)


class _WindowedFamily(Metric):
    """Mixin: routes every observation into per-window buckets too.

    It overrides the family's single ``_record`` path, so keyword calls and
    bound handles both window, with the label key canonicalised once.
    """

    _window_kind = "counter"

    def __init__(self, name: str, description: str = ""):
        super().__init__(name, description)
        self._registry: "TimeSeriesRegistry | None" = None
        self._windows: dict[tuple, WindowedSeries] = {}

    def _record(self, key: tuple, value: float) -> None:
        super()._record(key, value)
        registry = self._registry
        if registry is None:
            return
        series = self._windows.get(key)
        if series is None:
            series = WindowedSeries(
                self._window_kind, registry.max_windows, registry.sketch_bins
            )
            self._windows[key] = series
        series.record(registry.window_index(), float(value))

    # ------------------------------------------------------- window queries
    def window_series(self, **labels) -> WindowedSeries | None:
        """The windowed series of one label set, if anything was recorded."""
        return self._windows.get(_label_key(labels))

    def _window_buckets(self, index: int) -> list:
        return [
            bucket
            for series in self._windows.values()
            if (bucket := series.get(index)) is not None
        ]


class WindowedCounter(_WindowedFamily, Counter):
    """A :class:`~repro.obs.metrics.Counter` with per-window increment sums."""

    _window_kind = "counter"

    def window_total(self, index: int) -> float:
        """Sum of increments across every label set in window ``index``."""
        return float(sum(self._window_buckets(index)))

    def window_rate(self, index: int) -> float:
        """Increments per *second* over window ``index``."""
        assert self._registry is not None
        return self.window_total(index) / (self._registry.window_ms / 1e3)


class WindowedGauge(_WindowedFamily, Gauge):
    """A :class:`~repro.obs.metrics.Gauge` with per-window last/max values."""

    _window_kind = "gauge"

    def window_last(self, index: int, **labels) -> float | None:
        """Last value written in window ``index`` (one label set)."""
        series = self._windows.get(_label_key(labels))
        bucket = series.get(index) if series is not None else None
        return bucket[0] if bucket is not None else None

    def window_max(self, index: int) -> float | None:
        """High-water mark across every label set in window ``index``."""
        buckets = self._window_buckets(index)
        if not buckets:
            return None
        return max(high for _, high in buckets)


class WindowedHistogram(_WindowedFamily, Histogram):
    """A :class:`~repro.obs.metrics.Histogram` with one sketch per window.

    The cumulative family still keeps exact observations (snapshots and
    end-of-run quantiles are unchanged); the *windows* hold bounded
    :class:`StreamingQuantile` sketches instead of raw samples.
    """

    _window_kind = "histogram"

    def window_sketch(self, index: int) -> StreamingQuantile | None:
        """Merged sketch across every label set in window ``index``."""
        buckets = self._window_buckets(index)
        if not buckets:
            return None
        merged = buckets[0].copy()
        for bucket in buckets[1:]:
            merged.merge(bucket)
        return merged

    def window_quantile(self, index: int, q: float) -> float | None:
        """Sketch quantile of window ``index`` (``None`` when empty)."""
        sketch = self.window_sketch(index)
        return sketch.quantile(q) if sketch is not None else None


#: Plain family class → windowed replacement, used by the registry factory.
_WINDOWED = {Counter: WindowedCounter, Gauge: WindowedGauge, Histogram: WindowedHistogram}


class TimeSeriesRegistry(MetricsRegistry):
    """A :class:`~repro.obs.metrics.MetricsRegistry` whose families window.

    Drop-in compatible: instrumented call sites keep calling
    ``registry.counter(name).inc(...)`` or record through bound handles — the
    families they get back are the windowed subclasses, so every observation
    also lands in the bucket of the *current* virtual-time window.  The driver
    (the serving loop) owns the clock: it calls :meth:`advance` with the event
    time as the simulation progresses, and :meth:`advance` returns every
    window that closed so alert rules and dashboards can react on the
    boundary.

    Parameters
    ----------
    window_ms:
        Width of one window on the virtual clock.
    max_windows:
        Ring capacity per series — memory stays bounded at trace-replay
        scale.  Long idle gaps close at most this many trailing windows.
    sketch_bins:
        Bin budget of each per-window :class:`StreamingQuantile`.
    """

    def __init__(self, window_ms: float = 50.0, max_windows: int = 240,
                 sketch_bins: int = 64):
        require_number("window_ms", window_ms, positive=True)
        require_int("max_windows", max_windows)
        super().__init__()
        self.window_ms = float(window_ms)
        self.max_windows = int(max_windows)
        self.sketch_bins = int(sketch_bins)
        self._now_ms = 0.0
        self._index = 0

    # ------------------------------------------------------------ factories
    def _get_or_create(self, cls: type[Metric], name: str, description: str) -> Metric:
        metric = super()._get_or_create(_WINDOWED.get(cls, cls), name, description)
        if isinstance(metric, _WindowedFamily) and metric._registry is None:
            metric._registry = self
        return metric

    # ----------------------------------------------------------------- clock
    @property
    def now_ms(self) -> float:
        """The registry's current virtual time."""
        return self._now_ms

    def window_index(self, ts_ms: float | None = None) -> int:
        """Window index holding ``ts_ms`` (default: the current time)."""
        ts = self._now_ms if ts_ms is None else ts_ms
        return int(ts // self.window_ms)

    def window_span(self, index: int) -> WindowSpan:
        """The ``[start, end)`` span of window ``index``."""
        return WindowSpan(
            index=index,
            start_ms=index * self.window_ms,
            end_ms=(index + 1) * self.window_ms,
        )

    def advance(self, now_ms: float) -> list[WindowSpan]:
        """Move the clock to ``now_ms``; return every window that closed.

        Time never moves backwards (the driver replays an ordered event
        heap).  A long idle gap closes at most ``max_windows`` trailing
        windows — older ones would have evicted from every ring anyway.
        """
        if now_ms < self._now_ms:
            return []
        self._now_ms = now_ms
        new_index = self.window_index(now_ms)
        if new_index <= self._index:
            return []
        first = max(self._index, new_index - self.max_windows)
        closed = [self.window_span(i) for i in range(first, new_index)]
        self._index = new_index
        return closed

    def flush(self) -> WindowSpan:
        """Close the current (partial) window at the end of a run."""
        span = self.window_span(self._index)
        self._index += 1
        return span

    def clear(self) -> None:
        """Drop every family and restart the clock at window 0."""
        super().clear()
        self._now_ms = 0.0
        self._index = 0

    # --------------------------------------------------------------- export
    def window_snapshot(self, indices: Iterable[int] | None = None) -> dict:
        """Deterministic dict form of the windowed data (docs/tests helper).

        One entry per family with windowed series; histograms export sketch
        quantiles, not raw samples, so the document stays bounded.
        """
        out: dict[str, object] = {}
        for name in self.names():
            family = self.get(name)
            if not isinstance(family, _WindowedFamily) or not family._windows:
                continue
            rows = []
            for key in sorted(family._windows):
                series = family._windows[key]
                wanted = series.indices() if indices is None else [
                    i for i in indices if series.get(i) is not None
                ]
                windows = []
                for index in wanted:
                    bucket = series.get(index)
                    span = self.window_span(index)
                    entry: dict[str, object] = {
                        "index": index,
                        "start_ms": span.start_ms,
                        "end_ms": span.end_ms,
                    }
                    if series.kind == "counter":
                        entry["sum"] = bucket
                    elif series.kind == "gauge":
                        entry["last"], entry["max"] = bucket
                    else:
                        entry.update(
                            count=bucket.count,
                            sum=round(bucket.sum, 6),
                            p50=round(bucket.quantile(50), 6),
                            p95=round(bucket.quantile(95), 6),
                            p99=round(bucket.quantile(99), 6),
                        )
                    windows.append(entry)
                rows.append({"labels": dict(key), "windows": windows})
            out[name] = {"type": family.kind, "series": rows}
        return out


class WatchRenderer:
    """Render one dashboard line per closed window (the ``--watch`` view).

    The line is assembled purely from the :class:`TimeSeriesRegistry`'s
    windowed families — rps from the offered counter, p99 from the latency
    sketch, attainment from the per-window SLO counters, queue depth from the
    gauge — plus whichever alerts are firing.  Windows with no activity are
    skipped.
    """

    def __init__(self, stream: TextIO | None = None, every: int = 1):
        import sys

        self.stream = stream if stream is not None else sys.stderr
        self.every = max(1, int(every))
        self._emitted = 0

    def emit(
        self,
        registry: TimeSeriesRegistry,
        window: WindowSpan,
        firing: Sequence[str] = (),
    ) -> str | None:
        """Render (and print) the dashboard line of one closed window."""
        offered = registry.counter("serve.requests.offered")
        rate = offered.window_rate(window.index)
        latency = registry.histogram("serve.latency_ms")
        queue = registry.gauge("serve.queue.depth")
        met = registry.counter("serve.slo.met").window_total(window.index)
        missed = registry.counter("serve.slo.missed").window_total(window.index)
        depth = queue.window_max(window.index)
        p99 = latency.window_quantile(window.index, 99)
        if not rate and p99 is None and depth is None and not (met or missed):
            return None
        self._emitted += 1
        if (self._emitted - 1) % self.every:
            return None
        parts = [f"[{window.end_ms:9.1f}ms]", f"rps {rate:7.0f}"]
        parts.append(f"p99 {p99:8.3f}ms" if p99 is not None else "p99        -")
        if met or missed:
            parts.append(f"slo {met / (met + missed):6.1%}")
        else:
            parts.append("slo      -")
        parts.append(f"queue {int(depth) if depth is not None else 0:3d}")
        if firing:
            parts.append("ALERTS: " + ",".join(firing))
        line = "  ".join(parts)
        print(line, file=self.stream)
        return line
