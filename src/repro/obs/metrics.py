"""Metrics registry: counters, gauges and histograms with deterministic export.

Every layer of the system used to keep its own ad-hoc tallies (the serving
loop counted executions in a dict, admission kept rejection reasons, the
autoscaler its events).  The :class:`MetricsRegistry` replaces that parallel
bookkeeping with one typed store:

* :class:`Counter` — monotonically increasing totals (requests offered,
  admission rejects by reason, executions per batch size);
* :class:`Gauge` — last-written values (queue depth, pool size, per-worker
  busy/lifetime milliseconds);
* :class:`Histogram` — full value distributions with the same percentile
  arithmetic the serving report uses (latency, queue delay, batch occupancy).
  A series either keeps what it observes or reads a :class:`PartedSeries`
  its owner appends to (the serving loop's latency and queue-delay families
  read the run's report fold), so no value is stored twice.

Each metric is a *family*: series within a family are keyed by labels
(``counter.inc(reason="predicted-deadline-miss")``), so one counter holds the
whole breakdown.  A series exists once something is recorded into it.  Every
write lands in the family's one ``_record(key, value)``: the keyword calls
canonicalise their labels on each call, and hot paths record through a
:class:`LazySeries`, which binds ``_record`` to the canonical key once.
Every float sum an export holds is :func:`ordered_sum`'s left-to-right
accumulation, so exports are the same bytes on every Python version.

A family created by a :class:`~repro.obs.timeseries.TimeSeriesRegistry` also
buckets each series into fixed virtual-time windows on that registry's clock:
a counter keeps the per-window increment sum, a gauge the per-window
``(last, max)`` pair, a histogram one bounded :class:`StreamingQuantile` per
window.  :meth:`Metric.window_stat` is the one read of those buckets.

:meth:`MetricsRegistry.snapshot` exports everything as one nested dict with
sorted keys, and :meth:`MetricsRegistry.to_json` renders it
byte-deterministically — the same run always dumps the same document.
"""

from __future__ import annotations

import bisect
import json
from array import array
from collections import OrderedDict
from functools import partial, reduce
from itertools import chain
from operator import add
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Mapping, Sequence

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .timeseries import TimeSeriesRegistry

__all__ = [
    "HISTOGRAM_QUANTILES",
    "QUANTILE_DECIMALS",
    "Counter",
    "Gauge",
    "Histogram",
    "LazySeries",
    "Metric",
    "MetricsRegistry",
    "PartedSeries",
    "StreamingQuantile",
    "ordered_sum",
    "percentile",
    "percentiles",
    "quantiles_reference",
]

#: Internal series key: labels as a sorted tuple of (name, value) pairs.
_LabelKey = tuple

#: Histogram quantiles exported by snapshots, in export order.
HISTOGRAM_QUANTILES = (50.0, 95.0, 99.0)

#: Decimal places snapshot quantiles round to.  Interpolated quantiles carry
#: full double precision, whose last bits depend on the order of the
#: arithmetic (the interpolation in :func:`percentiles`, the merges behind a
#: window's sketch); rounding to fixed precision keeps
#: :meth:`MetricsRegistry.to_json` short and byte-stable when that order
#: changes.
QUANTILE_DECIMALS = 6

#: Bin budget of each per-window :class:`StreamingQuantile`.
SKETCH_BINS = 64


class PartedSeries:
    """One series of floats kept in several arrays, with its running sum.

    The owner appends each value to one of ``parts`` and adds it to
    ``total``, in the order the values happen; readers see one sized
    iterable, part after part.  A :class:`Histogram` series can read one
    (see :class:`LazySeries`), and :func:`ordered_sum` returns its
    ``total``: its parts do not hold the values in the order they came.
    """

    __slots__ = ("parts", "total")

    def __init__(self, parts: "list[array] | None" = None, total: float = 0.0):
        self.parts: list[array] = [] if parts is None else parts
        self.total = total

    def __len__(self) -> int:
        return sum(map(len, self.parts))

    def __iter__(self) -> Iterator[float]:
        return chain.from_iterable(self.parts)


def ordered_sum(values: Iterable[float]) -> float:
    """The sum of ``values``, added left to right from ``0.0``.

    The one float sum behind every exported mean and histogram sum.  From
    Python 3.12 the built-in ``sum()`` compensates float rounding, so its
    last bits would depend on the interpreter; this accumulation is the same
    on every version (and equals 3.11's ``sum()``).  A :class:`PartedSeries`
    returns its running ``total``, the same accumulation done in the order
    its values came.
    """
    if isinstance(values, PartedSeries):
        return values.total
    return reduce(add, values, 0.0)


def percentiles(values: Sequence[float], qs: Sequence[float]) -> list[float]:
    """The ``qs``-th percentiles (0..100) of ``values``, from one sort.

    The one percentile arithmetic of the package: histogram quantiles and
    snapshots, the serving report's latency summaries and the cluster
    report's host rows all read it, so they always agree.  It is numpy's
    default ``"linear"`` method step for step — the virtual index
    ``(n - 1) * (q / 100)``, the last value read at both ends once the index
    reaches ``n - 1``, and the two-sided interpolation — so each result is
    bit-identical to ``np.percentile(values, q)``, save the sign of a zero
    result where ``0.0`` and ``-0.0`` tie (numpy partitions instead of
    sorting).  ``values`` must hold no NaN (histograms reject NaN when it is
    recorded).
    """
    if not len(values):
        raise ValueError("cannot take a percentile of no values")
    ordered = sorted(values)
    last = len(ordered) - 1
    result = []
    for q in qs:
        if not 0 <= q <= 100:
            raise ValueError(f"percentile must be in [0, 100], got {q}")
        index = last * (q / 100)
        if index >= last:
            below = above = last
            gamma = index + 1  # numpy subtracts the neighbour index -1 here
        else:
            below = int(index)
            above = below + 1
            gamma = index - below
        low, high = ordered[below], ordered[above]
        diff = high - low
        result.append(float(high - diff * (1 - gamma) if gamma >= 0.5 else low + diff * gamma))
    return result


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0..100) of ``values``: :func:`percentiles` of one."""
    return percentiles(values, (q,))[0]


def _label_key(labels: Mapping[str, object]) -> _LabelKey:
    """Canonical hashable form of a label set (sorted, values stringified)."""
    if not labels:
        return ()
    return tuple(sorted((name, str(value)) for name, value in labels.items()))


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


class Metric:
    """Base of the three metric families: a name, a kind and labelled series.

    ``clock`` is the :class:`~repro.obs.timeseries.TimeSeriesRegistry` whose
    windows the family buckets into, or ``None`` for a cumulative-only
    family.  Each concrete family defines its window bucket
    (:meth:`_new_bucket`), how a write updates it (in ``_record``), how the
    buckets of one window combine across label sets (:meth:`_merged`) and
    how a statistic reads a bucket (:meth:`_read`).
    """

    kind = "metric"
    #: Statistics :meth:`window_stat` reads for this kind.
    window_stats: tuple[str, ...] = ()
    #: Statistics each window of a series exports, in export order.
    window_exports: tuple[str, ...] = ()

    def __init__(self, name: str, description: str = "",
                 clock: "TimeSeriesRegistry | None" = None):
        if not name:
            raise ValueError("a metric needs a non-empty name")
        self.name = name
        self.description = description
        self._clock = clock
        #: The cumulative value of each series (a histogram's observations).
        self._series: dict[_LabelKey, object] = {}
        #: Per series: window index -> bucket, at most ``max_windows`` of them.
        self._windows: dict[_LabelKey, OrderedDict] = {}

    def _record(self, key: _LabelKey, value: float) -> None:
        """Record ``value`` into the series ``key`` — every write lands here."""
        raise NotImplementedError

    def _nan_error(self, key: _LabelKey) -> ValueError:
        return ValueError(
            f"{self.kind} {self.name!r} cannot record NaN (labels {dict(key)})"
        )

    def labelsets(self) -> list[dict[str, str]]:
        """Every label set with a recorded series, in sorted order."""
        return [dict(key) for key in sorted(self._series)]

    def _snapshot_series(self, key: _LabelKey) -> dict[str, object]:
        raise NotImplementedError

    def snapshot(self) -> dict[str, object]:
        """Deterministic dict form of the whole family."""
        return {
            "type": self.kind,
            "description": self.description,
            "series": [
                {"labels": dict(key), **self._snapshot_series(key)}
                for key in sorted(self._series)
            ],
        }

    # ------------------------------------------------------------- windows
    def _new_bucket(self):
        raise NotImplementedError

    def _ring(self, key: _LabelKey) -> tuple[OrderedDict, int]:
        """The window ring of series ``key`` and the current window's index.

        Opening a window's bucket evicts the ring's oldest window once it
        holds ``max_windows`` (the clock never moves backwards, so windows
        open in index order).
        """
        clock = self._clock
        index = clock.window_index()
        ring = self._windows.get(key)
        if ring is None:
            ring = self._windows[key] = OrderedDict()
        if index not in ring:
            ring[index] = self._new_bucket()
            if len(ring) > clock.max_windows:
                ring.popitem(last=False)
        return ring, index

    def _buckets(self, index: int) -> list:
        """The buckets of window ``index`` across every label set."""
        return [ring[index] for ring in self._windows.values() if index in ring]

    def _merged(self, index: int):
        """Window ``index`` across every label set, as one bucket (or ``None``)."""
        raise NotImplementedError

    def _read(self, bucket, stat: str) -> float | None:
        raise NotImplementedError

    @classmethod
    def supports(cls, stat: str) -> bool:
        """Whether :meth:`window_stat` can read ``stat`` of this kind."""
        return stat in cls.window_stats

    def window_stat(self, index: int, stat: str) -> float | None:
        """Statistic ``stat`` of window ``index`` over every label set.

        Counters read ``"sum"`` (increments) or ``"rate"`` (per second),
        gauges ``"last"`` (the unlabelled series) or ``"max"``, histograms
        ``"count"``, ``"sum"``, ``"mean"`` or a sketch quantile ``"p<q>"``;
        any other stat raises ``ValueError``.  ``None`` when the window holds
        no data (a counter reads 0 instead).
        """
        if not self.supports(stat):
            raise ValueError(
                f"{self.kind} {self.name!r} has no window stat {stat!r}; "
                f"a {self.kind} supports {', '.join(self.window_stats)}"
            )
        bucket = self._merged(index)
        return None if bucket is None else self._read(bucket, stat)

    def window_snapshot(self, indices: Sequence[int] | None = None) -> list[dict]:
        """Deterministic per-series rows of the windowed data.

        Each row lists the series' windows (every retained one, or those of
        ``indices`` with data) with their span and :attr:`window_exports`.
        """
        rows = []
        for key in sorted(self._windows):
            ring = self._windows[key]
            wanted = list(ring) if indices is None else [i for i in indices if i in ring]
            windows = []
            for index in wanted:
                span = self._clock.window_span(index)
                entry: dict[str, object] = {
                    "index": index, "start_ms": span.start_ms, "end_ms": span.end_ms,
                }
                entry.update(self._window_entry(ring[index]))
                windows.append(entry)
            rows.append({"labels": dict(key), "windows": windows})
        return rows

    def _window_entry(self, bucket) -> dict[str, object]:
        return {stat: self._read(bucket, stat) for stat in self.window_exports}

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"<{type(self).__name__} {self.name!r} ({len(self._series)} series)>"


class Counter(Metric):
    """A monotonically increasing total, optionally split by labels."""

    kind = "counter"
    window_stats = ("sum", "rate")
    window_exports = ("sum",)

    def inc(self, value: float = 1.0, **labels) -> None:
        """Add ``value`` (>= 0) to the series selected by ``labels``."""
        self._record(_label_key(labels), value)

    def _record(self, key: _LabelKey, value: float) -> None:
        if not value >= 0:  # also false for NaN
            raise ValueError(
                f"counter {self.name!r} can only increase; got inc({value}) "
                f"(labels {dict(key)})"
            )
        self._series[key] = self._series.get(key, 0.0) + value
        if self._clock is not None:
            ring, index = self._ring(key)
            ring[index] += float(value)

    def value(self, **labels) -> float:
        """Current total of one series (0 if it never incremented)."""
        return self._series.get(_label_key(labels), 0.0)

    def total(self) -> float:
        """Sum over every series of the family."""
        return ordered_sum(self._series.values())

    def by_label(self, label: str) -> dict[str, float]:
        """Totals grouped by one label's values (e.g. rejects by reason)."""
        grouped: dict[str, float] = {}
        for key, value in self._series.items():
            for name, label_value in key:
                if name == label:
                    grouped[label_value] = grouped.get(label_value, 0.0) + value
        return dict(sorted(grouped.items()))

    def _snapshot_series(self, key: _LabelKey) -> dict[str, object]:
        return {"value": self._series[key]}

    def _new_bucket(self) -> float:
        return 0.0

    def _merged(self, index: int) -> float:
        return ordered_sum(self._buckets(index))

    def _read(self, total: float, stat: str) -> float:
        return total / (self._clock.window_ms / 1e3) if stat == "rate" else total


class Gauge(Metric):
    """A last-written value per label set (queue depth, pool size)."""

    kind = "gauge"
    window_stats = ("last", "max")
    window_exports = ("last", "max")

    def __init__(self, name: str, description: str = "",
                 clock: "TimeSeriesRegistry | None" = None):
        super().__init__(name, description, clock)
        self._max: dict[_LabelKey, float] = {}

    def set(self, value: float, **labels) -> None:
        """Overwrite the series value (the high-water mark is kept too)."""
        self._record(_label_key(labels), value)

    def add(self, delta: float, **labels) -> None:
        """Adjust the series by ``delta`` (convenience for up/down tracking)."""
        key = _label_key(labels)
        self._record(key, self._series.get(key, 0.0) + delta)

    def _record(self, key: _LabelKey, value: float) -> None:
        value = float(value)
        if value != value:
            raise self._nan_error(key)
        self._series[key] = value
        self._max[key] = max(self._max.get(key, float("-inf")), value)
        if self._clock is not None:
            ring, index = self._ring(key)
            ring[index] = (value, max(ring[index][1], value))

    def value(self, **labels) -> float:
        """Current value of one series (0 if never set)."""
        return self._series.get(_label_key(labels), 0.0)

    def max(self, **labels) -> float:
        """High-water mark of one series (0 if never set)."""
        key = _label_key(labels)
        return self._max.get(key, 0.0) if key in self._series else 0.0

    def _snapshot_series(self, key: _LabelKey) -> dict[str, object]:
        return {"value": self._series[key], "max": self._max[key]}

    def _new_bucket(self) -> tuple[float, float]:
        return (0.0, float("-inf"))

    def _merged(self, index: int) -> tuple[float | None, float] | None:
        """The unlabelled series' last value, and the max over every label set."""
        buckets = self._buckets(index)
        if not buckets:
            return None
        unlabelled = self._windows.get((), {}).get(index)
        last = unlabelled[0] if unlabelled is not None else None
        return (last, max(high for _, high in buckets))

    def _read(self, bucket: tuple, stat: str) -> float | None:
        return bucket[0] if stat == "last" else bucket[1]


class Histogram(Metric):
    """A full value distribution per label set.

    A series holds every value, so quantiles are *exact* —
    :func:`percentile`, which the serving report's latency summaries use too.
    No bucket-boundary approximation can drift from the report.  A series
    keeps what it observes in one ``array('d')``, eight bytes each (runs are
    bounded and deterministic), or reads a :class:`PartedSeries` its owner
    appends to (bound through :class:`LazySeries`): the serving loop's
    latency and queue-delay series read the run's report fold, which holds
    each request's two floats once.  Either way the exported ``sum`` is the
    values' :func:`ordered_sum` in observation order.  The per-window buckets
    are bounded :class:`StreamingQuantile` sketches, which observe every
    value as it happens, bound series included.
    """

    kind = "histogram"
    window_stats = ("count", "sum", "mean", "p<q>")
    window_exports = ("count", "sum", "p50", "p95", "p99")

    @classmethod
    def supports(cls, stat: str) -> bool:
        if stat.startswith("p"):
            try:
                return 0 <= float(stat[1:]) <= 100
            except ValueError:
                return False
        return stat in cls.window_stats

    def observe(self, value: float, **labels) -> None:
        """Record one observation in the series selected by ``labels``."""
        self._record(_label_key(labels), value)

    def _record(self, key: _LabelKey, value: float) -> None:
        value = float(value)
        if value != value:
            raise self._nan_error(key)
        values = self._series.get(key)
        if values is None:
            values = self._series[key] = array("d")
        values.append(value)
        if self._clock is not None:
            self._observe_window(key, value)

    def _bind(self, key: _LabelKey, values: PartedSeries) -> "Callable[[float], None] | None":
        """Read the series ``key`` from ``values``, which its owner appends to.

        Returns what observes each value into the window sketches on a
        windowed registry (the owner calls it once per value, in order), and
        ``None`` when the family keeps no windows.
        """
        self._series[key] = values
        return partial(self._observe_window, key) if self._clock is not None else None

    def _observe_window(self, key: _LabelKey, value: float) -> None:
        ring, index = self._ring(key)
        ring[index].observe(value)

    def values(self, **labels) -> list[float]:
        """All observations of one series (a bound one lists them part by part)."""
        return list(self._series.get(_label_key(labels), ()))

    def count(self, **labels) -> int:
        return len(self._series.get(_label_key(labels), ()))

    def sum(self, **labels) -> float:
        return ordered_sum(self._series.get(_label_key(labels), ()))

    def quantile(self, q: float, **labels) -> float:
        """The ``q``-th percentile (0..100) with linear interpolation."""
        values = self._series.get(_label_key(labels))
        if not values:
            raise ValueError(
                f"histogram {self.name!r} has no observations for labels {labels!r}"
            )
        return percentile(values, q)

    def _snapshot_series(self, key: _LabelKey) -> dict[str, object]:
        values = self._series[key]
        total = ordered_sum(values)
        summary: dict[str, object] = {
            "count": len(values),
            "sum": total,
            "min": min(values),
            "max": max(values),
            "mean": total / len(values),
        }
        for q, value in zip(HISTOGRAM_QUANTILES, percentiles(values, HISTOGRAM_QUANTILES)):
            summary[f"p{q:g}"] = round(value, QUANTILE_DECIMALS)
        return summary

    def _new_bucket(self) -> "StreamingQuantile":
        return StreamingQuantile(SKETCH_BINS)

    def _merged(self, index: int) -> "StreamingQuantile | None":
        buckets = self._buckets(index)
        if not buckets:
            return None
        merged = buckets[0].copy()
        for bucket in buckets[1:]:
            merged.merge(bucket)
        return merged

    def _read(self, sketch: "StreamingQuantile", stat: str) -> float:
        if stat in ("count", "sum", "mean"):
            return getattr(sketch, stat)
        return sketch.quantile(float(stat.lstrip("p")))

    def _window_entry(self, sketch: "StreamingQuantile") -> dict[str, object]:
        return {
            stat: round(self._read(sketch, stat), QUANTILE_DECIMALS)
            for stat in self.window_exports
        }


class LazySeries(dict):
    """Record callables of one family's series, keyed by the value of one label.

    ``series[value]`` records into the series ``{label: value}`` — into the
    unlabelled series, keyed ``None``, when ``label`` is ``None``.  It is the
    family's own ``_record`` with the canonical label key bound on first
    lookup, so ``series["full"](1.0)`` checks, stores and windows exactly as
    ``family.inc(1.0, reason="full")`` would.  The family itself resolves
    through ``factory`` (a registry factory such as
    :meth:`MetricsRegistry.counter`) on that first lookup too, so a hot path
    that sets these up once per run still creates each family at the event
    that first touches it, exactly as the keyword call it replaces would have.

    With ``source`` (histograms only), the first lookup of ``value`` instead
    binds the series to the :class:`PartedSeries` ``source(value)``, which
    its owner appends to, and ``series[value]`` is what observes each of
    those values into the window sketches: ``None`` on a registry without
    windows, where the family has nothing more to do per value.
    """

    __slots__ = ("_factory", "_name", "_description", "_label", "_source")

    def __init__(self, factory: Callable[[str, str], Metric], name: str,
                 description: str = "", label: str | None = None,
                 source: "Callable[[object], PartedSeries] | None" = None):
        super().__init__()
        self._factory = factory
        self._name = name
        self._description = description
        self._label = label
        self._source = source

    def __missing__(self, value) -> "Callable[[float], None] | None":
        family = self._factory(self._name, self._description)
        key = () if self._label is None else _label_key({self._label: value})
        if self._source is None:
            record = partial(family._record, key)
        else:
            record = family._bind(key, self._source(value))
        self[value] = record
        return record


class MetricsRegistry:
    """One namespace of metric families, the single home of a run's tallies.

    Families are created lazily and memoised by name —
    ``registry.counter("serve.requests.offered")`` returns the same
    :class:`Counter` on every call, and asking for an existing name with a
    different type raises, so two subsystems can never fight over a name.
    """

    #: Whether this registry's families bucket into windows on its clock
    #: (true for :class:`~repro.obs.timeseries.TimeSeriesRegistry`).
    windowed = False

    def __init__(self):
        self._metrics: dict[str, Metric] = {}

    # ------------------------------------------------------------- factories
    def _get_or_create(self, cls: type[Metric], name: str, description: str) -> Metric:
        metric = self._metrics.get(name)
        if metric is None:
            metric = cls(name, description, self if self.windowed else None)
            self._metrics[name] = metric
        elif not isinstance(metric, cls):
            raise TypeError(
                f"metric {name!r} is a {metric.kind}, not a {cls.kind}"
            )
        elif description and not metric.description:
            metric.description = description
        return metric

    def counter(self, name: str, description: str = "") -> Counter:
        """The counter family ``name`` (created on first use)."""
        return self._get_or_create(Counter, name, description)  # type: ignore[return-value]

    def gauge(self, name: str, description: str = "") -> Gauge:
        """The gauge family ``name`` (created on first use)."""
        return self._get_or_create(Gauge, name, description)  # type: ignore[return-value]

    def histogram(self, name: str, description: str = "") -> Histogram:
        """The histogram family ``name`` (created on first use)."""
        return self._get_or_create(Histogram, name, description)  # type: ignore[return-value]

    # --------------------------------------------------------------- queries
    def get(self, name: str) -> Metric | None:
        """The family registered as ``name``, or ``None``."""
        return self._metrics.get(name)

    def names(self) -> list[str]:
        """All registered family names, sorted."""
        return sorted(self._metrics)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def __len__(self) -> int:
        return len(self._metrics)

    # ---------------------------------------------------------------- export
    def snapshot(self) -> dict[str, object]:
        """Deterministic nested-dict export of every family, names sorted."""
        return {name: self._metrics[name].snapshot() for name in self.names()}

    def to_json(self, indent: int | None = 2) -> str:
        """Byte-deterministic JSON rendering of :meth:`snapshot`."""
        return json.dumps(self.snapshot(), indent=indent, sort_keys=True)

    def write(self, path):
        """Dump :meth:`to_json` to ``path`` (parent directories created)."""
        from pathlib import Path

        target = Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(self.to_json() + "\n")
        return target

    def clear(self) -> None:
        """Drop every family (a fresh namespace)."""
        self._metrics.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"<MetricsRegistry {len(self._metrics)} families>"


def quantiles_reference(values: Sequence[float], qs=HISTOGRAM_QUANTILES) -> dict[str, float]:
    """Numpy-computed reference quantiles (what snapshot arithmetic must match).

    The tests' oracle, so numpy is imported here and nowhere on the serving
    path.
    """
    import numpy as np

    return {
        f"p{q:g}": round(float(np.percentile(list(values), q)), QUANTILE_DECIMALS)
        for q in qs
    }
