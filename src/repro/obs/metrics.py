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

Each metric is a *family*: series within a family are keyed by labels
(``counter.inc(reason="predicted-deadline-miss")``), so one counter holds the
whole breakdown.  A series exists once something is recorded into it.  Hot
paths bind a series once — ``family.bind(reason=...)`` returns a handle that
holds the canonical label key — and record through the handle; the keyword
calls and the handles share one per-family ``_record(key, value)``.
:meth:`MetricsRegistry.snapshot` exports everything as one nested dict with
sorted keys, and :meth:`MetricsRegistry.to_json` renders it
byte-deterministically — the same run always dumps the same document.
"""

from __future__ import annotations

import json
from typing import Callable, Mapping, Sequence

import numpy as np

__all__ = [
    "HISTOGRAM_QUANTILES",
    "QUANTILE_DECIMALS",
    "BoundCounter",
    "BoundGauge",
    "BoundHistogram",
    "Counter",
    "Gauge",
    "Histogram",
    "LazySeries",
    "Metric",
    "MetricsRegistry",
    "quantiles_reference",
]

#: Internal series key: labels as a sorted tuple of (name, value) pairs.
_LabelKey = tuple

#: Histogram quantiles exported by snapshots, in export order.
HISTOGRAM_QUANTILES = (50.0, 95.0, 99.0)

#: Decimal places snapshot quantiles round to.  ``np.percentile`` interpolates
#: between observations, and the last bits of that arithmetic vary across
#: platforms/BLAS builds — rounding to fixed precision keeps
#: :meth:`MetricsRegistry.to_json` byte-stable everywhere.
QUANTILE_DECIMALS = 6


def _label_key(labels: Mapping[str, object]) -> _LabelKey:
    """Canonical hashable form of a label set (sorted, values stringified)."""
    if not labels:
        return ()
    return tuple(sorted((name, str(value)) for name, value in labels.items()))


class _BoundSeries:
    """One series of a family with its label key canonicalised once.

    Binding creates nothing: the series appears on the first record, exactly
    as it would through the keyword call.
    """

    __slots__ = ("key", "_record")

    def __init__(self, family: "Metric", key: _LabelKey):
        self.key = key
        self._record = family._record


class BoundCounter(_BoundSeries):
    """A bound :class:`Counter` series."""

    __slots__ = ()

    def inc(self, value: float = 1.0) -> None:
        self._record(self.key, value)


class BoundGauge(_BoundSeries):
    """A bound :class:`Gauge` series."""

    __slots__ = ()

    def set(self, value: float) -> None:
        self._record(self.key, value)


class BoundHistogram(_BoundSeries):
    """A bound :class:`Histogram` series."""

    __slots__ = ()

    def observe(self, value: float) -> None:
        self._record(self.key, value)


class Metric:
    """Base of all metric families: a name, a kind, and labelled series."""

    kind = "metric"
    #: Handle type :meth:`bind` returns (set by each concrete family).
    _handle: type[_BoundSeries]

    def __init__(self, name: str, description: str = ""):
        if not name:
            raise ValueError("a metric needs a non-empty name")
        self.name = name
        self.description = description

    def bind(self, **labels) -> _BoundSeries:
        """A handle on the series selected by ``labels`` (created on first record)."""
        return self._handle(self, _label_key(labels))

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

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"<{type(self).__name__} {self.name!r} ({len(self._series)} series)>"


class Counter(Metric):
    """A monotonically increasing total, optionally split by labels."""

    kind = "counter"
    _handle = BoundCounter

    def __init__(self, name: str, description: str = ""):
        super().__init__(name, description)
        self._series: dict[_LabelKey, float] = {}

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

    def value(self, **labels) -> float:
        """Current total of one series (0 if it never incremented)."""
        return self._series.get(_label_key(labels), 0.0)

    def total(self) -> float:
        """Sum over every series of the family."""
        return sum(self._series.values())

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


class Gauge(Metric):
    """A last-written value per label set (queue depth, pool size)."""

    kind = "gauge"
    _handle = BoundGauge

    def __init__(self, name: str, description: str = ""):
        super().__init__(name, description)
        self._series: dict[_LabelKey, float] = {}
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

    def value(self, **labels) -> float:
        """Current value of one series (0 if never set)."""
        return self._series.get(_label_key(labels), 0.0)

    def max(self, **labels) -> float:
        """High-water mark of one series (0 if never set)."""
        key = _label_key(labels)
        return self._max.get(key, 0.0) if key in self._series else 0.0

    def _snapshot_series(self, key: _LabelKey) -> dict[str, object]:
        return {"value": self._series[key], "max": self._max[key]}


class Histogram(Metric):
    """A full value distribution per label set.

    Observations are kept verbatim (runs are bounded and deterministic), so
    quantiles are *exact* — the same linear-interpolation arithmetic as
    ``numpy.percentile``, which the serving report's latency summaries already
    use.  No bucket-boundary approximation can drift from the report.
    """

    kind = "histogram"
    _handle = BoundHistogram

    def __init__(self, name: str, description: str = ""):
        super().__init__(name, description)
        self._series: dict[_LabelKey, list[float]] = {}

    def observe(self, value: float, **labels) -> None:
        """Record one observation in the series selected by ``labels``."""
        self._record(_label_key(labels), value)

    def _record(self, key: _LabelKey, value: float) -> None:
        value = float(value)
        if value != value:
            raise self._nan_error(key)
        values = self._series.get(key)
        if values is None:
            self._series[key] = [value]
        else:
            values.append(value)

    def values(self, **labels) -> list[float]:
        """All observations of one series, in observation order."""
        return list(self._series.get(_label_key(labels), ()))

    def count(self, **labels) -> int:
        return len(self._series.get(_label_key(labels), ()))

    def sum(self, **labels) -> float:
        return float(sum(self._series.get(_label_key(labels), ())))

    def quantile(self, q: float, **labels) -> float:
        """The ``q``-th percentile (0..100) with linear interpolation."""
        values = self._series.get(_label_key(labels))
        if not values:
            raise ValueError(
                f"histogram {self.name!r} has no observations for labels {labels!r}"
            )
        if not 0 <= q <= 100:
            raise ValueError(f"percentile must be in [0, 100], got {q}")
        return float(np.percentile(values, q))

    def _snapshot_series(self, key: _LabelKey) -> dict[str, object]:
        values = self._series[key]
        summary: dict[str, object] = {
            "count": len(values),
            "sum": float(sum(values)),
            "min": min(values),
            "max": max(values),
            "mean": float(sum(values)) / len(values),
        }
        for q in HISTOGRAM_QUANTILES:
            summary[f"p{q:g}"] = round(float(np.percentile(values, q)), QUANTILE_DECIMALS)
        return summary


class LazySeries(dict):
    """Bound series of one family, keyed by the value of one label.

    ``series[value]`` is the handle of the series ``{label: value}`` — of the
    unlabelled series, keyed ``None``, when ``label`` is ``None`` — bound on
    first lookup.  The family itself resolves through ``factory`` (a registry
    factory such as :meth:`MetricsRegistry.counter`) on that first lookup
    too, so a hot path that sets these up once per run still creates each
    family at the event that first touches it, exactly as the keyword call
    it replaces would have.
    """

    __slots__ = ("_factory", "_name", "_description", "_label")

    def __init__(self, factory: Callable[[str, str], Metric], name: str,
                 description: str = "", label: str | None = None):
        super().__init__()
        self._factory = factory
        self._name = name
        self._description = description
        self._label = label

    def __missing__(self, value) -> _BoundSeries:
        family = self._factory(self._name, self._description)
        handle = family.bind() if self._label is None else family.bind(
            **{self._label: value}
        )
        self[value] = handle
        return handle


class MetricsRegistry:
    """One namespace of metric families, the single home of a run's tallies.

    Families are created lazily and memoised by name —
    ``registry.counter("serve.requests.offered")`` returns the same
    :class:`Counter` on every call, and asking for an existing name with a
    different type raises, so two subsystems can never fight over a name.
    """

    def __init__(self):
        self._metrics: dict[str, Metric] = {}

    # ------------------------------------------------------------- factories
    def _get_or_create(self, cls: type[Metric], name: str, description: str) -> Metric:
        metric = self._metrics.get(name)
        if metric is None:
            metric = cls(name, description)
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
    """Numpy-computed reference quantiles (what snapshot arithmetic must match)."""
    return {
        f"p{q:g}": round(float(np.percentile(list(values), q)), QUANTILE_DECIMALS)
        for q in qs
    }
