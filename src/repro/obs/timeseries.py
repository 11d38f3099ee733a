"""Windowed time series: bounded-memory live metrics on the virtual clock.

The :class:`~repro.obs.metrics.MetricsRegistry` answers "what happened over
the whole run" — one snapshot at the end.  At trace-replay scale that is not
enough: an operator (or an alert rule) needs to know what the p99 and the
attainment look like *right now*, and keeping every raw observation around to
answer that would grow without bound.

:class:`TimeSeriesRegistry` closes the gap.  It is a drop-in
:class:`~repro.obs.metrics.MetricsRegistry` that owns a virtual clock; keyword
calls (``metrics.counter(...).inc()`` et al.) and
:class:`~repro.obs.metrics.LazySeries` writes do not change.  Its families
are the same :class:`~repro.obs.metrics.Counter`,
:class:`~repro.obs.metrics.Gauge` and :class:`~repro.obs.metrics.Histogram`,
which additionally bucket every observation into the clock's current
fixed-width window:

* **counters** keep the per-window increment sum (→ rates);
* **gauges** keep the per-window last value and high-water mark;
* **histograms** keep one bounded :class:`~repro.obs.metrics.StreamingQuantile`
  sketch per window instead of the raw samples.

Windows live in a ring: at most ``max_windows`` of them are retained per
series, so memory stays **O(windows × series)** no matter how many requests
flow through.  The loop advances the registry's clock as its event heap
drains; every window close is reported so alert rules
(:mod:`repro.obs.alerts`) and the ``--watch`` dashboard can act *during* the
run, not after it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence, TextIO

from ..checks import require_int, require_number
from .metrics import MetricsRegistry

__all__ = [
    "WindowSpan",
    "TimeSeriesRegistry",
    "WatchRenderer",
]


@dataclass(frozen=True)
class WindowSpan:
    """One closed virtual-time window ``[start_ms, end_ms)``."""

    index: int
    start_ms: float
    end_ms: float

    @property
    def duration_ms(self) -> float:
        return self.end_ms - self.start_ms


class TimeSeriesRegistry(MetricsRegistry):
    """A :class:`~repro.obs.metrics.MetricsRegistry` whose families window.

    Drop-in compatible: instrumented call sites keep calling
    ``registry.counter(name).inc(...)`` or record through a
    :class:`~repro.obs.metrics.LazySeries` — the families they get back run
    on this registry's clock, so every observation also lands in the bucket
    of the *current* virtual-time window.  The driver (the serving loop)
    owns the clock: it calls :meth:`advance` with the event time as the
    simulation progresses, and :meth:`advance` returns every window that
    closed so alert rules and dashboards can react on the boundary.

    Parameters
    ----------
    window_ms:
        Width of one window on the virtual clock.
    max_windows:
        Ring capacity per series — memory stays bounded at trace-replay
        scale.  Long idle gaps close at most this many trailing windows.
    """

    windowed = True

    def __init__(self, window_ms: float = 50.0, max_windows: int = 240):
        require_number("window_ms", window_ms, positive=True)
        require_int("max_windows", max_windows)
        super().__init__()
        self.window_ms = float(window_ms)
        self.max_windows = int(max_windows)
        self._now_ms = 0.0
        self._index = 0

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
        wanted = None if indices is None else list(indices)
        out: dict[str, object] = {}
        for name in self.names():
            family = self.get(name)
            rows = family.window_snapshot(wanted)
            if rows:
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
        """Render (and print) the dashboard line of one closed window.

        A family the run never created reads as no data; rendering creates
        none.
        """
        index = window.index

        def read(name: str, stat: str) -> float | None:
            family = registry.get(name)
            return None if family is None else family.window_stat(index, stat)

        rate = read("serve.requests.offered", "rate") or 0.0
        p99 = read("serve.latency_ms", "p99")
        depth = read("serve.queue.depth", "max")
        met = read("serve.slo.met", "sum") or 0.0
        missed = read("serve.slo.missed", "sum") or 0.0
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
