"""Span tracer: one timeline for compile stages, serving events and kernels.

A *span* is a named interval on a *track*.  Tracks are written as
``"process/thread"`` (the exporter turns each process into a Perfetto row
group and each thread into a row), so a single trace can show the compile
pipeline, every request's lifecycle, and each worker's kernel activity as
parallel rows:

* ``compile/stages`` — wall-clock spans of the engine's Graph → Schedule →
  Plan stages, one per compile;
* ``serving/requests`` — virtual-time request lifecycles as nested async
  spans (queued → dispatch-wait → execute), one lane per request id;
* ``worker 0 (v100)/stages`` and ``.../stream N`` — virtual-time batch,
  stage and kernel spans of each simulated worker.

Two time domains coexist deliberately: the engine measures real elapsed
milliseconds (its work is real), while the serving loop stamps spans with the
virtual clock its simulation runs on (``add_span`` et al. take explicit
timestamps).  They live in different processes of the trace, so the mixed
timeline stays readable.

Tracing must cost nothing when off: the module-level :data:`NULL_TRACER` is
falsy and swallows every call, so instrumented code guards its span
construction with ``if tracer:`` and pays a single truth test per event when
tracing is disabled.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Callable, Iterator, Mapping, NamedTuple

__all__ = [
    "NULL_TRACER",
    "NullTracer",
    "PrefixedTracer",
    "TraceRecord",
    "Tracer",
]

#: Record kinds, mirrored 1:1 by the Chrome-trace exporter's phases.
SPAN, INSTANT, COUNTER, ASYNC_BEGIN, ASYNC_END = (
    "span", "instant", "counter", "async_begin", "async_end",
)


class TraceRecord(NamedTuple):
    """One recorded trace event (exporter-agnostic form).

    A tuple rather than an object with a ``__dict__``: a replay retains tens
    of thousands of records, so each one costs only its eight slots.  The
    ``args`` mapping is read-only by contract; one mapping may be shared by
    many records (every dispatch of a plan replays the same kernel args).
    """

    #: One of ``span`` / ``instant`` / ``counter`` / ``async_begin`` /
    #: ``async_end``.
    kind: str
    name: str
    #: ``"process/thread"`` row identity; a bare name means process ``main``.
    track: str
    #: Start (or instant) time in milliseconds on the caller's clock.
    ts_ms: float
    #: Span duration in milliseconds (spans only).
    dur_ms: float = 0.0
    #: Event category (used to correlate async begin/end pairs).
    category: str = ""
    #: Correlation id for async begin/end pairs (request lifecycles).
    correlation: int | None = None
    #: Extra key/value payload shown in the trace viewer.
    args: Mapping[str, object] | None = None

    @property
    def end_ms(self) -> float:
        return self.ts_ms + self.dur_ms


def _wall_clock_ms() -> float:
    return time.perf_counter() * 1e3


class Tracer:
    """Collects trace records; see :mod:`repro.obs.export` for rendering.

    Parameters
    ----------
    clock:
        Wall-clock source (milliseconds) used by the context-managed
        :meth:`span`; defaults to ``time.perf_counter``.  Timestamps are
        reported relative to the tracer's construction, and tests inject a
        deterministic counter here to make wall-clock spans reproducible.
    """

    def __init__(self, clock: Callable[[], float] | None = None):
        self._clock = clock or _wall_clock_ms
        self._epoch = self._clock()
        self.records: list[TraceRecord] = []

    def __bool__(self) -> bool:
        return True

    @property
    def enabled(self) -> bool:
        return True

    def now_ms(self) -> float:
        """Milliseconds on the tracer's wall clock since construction."""
        return self._clock() - self._epoch

    # --------------------------------------------------------------- recording
    def add_span(
        self,
        name: str,
        track: str,
        start_ms: float,
        end_ms: float,
        *,
        category: str = "",
        args: Mapping[str, object] | None = None,
    ) -> None:
        """Record a complete span with explicit (e.g. virtual-clock) times."""
        self.records.append(TraceRecord(
            SPAN, name, track, start_ms, max(0.0, end_ms - start_ms), category,
            None, args,
        ))

    @contextmanager
    def span(
        self,
        name: str,
        track: str,
        *,
        category: str = "",
        args: Mapping[str, object] | None = None,
    ) -> Iterator[dict[str, object]]:
        """Measure a wall-clock span around a code block.

        Yields a mutable dict of span args — whatever the block adds to it is
        recorded alongside the initial ``args`` when the span closes::

            with tracer.span("schedule", "compile/stages") as info:
                result = search(graph)
                info["transitions"] = result.total_transitions
        """
        payload: dict[str, object] = dict(args or {})
        start = self.now_ms()
        try:
            yield payload
        finally:
            self.add_span(
                name, track, start, self.now_ms(),
                category=category, args=payload or None,
            )

    def instant(
        self,
        name: str,
        track: str,
        ts_ms: float | None = None,
        *,
        category: str = "",
        args: Mapping[str, object] | None = None,
    ) -> None:
        """Record a zero-duration marker (batch close, scale event, reject)."""
        self.records.append(TraceRecord(
            INSTANT, name, track, self.now_ms() if ts_ms is None else ts_ms, 0.0,
            category, None, args,
        ))

    def counter(
        self,
        name: str,
        track: str,
        ts_ms: float,
        values: Mapping[str, float],
    ) -> None:
        """Record a counter sample (rendered as a stacked area row)."""
        self.records.append(TraceRecord(
            COUNTER, name, track, ts_ms, 0.0, "", None, dict(values),
        ))

    def async_begin(
        self,
        name: str,
        track: str,
        correlation: int,
        ts_ms: float,
        *,
        category: str = "",
        args: Mapping[str, object] | None = None,
    ) -> None:
        """Open an async span (overlapping lifecycles, e.g. requests).

        Async spans with the same ``(category, correlation)`` nest into one
        lane of the track, so concurrent request lifecycles each render as
        their own nested group instead of colliding on a single row.
        """
        self.records.append(TraceRecord(
            ASYNC_BEGIN, name, track, ts_ms, 0.0, category, correlation, args,
        ))

    def async_end(
        self,
        name: str,
        track: str,
        correlation: int,
        ts_ms: float,
        *,
        category: str = "",
        args: Mapping[str, object] | None = None,
    ) -> None:
        """Close the async span opened with the same ``(category, correlation)``."""
        self.records.append(TraceRecord(
            ASYNC_END, name, track, ts_ms, 0.0, category, correlation, args,
        ))

    # ----------------------------------------------------------------- queries
    def spans(self, track: str | None = None) -> list[TraceRecord]:
        """All complete spans, optionally restricted to one track."""
        return [
            record for record in self.records
            if record.kind == SPAN and (track is None or record.track == track)
        ]

    def tracks(self) -> list[str]:
        """Every track written so far, in first-appearance order."""
        seen: dict[str, None] = {}
        for record in self.records:
            seen.setdefault(record.track, None)
        return list(seen)

    def clear(self) -> None:
        """Drop every record and restart the wall clock at zero."""
        # Assigned, not cleared in place: a subclass may derive ``records``
        # and reset its own buffers in the setter.
        self.records = []
        self._epoch = self._clock()

    def __len__(self) -> int:
        return len(self.records)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"<Tracer {len(self.records)} records, {len(self.tracks())} tracks>"


class NullTracer(Tracer):
    """The disabled tracer: falsy, records nothing, costs nothing.

    Instrumented code holds a tracer unconditionally and guards span
    construction with ``if tracer:`` — with a :class:`NullTracer` that guard
    is a single constant-false test, so tracing-off runs take the exact same
    code path (and produce the exact same reports) as before tracing existed.
    """

    def __init__(self):
        super().__init__(clock=lambda: 0.0)

    def __bool__(self) -> bool:
        return False

    @property
    def enabled(self) -> bool:
        return False

    def add_span(self, *args, **kwargs) -> None:  # noqa: D102 - no-op
        pass

    @contextmanager
    def span(self, *args, **kwargs) -> Iterator[dict[str, object]]:  # noqa: D102
        yield {}

    def instant(self, *args, **kwargs) -> None:  # noqa: D102 - no-op
        pass

    def counter(self, *args, **kwargs) -> None:  # noqa: D102 - no-op
        pass

    def async_begin(self, *args, **kwargs) -> None:  # noqa: D102 - no-op
        pass

    def async_end(self, *args, **kwargs) -> None:  # noqa: D102 - no-op
        pass


class PrefixedTracer(Tracer):
    """A view of another tracer that prefixes every track's process name.

    The cluster loop hands each simulated host a
    ``PrefixedTracer(shared, "host0 ")`` so the host's serving-loop spans land
    on per-host rows (``host0 serving/requests``,
    ``host0 worker 1 (v100)/batches``) of the *shared* trace — one file, one
    timeline, N hosts side by side.  Only the track is rewritten; timestamps,
    correlations and sampling behaviour are the inner tracer's (wrapping a
    :class:`~repro.obs.sampling.SamplingTracer` samples as usual, wrapping
    :data:`NULL_TRACER` stays falsy and free).
    """

    def __init__(self, inner: Tracer, prefix: str):
        super().__init__()
        self.inner = inner
        self.prefix = prefix

    def __bool__(self) -> bool:
        return bool(self.inner)

    @property
    def enabled(self) -> bool:
        return self.inner.enabled

    @property
    def records(self) -> list[TraceRecord]:  # type: ignore[override]
        return self.inner.records

    @records.setter
    def records(self, value: list[TraceRecord]) -> None:
        # Tracer.__init__ assigns self.records = []; the view has no store
        # of its own, so the base-class initialisation is dropped here.
        pass

    def clear(self) -> None:
        # The view owns no records: clearing it clears the shared trace, with
        # the inner tracer's own semantics (a sampler resets its buffers).
        self.inner.clear()

    def __len__(self) -> int:
        return len(self.inner)

    def _track(self, track: str) -> str:
        return f"{self.prefix}{track}"

    def add_span(self, name, track, start_ms, end_ms, *, category="", args=None):
        self.inner.add_span(
            name, self._track(track), start_ms, end_ms, category=category, args=args
        )

    @contextmanager
    def span(self, name, track, *, category="", args=None):
        with self.inner.span(
            name, self._track(track), category=category, args=args
        ) as extra:
            yield extra

    def instant(self, name, track, ts_ms=None, *, category="", args=None):
        self.inner.instant(
            name, self._track(track), ts_ms, category=category, args=args
        )

    def counter(self, name, track, ts_ms, values):
        self.inner.counter(name, self._track(track), ts_ms, values)

    def async_begin(self, name, track, correlation, ts_ms, *, category="", args=None):
        self.inner.async_begin(
            name, self._track(track), correlation, ts_ms,
            category=category, args=args,
        )

    def async_end(self, name, track, correlation, ts_ms, *, category="", args=None):
        self.inner.async_end(
            name, self._track(track), correlation, ts_ms,
            category=category, args=args,
        )


#: Shared disabled tracer; instrumented modules default to this.
NULL_TRACER = NullTracer()
