"""Head + tail trace sampling: bounded traces that keep the interesting spans.

The plain :class:`~repro.obs.trace.Tracer` keeps every record — perfect for a
thousand requests, unbounded at trace-replay scale (a million-request run
emits ~10 records per request lifecycle alone).  Production tracers solve
this with *sampling*; the useful twist for an SLO-driven service is that the
sampling must be **tail-based**: the spans worth keeping are exactly the ones
you cannot pick at arrival time — the requests that missed their deadline,
were shed by admission, or landed in the latency tail.

:class:`SamplingTracer` buffers each request lifecycle (the async-span group
correlated by request id) until its root span closes, then decides:

* **must-keep** — the outcome says ``rejected``, or the measured lifecycle
  latency exceeded the request's deadline (an SLO miss).  These are always
  retained, budget or not.
* **head sample** — request id divisible by ``head_every``: a deterministic
  1-in-N baseline of *normal* traffic, so the trace still shows what healthy
  requests look like.
* **tail candidates** — everything else competes for the remaining budget;
  when the retained-record budget overflows, the *fastest non-head* groups
  evict first, so the slowest (p99) lifecycles survive.

Non-request records (queue-depth counters, batch instants, kernel spans)
decimate per track with a stride-doubling reservoir: each track keeps at most
``track_budget`` records, and whenever a track fills, every other kept record
drops and the sampling stride doubles — bounded memory, roughly uniform
time coverage.  Alert and autoscale instants are exempt (rare and precious).

Everything is deterministic — decisions depend only on request ids, virtual
timestamps and arrival order — so a sampled trace of a seeded run is
byte-reproducible, and :meth:`SamplingTracer.sampling_metadata` reports
exactly what was kept and dropped (surfaced by ``ios-bench trace``).
"""

from __future__ import annotations

import heapq
from array import array
from dataclasses import dataclass
from typing import Mapping

from ..checks import require_int
from .trace import (
    ASYNC_BEGIN, ASYNC_END, COUNTER, INSTANT, SPAN, TraceRecord, Tracer,
)

__all__ = ["SamplingConfig", "SamplingTracer", "parse_sampling_spec"]

#: Instant categories never decimated (rare, high-signal).
_EXEMPT_CATEGORIES = frozenset({"alert", "autoscale"})


@dataclass(frozen=True)
class SamplingConfig:
    """Knobs of the :class:`SamplingTracer`.

    ``max_records`` budgets the *request-lifecycle* records retained; SLO-miss
    and rejected groups are always kept even when they alone exceed it (the
    guarantee that matters is never losing a miss).  ``head_every=N`` keeps a
    deterministic 1-in-N baseline of healthy requests (0 disables head
    sampling).  ``track_budget`` caps every non-request track independently.
    """

    max_records: int = 50_000
    head_every: int = 100
    keep_slo_miss: bool = True
    keep_rejected: bool = True
    track_budget: int = 4_000

    def __post_init__(self):
        require_int("max_records", self.max_records)
        require_int("head_every", self.head_every, minimum=0)
        require_int("track_budget", self.track_budget, minimum=2)


class _Run:
    """Retained records with their recording-order seqs, side by side.

    The seqs sit in an ``array('q')`` (eight bytes each) beside a plain list
    of the records, so a retained record costs neither a ``(seq, record)``
    pair tuple nor a boxed seq ``int``.
    """

    __slots__ = ("seqs", "records")

    def __init__(self):
        self.seqs = array("q")
        self.records: list[TraceRecord] = []

    def append(self, seq: int, record: TraceRecord) -> None:
        self.seqs.append(seq)
        self.records.append(record)

    def halve(self) -> int:
        """Keep every other record, first included; returns how many dropped."""
        dropped = len(self.records) // 2
        self.seqs = self.seqs[::2]
        self.records = self.records[::2]
        return dropped

    def __len__(self) -> int:
        return len(self.records)


class _TrackReservoir:
    """Stride-doubling decimator: bounded, roughly uniform time coverage."""

    __slots__ = ("budget", "stride", "seen", "kept", "dropped")

    def __init__(self, budget: int):
        self.budget = budget
        self.stride = 1
        self.seen = 0
        self.kept = _Run()
        self.dropped = 0

    def offer(self, seq: int, record: TraceRecord) -> int:
        """Offer one record; returns the change in the number of kept records."""
        index = self.seen
        self.seen += 1
        if index % self.stride:
            self.dropped += 1
            return 0
        self.kept.append(seq, record)
        if len(self.kept) < self.budget:
            return 1
        # Halve: drop every other kept record, double the stride.
        halved = self.kept.halve()
        self.dropped += halved
        self.stride *= 2
        return 1 - halved


class SamplingTracer(Tracer):
    """A :class:`~repro.obs.trace.Tracer` that samples instead of hoarding.

    Drop-in for the serving loop: same recording API, same ``records``
    contract (the property merges every retained record back into global
    recording order), so :func:`~repro.obs.export.chrome_trace` renders a
    sampled trace unchanged — whole lifecycle groups are kept or dropped
    atomically, so async begin/end pairs stay balanced and the exporter's
    validator passes.
    """

    def __init__(self, config: SamplingConfig | None = None, **kwargs):
        self.config = config or SamplingConfig()
        self._seq = 0
        #: Closed, retained lifecycle groups: correlation → records.
        self._kept_groups: dict[int, _Run] = {}
        #: Open lifecycle buffers: correlation → (root name, records).
        self._open: dict[int, tuple[str, _Run]] = {}
        #: Eviction heap over discretionary groups: (is_head, latency, corr).
        self._evictable: list[tuple[int, float, int]] = []
        self._tracks: dict[str, _TrackReservoir] = {}
        self._exempt = _Run()
        self._kept_request_records = 0
        #: Running totals of records in ``_open`` buffers and ``_tracks``
        #: reservoirs, so counting the retained records never rescans them.
        self._open_request_records = 0
        self._track_records = 0
        self._stats = {
            "requests_total": 0, "requests_kept": 0, "requests_dropped": 0,
            "slo_miss_kept": 0, "rejected_kept": 0, "head_kept": 0,
            "records_dropped": 0, "peak_retained": 0, "peak_request_records": 0,
        }
        super().__init__(**kwargs)

    # ------------------------------------------------------------ record sink
    @property
    def records(self) -> list[TraceRecord]:
        """Every retained record, merged back into recording order.

        The runs are concatenated, then argsorted by their seqs: no pair
        tuple is built per record.
        """
        runs = [
            *self._kept_groups.values(),
            *(group for _, group in self._open.values()),
            *(reservoir.kept for reservoir in self._tracks.values()),
            self._exempt,
        ]
        seqs = array("q")
        records: list[TraceRecord] = []
        for run in runs:
            seqs += run.seqs
            records += run.records
        return [records[i] for i in sorted(range(len(records)), key=seqs.__getitem__)]

    @records.setter
    def records(self, value) -> None:
        # The base class assigns ``records = []`` on construction/clear; a
        # sampling tracer interprets that as a full reset.
        if value:
            raise ValueError("a SamplingTracer's records cannot be assigned")
        self._seq = 0
        self._kept_groups.clear()
        self._open.clear()
        self._evictable.clear()
        self._tracks.clear()
        self._exempt = _Run()
        self._kept_request_records = 0
        self._open_request_records = 0
        self._track_records = 0
        for key in self._stats:
            self._stats[key] = 0

    def __len__(self) -> int:
        return (
            self._kept_request_records
            + self._open_request_records
            + self._track_records
            + len(self._exempt)
        )

    # -------------------------------------------------------------- ingestion
    def _ingest(self, record: TraceRecord) -> None:
        seq = self._seq
        self._seq += 1
        if record.category == "request" and record.correlation is not None:
            self._ingest_request(seq, record)
        elif record.category in _EXEMPT_CATEGORIES:
            self._exempt.append(seq, record)
        else:
            reservoir = self._tracks.get(record.track)
            if reservoir is None:
                reservoir = _TrackReservoir(self.config.track_budget)
                self._tracks[record.track] = reservoir
            self._track_records += reservoir.offer(seq, record)
        request_records = self._kept_request_records + self._open_request_records
        if request_records > self._stats["peak_request_records"]:
            self._stats["peak_request_records"] = request_records
        retained = request_records + self._track_records + len(self._exempt)
        if retained > self._stats["peak_retained"]:
            self._stats["peak_retained"] = retained

    def _open_records(self) -> int:
        return self._open_request_records

    def _ingest_request(self, seq: int, record: TraceRecord) -> None:
        correlation = record.correlation
        entry = self._open.get(correlation)
        self._open_request_records += 1
        if entry is None:
            # First record of a lifecycle: its name is the root span's name.
            group = _Run()
            group.append(seq, record)
            self._open[correlation] = (record.name, group)
            self._stats["requests_total"] += 1
            # An opening buffer counts against the budget immediately — evict
            # settled discretionary groups now, so the *peak* of retained
            # request records honours max_records, not just the settled count.
            self._enforce_budget()
            return
        root_name, group = entry
        group.append(seq, record)
        if record.kind == ASYNC_END and record.name == root_name:
            del self._open[correlation]
            self._open_request_records -= len(group)
            self._decide(correlation, group)
        else:
            self._enforce_budget()

    # --------------------------------------------------------------- decisions
    def _decide(self, correlation: int, group: _Run) -> None:
        """Keep or drop one closed lifecycle group, then enforce the budget."""
        config = self.config
        root_begin = next(
            record for record in group.records
            if record.kind == ASYNC_BEGIN and record.correlation == correlation
        )
        root_end = group.records[-1]
        end_args = root_end.args or {}
        rejected = end_args.get("outcome") == "rejected"
        latency_ms = root_end.ts_ms - root_begin.ts_ms
        deadline = (root_begin.args or {}).get("deadline_ms")
        slo_miss = (
            not rejected and deadline is not None and latency_ms > float(deadline)
        )
        must_keep = (rejected and config.keep_rejected) or (
            slo_miss and config.keep_slo_miss
        )
        is_head = bool(config.head_every) and correlation % config.head_every == 0
        self._kept_groups[correlation] = group
        self._kept_request_records += len(group)
        if must_keep:
            self._stats["rejected_kept" if rejected else "slo_miss_kept"] += 1
        else:
            if is_head:
                self._stats["head_kept"] += 1
            heapq.heappush(self._evictable, (int(is_head), latency_ms, correlation))
        self._stats["requests_kept"] += 1
        self._enforce_budget()

    def _enforce_budget(self) -> None:
        """Evict the fastest non-head discretionary groups over budget.

        Must-keeps are never candidates.  Still-open lifecycle buffers count
        against the budget too (and this runs as they grow), so the *peak* of
        retained request records — not just the settled count — honours
        ``max_records`` whenever discretionary groups remain to shed.
        """
        while (
            self._kept_request_records + self._open_request_records
            > self.config.max_records
            and self._evictable
        ):
            is_head_key, _, victim = heapq.heappop(self._evictable)
            evicted = self._kept_groups.pop(victim, None)
            if evicted is None:
                continue  # stale heap entry
            self._kept_request_records -= len(evicted)
            self._stats["requests_kept"] -= 1
            self._stats["requests_dropped"] += 1
            self._stats["records_dropped"] += len(evicted)
            if is_head_key:
                self._stats["head_kept"] -= 1

    # ------------------------------------------------------------- recording
    def _decimated(self, track: str, category: str) -> bool:
        """Whether ``track``'s reservoir drops the next record.

        A dropped record is counted as seen and dropped right here, exactly
        as :meth:`_TrackReservoir.offer` would count it, so the recording
        methods never build a record only for a reservoir to discard it.
        Request lifecycle records never reach this check.
        """
        reservoir = self._tracks.get(track)
        if (
            reservoir is None
            or not reservoir.seen % reservoir.stride
            or category in _EXEMPT_CATEGORIES
        ):
            return False
        reservoir.seen += 1
        reservoir.dropped += 1
        self._seq += 1
        return True

    def add_span(self, name, track, start_ms, end_ms, *, category="", args=None):
        if self._decimated(track, category):
            return
        self._ingest(TraceRecord(
            SPAN, name, track, start_ms, max(0.0, end_ms - start_ms), category,
            None, args,
        ))

    def instant(self, name, track, ts_ms=None, *, category="", args=None):
        # Read the clock even for a dropped instant: an injected clock may
        # tick on every read.
        if ts_ms is None:
            ts_ms = self.now_ms()
        if self._decimated(track, category):
            return
        self._ingest(TraceRecord(INSTANT, name, track, ts_ms, 0.0, category, None, args))

    def counter(self, name, track, ts_ms, values):
        if self._decimated(track, ""):
            return
        self._ingest(TraceRecord(COUNTER, name, track, ts_ms, 0.0, "", None, dict(values)))

    def async_begin(self, name, track, correlation, ts_ms, *, category="", args=None):
        if (
            (category != "request" or correlation is None)
            and self._decimated(track, category)
        ):
            return
        self._ingest(TraceRecord(
            ASYNC_BEGIN, name, track, ts_ms, 0.0, category, correlation, args,
        ))

    def async_end(self, name, track, correlation, ts_ms, *, category="", args=None):
        if (
            (category != "request" or correlation is None)
            and self._decimated(track, category)
        ):
            return
        self._ingest(TraceRecord(
            ASYNC_END, name, track, ts_ms, 0.0, category, correlation, args,
        ))

    # --------------------------------------------------------------- metadata
    def sampling_metadata(self) -> Mapping[str, object]:
        """What was kept and dropped (embedded in the exported trace)."""
        stats = self._stats
        track_dropped = sum(r.dropped for r in self._tracks.values())
        return {
            "budget": self.config.max_records,
            "head_every": self.config.head_every,
            "track_budget": self.config.track_budget,
            "requests": {
                "total": stats["requests_total"],
                "kept": stats["requests_kept"],
                "dropped": stats["requests_dropped"],
                "head_kept": stats["head_kept"],
                "slo_miss_kept": stats["slo_miss_kept"],
                "rejected_kept": stats["rejected_kept"],
            },
            "records": {
                "kept": len(self),
                "dropped": stats["records_dropped"] + track_dropped,
                "peak_retained": stats["peak_retained"],
                "peak_request_records": stats["peak_request_records"],
            },
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        stats = self._stats
        return (
            f"<SamplingTracer {len(self)} records retained, "
            f"{stats['requests_kept']}/{stats['requests_total']} requests>"
        )


def parse_sampling_spec(spec: str) -> SamplingConfig:
    """Build a :class:`SamplingConfig` from a CLI spec.

    ``--trace-sample`` alone uses the defaults; otherwise a comma list of
    ``budget=<records>``, ``head=<every Nth>``, ``track=<records per track>``,
    e.g. ``--trace-sample budget=20000,head=50``.
    """
    spec = spec.strip()
    if not spec or spec == "default":
        return SamplingConfig()
    values: dict[str, int] = {}
    keys = {"budget": "max_records", "head": "head_every", "track": "track_budget"}
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        key, sep, raw = part.partition("=")
        if not sep:
            raise ValueError(
                f"malformed sampling entry {part!r} in {spec!r}; expected key=value"
            )
        field = keys.get(key.strip())
        if field is None:
            raise ValueError(
                f"unknown sampling key {key!r} (expected budget/head/track)"
            )
        if field in values:
            raise ValueError(f"sampling key {key.strip()!r} repeated in {spec!r}")
        try:
            values[field] = int(raw)
        except ValueError:
            raise ValueError(f"sampling spec {part!r}: {raw!r} is not an integer")
    return SamplingConfig(**values)
