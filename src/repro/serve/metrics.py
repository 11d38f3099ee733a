"""Serving metrics: per-request accounting and aggregate reports.

The serving loop produces one :class:`~repro.serve.request.RequestRecord` per
request and hands each to its run's :class:`ReportFold` as it is made.  The
fold is the report's one walk over the records: :func:`build_report` reads
it (or folds a record list through one) into the numbers a serving system is
judged by — throughput (requests/s and samples/s), latency percentiles
(p50/p95/p99), queue delay, batch-size distribution — plus the registry and
worker statistics that explain *why* the numbers look the way they do.

Heterogeneous fleets additionally get a **per-device-group** breakdown
(``ServingReport.device_summary``): for each device type, worker count,
batches/samples executed, group utilisation, and the latency summary of the
requests that ran on that group — the numbers that show whether the router
actually put the fast silicon to work.

SLO-aware runs (requests carrying ``deadline_ms``, an admission policy other
than admit-all, or an autoscaler) additionally get
``ServingReport.slo_summary`` — attainment rate, violations, rejections and
p50/p95/p99 per priority class (and per traffic burst when requests carry
``burst_id``) — plus the autoscaler's ``scale_events``.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field, replace
from typing import Sequence

from ..obs.metrics import MetricsRegistry, percentiles
from .registry import RegistryStats
from .request import RejectedRequest, RequestRecord

__all__ = [
    "LatencySummary",
    "PriorityClassSlo",
    "BurstSlo",
    "SloSummary",
    "ServingReport",
    "ReportFold",
    "build_report",
    "build_slo_summary",
]


@dataclass(frozen=True)
class LatencySummary:
    """Five-number summary of a latency distribution (milliseconds)."""

    mean_ms: float
    p50_ms: float
    p95_ms: float
    p99_ms: float
    max_ms: float

    @classmethod
    def from_values(cls, values: Sequence[float]) -> "LatencySummary":
        """Summarise a non-empty sequence of latency samples."""
        p50, p95, p99 = percentiles(values, (50, 95, 99))
        return cls(
            mean_ms=sum(values) / len(values),
            p50_ms=p50,
            p95_ms=p95,
            p99_ms=p99,
            max_ms=max(values),
        )

    @classmethod
    def empty(cls) -> "LatencySummary":
        """The all-zero summary of a run that completed no request at all.

        Only SLO runs can produce one: an admission policy may reject every
        request (e.g. all deadlines already missed at arrival), leaving no
        latency sample to summarise.
        """
        return cls(mean_ms=0.0, p50_ms=0.0, p95_ms=0.0, p99_ms=0.0, max_ms=0.0)

    def as_dict(self, prefix: str = "") -> dict[str, float]:
        """Flat dict form with keys prefixed by ``prefix`` (CSV columns)."""
        return {
            f"{prefix}mean_ms": self.mean_ms,
            f"{prefix}p50_ms": self.p50_ms,
            f"{prefix}p95_ms": self.p95_ms,
            f"{prefix}p99_ms": self.p99_ms,
            f"{prefix}max_ms": self.max_ms,
        }


@dataclass(frozen=True)
class PriorityClassSlo:
    """SLO accounting of one priority class."""

    priority: int
    #: Requests of this class offered to the service (admitted + rejected).
    offered: int
    admitted: int
    rejected: int
    #: Completed within their deadline (no-deadline requests count as met).
    met: int
    #: Completed after their deadline.
    violations: int
    #: ``met / offered`` — a rejected request never attains its SLO.
    attainment: float
    #: Latency percentiles over the class's *completed* requests.
    p50_ms: float
    p95_ms: float
    p99_ms: float


@dataclass(frozen=True)
class BurstSlo:
    """SLO attainment of one traffic burst (requests sharing a ``burst_id``)."""

    burst_id: int
    offered: int
    admitted: int
    met: int
    attainment: float


@dataclass(frozen=True)
class SloSummary:
    """Deadline/admission accounting of one serving run.

    ``attainment_rate`` is ``met / offered``: the fraction of *all* requests
    the clients submitted that completed within their deadline.  A rejected
    request never attains its SLO — load shedding pays off only by letting
    the admitted requests meet theirs.  Requests without a deadline count as
    met upon completion.
    """

    offered: int
    admitted: int
    rejected: int
    #: Admitted requests that carried a deadline.
    with_deadline: int
    met: int
    violations: int
    attainment_rate: float
    #: Rejections grouped by the policy's reason string.
    rejection_reasons: dict[str, int] = field(default_factory=dict)
    #: Per-priority-class breakdown, highest priority first.
    per_priority: list[PriorityClassSlo] = field(default_factory=list)
    #: Per-burst attainment (bursty traffic only), in burst order.
    per_burst: list[BurstSlo] = field(default_factory=list)

    def describe(self) -> str:
        """Human-readable multi-line SLO section (what the CLI prints)."""
        lines = [
            f"slo       : {self.met}/{self.offered} met "
            f"({self.attainment_rate:.1%} attainment), "
            f"{self.violations} violations, {self.rejected} rejected"
        ]
        if self.rejection_reasons:
            reasons = ", ".join(
                f"{reason}×{count}"
                for reason, count in sorted(self.rejection_reasons.items())
            )
            lines.append(f"rejections: {reasons}")
        for row in self.per_priority:
            lines.append(
                f"priority {row.priority}: {row.met}/{row.offered} met "
                f"({row.attainment:.1%}), p50 {row.p50_ms:.3f}  "
                f"p95 {row.p95_ms:.3f}  p99 {row.p99_ms:.3f} ms"
            )
        return "\n".join(lines)


@dataclass
class ServingReport:
    """Aggregate result of one serving run."""

    num_requests: int
    num_samples: int
    num_batches: int
    #: Wall-clock span of the run on the virtual clock, first arrival to last
    #: completion, in milliseconds.
    makespan_ms: float
    throughput_rps: float
    throughput_samples_per_s: float
    latency: LatencySummary
    queue_delay: LatencySummary
    #: How many batches executed at each specialised batch size.
    batch_size_counts: dict[int, int] = field(default_factory=dict)
    #: Snapshot of the registry counters at the end of the run.
    registry_stats: RegistryStats = field(default_factory=RegistryStats)
    #: Per-worker accounting rows from the pool.
    worker_summary: list[dict[str, object]] = field(default_factory=list)
    #: Per-device-group rows (device, workers, batches, samples, utilization,
    #: plus a latency summary of the requests that group executed).  Empty for
    #: reports built without pool group accounting.
    device_summary: list[dict[str, object]] = field(default_factory=list)
    #: Name of the routing policy that dispatched the batches ("" pre-fleet).
    router: str = ""
    records: list[RequestRecord] = field(default_factory=list)
    #: Name of the admission policy that gated arrivals ("" pre-SLO).
    admission: str = ""
    #: Requests the admission policy refused to queue.
    rejected: list[RejectedRequest] = field(default_factory=list)
    #: Deadline/admission accounting; ``None`` for runs without SLOs.
    slo_summary: SloSummary | None = None
    #: Autoscaler resize events, in event order (empty without an autoscaler).
    scale_events: list = field(default_factory=list)
    #: Alert transitions (:class:`~repro.obs.AlertEvent`), in window order;
    #: empty for runs without alert rules.
    alerts: list = field(default_factory=list)
    #: The run's full metrics registry (queue depth, admission outcomes,
    #: latency distributions, per-worker utilisation series, ...); ``None``
    #: for reports built without one.  Deliberately absent from
    #: :meth:`describe`.
    metrics: MetricsRegistry | None = None

    @property
    def mean_batch_occupancy(self) -> float:
        """Average samples per executed batch."""
        if self.num_batches == 0:
            return 0.0
        return self.num_samples / self.num_batches

    def describe(self) -> str:
        """Human-readable multi-line report (what the CLI prints)."""
        lines = [
            f"served {self.num_requests} requests ({self.num_samples} samples) "
            f"in {self.num_batches} batches over {self.makespan_ms:.2f} ms",
            f"throughput: {self.throughput_rps:.1f} req/s, "
            f"{self.throughput_samples_per_s:.1f} samples/s",
            f"latency   : mean {self.latency.mean_ms:.3f}  p50 {self.latency.p50_ms:.3f}  "
            f"p95 {self.latency.p95_ms:.3f}  p99 {self.latency.p99_ms:.3f}  "
            f"max {self.latency.max_ms:.3f} ms",
            f"queue     : mean {self.queue_delay.mean_ms:.3f}  "
            f"p95 {self.queue_delay.p95_ms:.3f} ms",
            "batch mix : "
            + ", ".join(
                f"bs{size}×{count}" for size, count in sorted(self.batch_size_counts.items())
            ),
            f"registry  : {self.registry_stats.searches} searches, "
            f"{self.registry_stats.disk_hits} disk hits, "
            f"{self.registry_stats.memory_hits} memory hits",
        ]
        if self.router:
            lines.append(f"router    : {self.router}")
        # The admission/SLO sections only print when there is something to
        # say (a non-default policy, deadlines in play, shed requests, or
        # several priority classes).
        if self.admission and self.admission != "admit-all":
            lines.append(f"admission : {self.admission}")
        slo = self.slo_summary
        if slo is not None and (
            slo.rejected or slo.with_deadline or len(slo.per_priority) > 1
        ):
            lines.append(slo.describe())
        if self.scale_events:
            ups = sum(1 for event in self.scale_events if event.action == "up")
            downs = len(self.scale_events) - ups
            sizes = " → ".join(
                str(size)
                for size in _pool_size_trajectory(self.scale_events)
            )
            lines.append(
                f"autoscale : {len(self.scale_events)} events "
                f"({ups} up, {downs} down), pool {sizes}"
            )
        # Alert section only for runs that evaluated rules AND saw
        # transitions.
        if self.alerts:
            fired = sum(1 for event in self.alerts if event.state == "firing")
            lines.append(
                f"alerts    : {len(self.alerts)} transitions ({fired} firing)"
            )
            for event in self.alerts:
                lines.append("  " + event.summary())
        for row in self.device_summary:
            latency = row.get("latency")
            latency_text = (
                f", p50 {latency.p50_ms:.3f} / p95 {latency.p95_ms:.3f} ms"
                if isinstance(latency, LatencySummary) else ""
            )
            lines.append(
                f"group {row['device']}×{row['workers']}: {row['batches']} batches, "
                f"{row['samples']} samples, {row['utilization']:.1%} busy"
                + latency_text
            )
        for row in self.worker_summary:
            lines.append(
                f"worker {row['worker']} ({row['device']}): {row['batches']} batches, "
                f"{row['samples']} samples, {row['utilization']:.1%} busy"
            )
        return "\n".join(lines)


def _pool_size_trajectory(scale_events) -> list[int]:
    """Pool sizes the autoscaler stepped through: initial plus each event's."""
    if not scale_events:
        return []
    first = scale_events[0]
    initial = first.num_workers + (1 if first.action == "down" else -1)
    return [initial] + [event.num_workers for event in scale_events]


class ReportFold:
    """One pass over a run's records and rejections, in the order they happen.

    A report reads few things per record: its latency and queue delay, both
    overall and its latency per device and per priority class (kept here in
    record order, eight bytes each), plus counts — samples, the first arrival
    and last completion, deadlines met, per-burst tallies.  The serving loop
    hands each record to its run's fold as the record is made, and
    :func:`build_report` reads the fold, so every sum and percentile adds
    the same floats in the same order whichever way the report is built.

    ``keep_records`` says whether the fold keeps the record objects (the
    report's ``records``); it is fixed for the fold's life.  A standalone run
    keeps them, and then the floats would only repeat what the records hold:
    a keeping fold folds its records, in order, when it is first read.  A
    cluster's intermediate pipeline stages keep none — their reports need
    only the summaries — so their folds take each record's floats at once
    and let the record go.  Rejections are always kept: a cluster maps them
    back to the requests its clients sent.
    """

    __slots__ = (
        "keep_records", "records", "rejected", "num_samples", "first_arrival_ms",
        "last_completion_ms", "met", "with_deadline", "latencies", "queue_delays",
        "device_latencies", "classes", "bursts", "reasons",
    )

    def __init__(self, keep_records: bool = True):
        self.keep_records = keep_records
        self.records: list[RequestRecord] = []
        self.rejected: list[RejectedRequest] = []
        self.num_samples = 0
        self.first_arrival_ms = math.inf
        self.last_completion_ms = -math.inf
        #: Records that met their deadline (no deadline counts as met), and
        #: records that carried one.
        self.met = 0
        self.with_deadline = 0
        self.latencies = array("d")
        self.queue_delays = array("d")
        #: device -> latencies of the records that ran on it.
        self.device_latencies: dict[str, array] = {}
        #: priority -> [latencies, met, rejected].
        self.classes: dict[int, list] = {}
        #: burst id -> [admitted, met, rejected].
        self.bursts: dict[int, list[int]] = {}
        #: rejection reason -> count, in order of first occurrence.
        self.reasons: dict[str, int] = {}

    @classmethod
    def of(
        cls,
        records: Sequence[RequestRecord],
        rejected: Sequence[RejectedRequest] = (),
    ) -> "ReportFold":
        """The fold of finished ``records`` and ``rejected`` requests."""
        fold = cls()
        fold.records.extend(records)
        for rejection in rejected:
            fold.reject(rejection)
        return fold

    @property
    def num_records(self) -> int:
        """Records taken so far (kept or not)."""
        return len(self.records) if self.keep_records else len(self.latencies)

    def add(self, record: RequestRecord) -> None:
        """Take one finished request, in the run's record order."""
        if self.keep_records:
            self.records.append(record)
        else:
            self._fold((record,))

    def _settled(self) -> "ReportFold":
        """This fold, with every kept record folded (in record order)."""
        if len(self.latencies) < len(self.records):
            self._fold(self.records[len(self.latencies):])
        return self

    def _fold(self, records: Sequence[RequestRecord]) -> None:
        """Fold ``records``, in order: the report's one walk over records."""
        latencies, queue_delays = self.latencies, self.queue_delays
        devices, classes, bursts = self.device_latencies, self.classes, self.bursts
        num_samples, met, with_deadline = self.num_samples, self.met, self.with_deadline
        first_arrival_ms = self.first_arrival_ms
        last_completion_ms = self.last_completion_ms
        for record in records:
            request = record.request
            arrival_ms = request.arrival_ms
            completion_ms = record.completion_ms
            # RequestRecord.latency_ms and queue_delay_ms, bit for bit.
            latency_ms = completion_ms - arrival_ms
            num_samples += request.num_samples
            if arrival_ms < first_arrival_ms:
                first_arrival_ms = arrival_ms
            if completion_ms > last_completion_ms:
                last_completion_ms = completion_ms
            latencies.append(latency_ms)
            queue_delays.append(record.dispatch_ms - arrival_ms)
            device = devices.get(record.device)
            if device is None:
                device = devices[record.device] = array("d")
            device.append(latency_ms)
            group = classes.get(request.priority)
            if group is None:
                group = classes[request.priority] = [array("d"), 0, 0]
            group[0].append(latency_ms)
            # RequestRecord.deadline_met, without the inf of a missing deadline.
            deadline_ms = request.deadline_ms
            if deadline_ms is None:
                hit = True
            else:
                with_deadline += 1
                hit = completion_ms <= arrival_ms + deadline_ms
            if hit:
                met += 1
                group[1] += 1
            if request.burst_id is not None:
                burst = bursts.get(request.burst_id)
                if burst is None:
                    burst = bursts[request.burst_id] = [0, 0, 0]
                burst[0] += 1
                burst[1] += hit
        self.num_samples, self.met, self.with_deadline = num_samples, met, with_deadline
        self.first_arrival_ms = first_arrival_ms
        self.last_completion_ms = last_completion_ms

    def reject(self, rejection: RejectedRequest) -> None:
        """Fold (and keep) one request the admission policy refused."""
        self.rejected.append(rejection)
        self.reasons[rejection.reason] = self.reasons.get(rejection.reason, 0) + 1
        request = rejection.request
        if request.arrival_ms < self.first_arrival_ms:
            self.first_arrival_ms = request.arrival_ms
        self.classes.setdefault(request.priority, [array("d"), 0, 0])[2] += 1
        if request.burst_id is not None:
            self.bursts.setdefault(request.burst_id, [0, 0, 0])[2] += 1

    def slo_summary(self) -> SloSummary:
        """The :class:`SloSummary` of everything taken so far."""
        self._settled()
        per_priority: list[PriorityClassSlo] = []
        for priority in sorted(self.classes, reverse=True):
            latencies, class_met, class_rejected = self.classes[priority]
            class_offered = len(latencies) + class_rejected
            p50, p95, p99 = (
                percentiles(latencies, (50, 95, 99)) if latencies else (0.0,) * 3
            )
            per_priority.append(
                PriorityClassSlo(
                    priority=priority,
                    offered=class_offered,
                    admitted=len(latencies),
                    rejected=class_rejected,
                    met=class_met,
                    violations=len(latencies) - class_met,
                    attainment=class_met / class_offered if class_offered else 0.0,
                    p50_ms=p50,
                    p95_ms=p95,
                    p99_ms=p99,
                )
            )

        per_burst: list[BurstSlo] = []
        for burst_id in sorted(self.bursts):
            admitted, burst_met, burst_rejected = self.bursts[burst_id]
            burst_offered = admitted + burst_rejected
            per_burst.append(
                BurstSlo(
                    burst_id=burst_id,
                    offered=burst_offered,
                    admitted=admitted,
                    met=burst_met,
                    attainment=burst_met / burst_offered if burst_offered else 0.0,
                )
            )

        admitted = self.num_records
        offered = admitted + len(self.rejected)
        return SloSummary(
            offered=offered,
            admitted=admitted,
            rejected=len(self.rejected),
            with_deadline=self.with_deadline,
            met=self.met,
            violations=admitted - self.met,
            attainment_rate=self.met / offered if offered else 0.0,
            rejection_reasons=dict(self.reasons),
            per_priority=per_priority,
            per_burst=per_burst,
        )


def build_slo_summary(
    records: Sequence[RequestRecord],
    rejected: Sequence[RejectedRequest] = (),
) -> SloSummary:
    """Fold completed records and rejections into an :class:`SloSummary`.

    Everything is grouped by priority class and by burst (see
    :meth:`ReportFold.slo_summary`).
    """
    return ReportFold.of(records, rejected).slo_summary()


def build_report(
    records: "Sequence[RequestRecord] | ReportFold",
    num_batches: int,
    batch_size_counts: dict[int, int],
    registry_stats: RegistryStats,
    worker_summary: list[dict[str, object]],
    group_summary: list[dict[str, object]] | None = None,
    router: str = "",
    admission: str = "",
    rejected: Sequence[RejectedRequest] = (),
    scale_events: Sequence | None = None,
    alerts: Sequence | None = None,
    metrics: MetricsRegistry | None = None,
) -> ServingReport:
    """Build a :class:`ServingReport` from a run's records, through one fold.

    Parameters
    ----------
    records:
        One finished :class:`~repro.serve.request.RequestRecord` per request,
        or the :class:`ReportFold` that already folded them and the run's
        rejections (what a serving loop hands over).
    num_batches:
        Device executions performed (a formed batch may chunk into several).
    batch_size_counts:
        Executions per specialised batch size.
    registry_stats:
        Registry counters to snapshot into the report.
    worker_summary:
        Per-worker rows from :meth:`~repro.serve.workers.WorkerPool.summary`.
    group_summary:
        Per-device-group rows from
        :meth:`~repro.serve.workers.WorkerPool.group_summary`; each group is
        enriched with the latency summary of the requests it executed.
    router:
        Name of the routing policy that dispatched the batches.
    admission:
        Name of the admission policy that gated arrivals; any non-empty name
        (or any request with a deadline, or any rejection) adds an
        :class:`SloSummary` to the report.
    rejected:
        Requests the admission policy refused to queue (a fold carries its
        own).  A run may consist of rejections only — then every latency
        summary is all-zero.
    scale_events:
        Autoscaler resize events to record in the report.
    alerts:
        Alert transitions (:class:`~repro.obs.AlertEvent`) to record; the
        report prints them only when non-empty.
    metrics:
        The run's :class:`~repro.obs.MetricsRegistry` to attach to the
        report (``ios-bench serve --metrics`` dumps it); never printed by
        :meth:`ServingReport.describe`.
    """
    if isinstance(records, ReportFold):
        if rejected:
            raise ValueError("a ReportFold carries its own rejections")
        fold = records._settled()
    else:
        fold = ReportFold.of(records, rejected)._settled()
    num_records = fold.num_records
    if not num_records and not fold.rejected:
        raise ValueError("cannot build a serving report from zero records")
    first_arrival = fold.first_arrival_ms
    last_completion = fold.last_completion_ms if num_records else first_arrival
    makespan_ms = max(last_completion - first_arrival, 1e-9)
    device_summary: list[dict[str, object]] = []
    for group in group_summary or []:
        row = dict(group)
        group_latencies = fold.device_latencies.get(row["device"], ())
        row["requests"] = len(group_latencies)
        if group_latencies:
            row["latency"] = LatencySummary.from_values(group_latencies)
        device_summary.append(row)
    # The default admit-all policy on deadline-free traffic is not an SLO
    # signal: plain runs keep slo_summary is None, preserving the "None for
    # runs without SLOs" contract downstream code branches on.
    slo_summary = None
    if (admission and admission != "admit-all") or fold.rejected or fold.with_deadline:
        slo_summary = fold.slo_summary()
    return ServingReport(
        num_requests=num_records,
        num_samples=fold.num_samples,
        num_batches=num_batches,
        makespan_ms=makespan_ms,
        throughput_rps=num_records / (makespan_ms / 1e3),
        throughput_samples_per_s=fold.num_samples / (makespan_ms / 1e3),
        latency=(
            LatencySummary.from_values(fold.latencies)
            if num_records else LatencySummary.empty()
        ),
        queue_delay=(
            LatencySummary.from_values(fold.queue_delays)
            if num_records else LatencySummary.empty()
        ),
        batch_size_counts=dict(sorted(batch_size_counts.items())),
        # Copy: the registry keeps mutating its own counters when it is shared
        # across runs, and the report promises a snapshot.
        registry_stats=replace(registry_stats),
        worker_summary=worker_summary,
        device_summary=device_summary,
        router=router,
        records=fold.records,
        admission=admission,
        rejected=list(fold.rejected),
        slo_summary=slo_summary,
        scale_events=list(scale_events or []),
        alerts=list(alerts or []),
        metrics=metrics,
    )
