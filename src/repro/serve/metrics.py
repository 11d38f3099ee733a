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

from ..obs.metrics import MetricsRegistry, PartedSeries, ordered_sum, percentiles
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
    def from_values(cls, values: "Sequence[float] | PartedSeries") -> "LatencySummary":
        """Summarise a non-empty sequence of latency samples.

        The mean divides their :func:`~repro.obs.ordered_sum` (a
        :class:`~repro.obs.PartedSeries` brings its running sum).
        """
        p50, p95, p99 = percentiles(values, (50, 95, 99))
        return cls(
            mean_ms=ordered_sum(values) / len(values),
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

    The fold is the one store of what a report reads per record.  Each
    record's latency and queue delay are appended once, as the record is
    taken, to the arrays of its (device, priority) cell, eight bytes each;
    the overall, per-device and per-priority distributions are unions of
    cells, and every mean divides a running sum kept in record order.
    Everything else is counts — samples, the first arrival and last
    completion, deadlines met, per-burst tallies.  A device's two unions are
    :class:`~repro.obs.PartedSeries` the run's ``serve.latency_ms`` and
    ``serve.queue_delay_ms`` histogram series read (:meth:`latencies_on`,
    :meth:`queue_delays_on`), so they hold no copy.  The serving loop hands
    each record to its run's fold as the record is made, and
    :func:`build_report` reads the fold, so every sum and percentile adds the
    same floats in the same order whichever way the report is built.

    ``keep_records`` says whether the fold also keeps the record objects (the
    report's ``records``); it is fixed for the fold's life and changes no
    number.  A standalone run keeps them.  A cluster host keeps them only
    when they are its clients' own end-to-end records: a pipeline stage's
    host, or a host behind a modeled ingress link, takes stage records and
    keeps none.  Rejections are always kept: a cluster maps them back to the
    requests its clients sent.
    """

    __slots__ = (
        "keep_records", "records", "rejected", "num_samples", "first_arrival_ms",
        "last_completion_ms", "met", "with_deadline", "latency_total",
        "queue_delay_total", "cells", "devices", "classes", "bursts", "reasons",
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
        #: Every record's latency and queue delay, summed in record order.
        self.latency_total = 0.0
        self.queue_delay_total = 0.0
        #: (device, priority) -> (latencies, queue delays, the device's two
        #: series, the priority's class), one entry per cell.
        self.cells: dict[tuple[str, int], tuple] = {}
        #: device -> (latencies, queue delays) of the records that ran on it.
        self.devices: dict[str, tuple[PartedSeries, PartedSeries]] = {}
        #: priority -> [met, rejected].
        self.classes: dict[int, list[int]] = {}
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
        for record in records:
            fold.add(record)
        for rejection in rejected:
            fold.reject(rejection)
        return fold

    @property
    def num_records(self) -> int:
        """Records taken so far (kept or not)."""
        return sum(len(cell[0]) for cell in self.cells.values())

    @property
    def latencies(self) -> PartedSeries:
        """Every record's latency, cell by cell, with their running sum."""
        return PartedSeries([cell[0] for cell in self.cells.values()], self.latency_total)

    @property
    def queue_delays(self) -> PartedSeries:
        """Every record's queue delay, cell by cell, with their running sum."""
        return PartedSeries(
            [cell[1] for cell in self.cells.values()], self.queue_delay_total
        )

    def latencies_on(self, device: str) -> PartedSeries:
        """The latencies of the records that ran on ``device``, as they come."""
        return self._device(device)[0]

    def queue_delays_on(self, device: str) -> PartedSeries:
        """The queue delays of the records that ran on ``device``, as they come."""
        return self._device(device)[1]

    def _device(self, device: str) -> tuple[PartedSeries, PartedSeries]:
        series = self.devices.get(device)
        if series is None:
            series = self.devices[device] = (PartedSeries(), PartedSeries())
        return series

    def _cell(self, device: str, priority: int) -> tuple:
        latency, queue_delay = self._device(device)
        cell = self.cells[device, priority] = (
            array("d"), array("d"), latency, queue_delay,
            self.classes.setdefault(priority, [0, 0]),
        )
        latency.parts.append(cell[0])
        queue_delay.parts.append(cell[1])
        return cell

    def add(self, record: RequestRecord) -> None:
        """Take one finished request, in the run's record order."""
        if self.keep_records:
            self.records.append(record)
        request = record.request
        arrival_ms = request.arrival_ms
        completion_ms = record.completion_ms
        # RequestRecord.latency_ms and queue_delay_ms, bit for bit.
        latency_ms = completion_ms - arrival_ms
        queue_delay_ms = record.dispatch_ms - arrival_ms
        self.num_samples += request.num_samples
        if arrival_ms < self.first_arrival_ms:
            self.first_arrival_ms = arrival_ms
        if completion_ms > self.last_completion_ms:
            self.last_completion_ms = completion_ms
        self.latency_total += latency_ms
        self.queue_delay_total += queue_delay_ms
        cell = self.cells.get((record.device, request.priority))
        if cell is None:
            cell = self._cell(record.device, request.priority)
        latencies, queue_delays, device_latencies, device_queue_delays, group = cell
        latencies.append(latency_ms)
        queue_delays.append(queue_delay_ms)
        device_latencies.total += latency_ms
        device_queue_delays.total += queue_delay_ms
        # RequestRecord.deadline_met, without the inf of a missing deadline.
        deadline_ms = request.deadline_ms
        if deadline_ms is None:
            hit = True
        else:
            self.with_deadline += 1
            hit = completion_ms <= arrival_ms + deadline_ms
        if hit:
            self.met += 1
            group[0] += 1
        if request.burst_id is not None:
            burst = self.bursts.get(request.burst_id)
            if burst is None:
                burst = self.bursts[request.burst_id] = [0, 0, 0]
            burst[0] += 1
            burst[1] += hit

    def reject(self, rejection: RejectedRequest) -> None:
        """Fold (and keep) one request the admission policy refused."""
        self.rejected.append(rejection)
        self.reasons[rejection.reason] = self.reasons.get(rejection.reason, 0) + 1
        request = rejection.request
        if request.arrival_ms < self.first_arrival_ms:
            self.first_arrival_ms = request.arrival_ms
        self.classes.setdefault(request.priority, [0, 0])[1] += 1
        if request.burst_id is not None:
            self.bursts.setdefault(request.burst_id, [0, 0, 0])[2] += 1

    def slo_summary(self) -> SloSummary:
        """The :class:`SloSummary` of everything taken so far."""
        per_priority: list[PriorityClassSlo] = []
        for priority in sorted(self.classes, reverse=True):
            class_met, class_rejected = self.classes[priority]
            latencies = PartedSeries([
                cell[0] for (_, cell_priority), cell in self.cells.items()
                if cell_priority == priority
            ])
            admitted = len(latencies)
            class_offered = admitted + class_rejected
            p50, p95, p99 = (
                percentiles(latencies, (50, 95, 99)) if admitted else (0.0,) * 3
            )
            per_priority.append(
                PriorityClassSlo(
                    priority=priority,
                    offered=class_offered,
                    admitted=admitted,
                    rejected=class_rejected,
                    met=class_met,
                    violations=admitted - class_met,
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
        fold = records
    else:
        fold = ReportFold.of(records, rejected)
    num_records = fold.num_records
    if not num_records and not fold.rejected:
        raise ValueError("cannot build a serving report from zero records")
    first_arrival = fold.first_arrival_ms
    last_completion = fold.last_completion_ms if num_records else first_arrival
    makespan_ms = max(last_completion - first_arrival, 1e-9)
    device_summary: list[dict[str, object]] = []
    for group in group_summary or []:
        row = dict(group)
        device = fold.devices.get(row["device"])
        group_latencies = device[0] if device is not None else ()
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
