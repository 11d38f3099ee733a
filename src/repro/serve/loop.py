"""The discrete-event serving loop: the execution model behind the service.

:class:`ServingLoop` replays a request stream on the virtual clock as a
classic discrete-event simulation.  Arrivals come in time order from the
stream (or a cluster run) and an :class:`EventQueue` orders the loop's own
events; together they are everything that can happen to the service:

* **arrivals** — a request enters; the admission policy decides whether it
  may queue, then the max-batch/max-wait rules decide whether the forming
  batch closes;
* **batch-close timeouts** — the oldest queued request has waited
  ``max_wait_ms``; the batch flushes even though it is not full;
* **worker completions** — a dispatched batch finishes executing; the
  in-flight accounting drops and the autoscaler gets a chance to react;
* **scale checks** — every ``interval_ms`` the autoscaler compares the
  pool's backlog against its watermarks and may add or retire a worker.
  The chain stops once the loop is idle with no arrival due, and the next
  arrival starts it again.

Events at the same instant process deterministically: arrivals first (a
request arriving exactly at a batch's close deadline still joins it), then
completions, then timeouts, then scale checks; ties within a kind break by
insertion order.  A cluster run puts every host's loop on one shared queue,
so the same order holds across hosts (see :class:`EventQueue`).  Given the
same requests and config the loop is therefore a pure function — same
report, down to the last timestamp — and every run starts from the
configured pool, router and autoscaler, so replaying a stream through one
loop reproduces it.

With the default admit-all policy and no autoscaler the loop forms exactly
the batches of a plain max-batch/max-wait replay of the arrivals; the event
heap is there so that *policies that react to time* — deadline-aware
admission, priority preemption, elastic pools — have a place to act.

Admission policies and the autoscaler observe the loop through
:class:`LoopState`, a read-only view exposing the clock, queue depth, worker
horizons, and the engine-backed latency estimates the device-aware router
already uses.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Sequence

from ..obs.alerts import AlertEvent, AlertManager, AlertRule
from ..obs.metrics import LazySeries, MetricsRegistry
from ..obs.timeseries import TimeSeriesRegistry, WatchRenderer, WindowSpan
from ..obs.trace import NULL_TRACER, Tracer
from ..runtime.events import add_execution_spans
from .admission import AdmissionPolicy, AdmitAll
from .batcher import BatchPolicy
from .metrics import ReportFold
from .request import FormedBatch, InferenceRequest, RejectedRequest, RequestRecord

if TYPE_CHECKING:  # pragma: no cover - types only
    from .autoscale import Autoscaler, ScaleEvent
    from .batcher import BatchSizeSelector
    from .fleet import Router
    from .registry import ScheduleRegistry
    from .workers import Worker, WorkerPool

__all__ = ["EventQueue", "LoopResult", "LoopState", "ServingLoop"]

#: A loop's event kinds, in tie-break order at equal virtual time.
_COMPLETION, _TIMEOUT, _SCALE = 0, 1, 2


class EventQueue:
    """Every event of one run on one heap, ordered by ``(time_ms, rank, seq)``.

    Rank 0 is an arrival-side action — in a cluster run, routing an external
    arrival or delivering a request to a host.  Loop ``i`` on the queue (host
    ``i`` of a cluster, loop 0 of a standalone run) ranks its completions,
    timeouts and scale checks ``1 + 3*i + kind``.  At equal times arrival-side
    actions therefore go first, then the loops in index order, each loop's
    kinds in tie-break order; ``seq`` keeps push order within a rank.

    ``arrivals_left`` counts the arrivals still due: rank-0 entries on the
    heap, or the requests a standalone :meth:`ServingLoop.run` has not yet
    handed to its loop.  ``drained`` counts the loop events handled while none
    was due (see :meth:`ServingLoop._arrivals_due`).
    """

    __slots__ = ("_heap", "_seq", "arrivals_left", "drained")

    def __init__(self) -> None:
        self._heap: list[tuple] = []
        self._seq = itertools.count()
        self.arrivals_left = 0
        self.drained = 0

    def push(self, time_ms: float, handler: Callable, payload, rank: int = 0) -> None:
        """Schedule ``handler(time_ms, payload)``; rank 0 is an arrival."""
        if not rank:
            self.arrivals_left += 1
        heapq.heappush(self._heap, (time_ms, rank, next(self._seq), handler, payload))

    def run(self, until_ms: float = math.inf) -> None:
        """Handle, in order, every event strictly earlier than ``until_ms``."""
        heap = self._heap
        while heap and heap[0][0] < until_ms:
            time_ms, rank, _, handler, payload = heapq.heappop(heap)
            if not rank:
                self.arrivals_left -= 1
            elif not self.arrivals_left:
                self.drained += 1
            handler(time_ms, payload)


@dataclass
class LoopResult:
    """Everything one loop run produced, ready for report building.

    ``num_executions`` and ``batch_size_counts`` are assembled from the
    run's metrics registry at the end of :meth:`ServingLoop.run` — the loop
    counts into ``metrics`` (the ``serve.executions`` counter), not into
    parallel bookkeeping.
    """

    #: The run's records and rejections, folded as the loop made them.
    fold: ReportFold = field(default_factory=ReportFold)
    #: Device executions performed (a formed batch may chunk into several).
    num_executions: int = 0
    #: Executions per specialised batch size.
    batch_size_counts: dict[int, int] = field(default_factory=dict)
    #: Autoscaler resizes, in event order.
    scale_events: list["ScaleEvent"] = field(default_factory=list)
    #: Alert transitions (firing/resolved), in window order; only populated
    #: when the loop runs with a :class:`~repro.obs.AlertManager`.
    alerts: list[AlertEvent] = field(default_factory=list)
    #: The run's full metrics registry (queue depth, admission outcomes,
    #: latency/queue-delay distributions, worker utilisation series, ...).
    metrics: MetricsRegistry = field(default_factory=MetricsRegistry)

    @property
    def records(self) -> list[RequestRecord]:
        """Finished requests in dispatch order (``[]`` if the fold drops them)."""
        return self.fold.records

    @property
    def rejected(self) -> list[RejectedRequest]:
        """Requests the admission policy refused, in arrival order."""
        return self.fold.rejected


class LoopState:
    """Read-only view of the loop that admission and autoscaling see.

    Policies never touch the heap or the forming batch directly; they read
    the clock, the queue, the worker horizons, and the same engine-backed
    latency estimates the device-aware router ranks workers with.
    """

    def __init__(self, loop: "ServingLoop"):
        self._loop = loop

    @property
    def now_ms(self) -> float:
        """Current virtual time."""
        return self._loop._now_ms

    @property
    def pool(self) -> "WorkerPool":
        """The worker pool (autoscalers resize it through this handle)."""
        return self._loop.pool

    @property
    def pending_samples(self) -> int:
        """Samples in the forming batch."""
        return self._loop._pending_samples

    def batch_wait_bound_ms(self, request: InferenceRequest) -> float:
        """Worst-case batching wait for ``request`` arriving now.

        Joining a forming batch inherits its remaining close deadline; a
        request opening a fresh batch may wait the full ``max_wait_ms``.
        """
        loop = self._loop
        if loop._pending and (
            loop._pending_samples + request.num_samples
            <= loop.policy.max_batch_size
        ):
            return max(0.0, loop._batch_deadline_ms - self.now_ms)
        return loop.policy.max_wait_ms

    def predicted_execution_ms(self, num_samples: int, worker: "Worker") -> float:
        """Engine-estimated execution latency of the batch on ``worker``."""
        return self._loop.selector.predicted_latency(
            self._loop.model, num_samples, worker.device
        )

    def predicted_completion_ms(self, request: InferenceRequest,
                                immediate: bool = False) -> float:
        """Earliest predicted completion of ``request`` across the pool.

        The same arithmetic the earliest-finish router applies — batching
        wait bound, then per worker ``max(horizon, ready) + execution
        estimate``, minimised over the pool — extended with the work already
        *queued but not dispatched*: samples in the forming batch chunk into
        ladder-sized executions ahead of this request (spread across the
        pool), and the request's own chunk rides last.  Without that term a
        whole burst would be admitted against the same idle horizon.

        ``immediate`` predicts a dispatch *now* (no batching wait) — what a
        preempting arrival experiences.  The worker horizons still apply, so
        skipping the wait only helps when the wait was the binding term.
        """
        loop = self._loop
        wait_ms = 0.0 if immediate else self.batch_wait_bound_ms(request)
        ready_ms = loop._now_ms + wait_ms
        selector = loop.selector
        ladder_max = selector.max_batch_size
        # Only pending work the queue discipline serves *before* this request
        # delays it — priority-preemptive policies jump their high classes
        # over queued low-priority samples.  The request's own chunk, though,
        # packs up to ladder_max samples from the *whole* ordered queue: a
        # queue-jumping request still executes at the rung its riders fill.
        ahead_samples = 0
        if loop._pending:
            order_key = loop.admission.order_key
            key = order_key(request)
            for pending in loop._pending:
                if order_key(pending) <= key:
                    ahead_samples += pending.num_samples
        total_samples = loop._pending_samples + request.num_samples
        chunks_ahead = ahead_samples // ladder_max
        own_chunk = max(
            request.num_samples,
            min(ladder_max, total_samples - chunks_ahead * ladder_max),
        )
        # Per worker: one memoised (model, device, samples) lookup per price.
        # With no full chunk ahead the ahead term is 0 * price / n == 0.0, so
        # its price is skipped without changing a bit of the sum.
        model = loop.model
        price = selector.predicted_latency
        workers = loop.pool.workers
        num_workers = len(workers)
        best = float("inf")
        for worker in workers:
            own_ms = price(model, own_chunk, worker.device)
            ahead_ms = (
                chunks_ahead * price(model, ladder_max, worker.device) / num_workers
                if chunks_ahead
                else 0.0
            )
            start_ms = max(worker.busy_until_ms, ready_ms)
            best = min(best, start_ms + ahead_ms + own_ms)
        return best


class ServingLoop:
    """Drive requests through batcher → admission → router → pool, in time order.

    Parameters
    ----------
    model:
        The model every request targets (the service validates this).
    policy:
        Max-batch/max-wait batching policy.
    pool, router, selector, registry:
        The service's collaborators; the loop is their conductor, not their
        owner — it never builds its own.
    admission:
        Gate consulted on every arrival; defaults to :class:`AdmitAll`.
    autoscaler:
        Optional elastic sizing; when present, scale checks join the heap.
    tracer:
        Optional :class:`~repro.obs.Tracer`.  When truthy, the loop records
        every request's lifecycle (arrival → queued → dispatch-wait →
        execute → completion) as async spans on ``serving/requests``, batch
        closes / rejections / scale events as instants, queue-depth counter
        samples, and each dispatch — with its stage and kernel child events —
        on per-worker tracks.  All timestamps are virtual-clock, so a traced
        run is exactly reproducible.  The default
        :data:`~repro.obs.trace.NULL_TRACER` records nothing, and tracing
        never changes a report.
    metrics:
        The run's :class:`~repro.obs.MetricsRegistry`; defaults to a fresh
        one.  :meth:`run` clears it at the start of every run, so one loop
        reused across runs reports each run separately.  Pass a
        :class:`~repro.obs.TimeSeriesRegistry` and every ``serve.*`` family
        additionally buckets into virtual-time windows — the loop advances
        the registry's clock as the event heap drains, so windows close in
        event order.
    alerts:
        Optional :class:`~repro.obs.AlertManager` (or a rule list) evaluated
        on every window close; requires a windowed ``metrics`` registry.
        Transitions land in the result, the metrics
        (``serve.alerts.events``), the trace (``alert`` instants), and —
        for firing events — the autoscaler's ``on_alert`` hook.
    watch:
        Optional :class:`~repro.obs.WatchRenderer` printing one in-run
        dashboard line per closed window; requires a windowed ``metrics``
        registry.
    """

    def __init__(
        self,
        model: str,
        policy: BatchPolicy,
        pool: "WorkerPool",
        router: "Router",
        selector: "BatchSizeSelector",
        registry: "ScheduleRegistry",
        admission: AdmissionPolicy | None = None,
        autoscaler: "Autoscaler | None" = None,
        tracer: Tracer | None = None,
        metrics: MetricsRegistry | None = None,
        alerts: "AlertManager | Sequence[AlertRule] | None" = None,
        watch: WatchRenderer | None = None,
    ):
        self.model = model
        self.policy = policy
        self.pool = pool
        self.router = router
        self.selector = selector
        self.registry = registry
        self.admission = admission or AdmitAll()
        self.autoscaler = autoscaler
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        if alerts is not None and not isinstance(alerts, AlertManager):
            alerts = AlertManager(alerts)
        self.alerts = alerts
        self.watch = watch
        self._timeseries = (
            self.metrics if isinstance(self.metrics, TimeSeriesRegistry) else None
        )
        if (alerts is not None or watch is not None) and self._timeseries is None:
            raise ValueError(
                "alerts/watch evaluate on window close; pass a "
                "TimeSeriesRegistry as the loop's metrics"
            )
        self.state = LoopState(self)
        # Mutable run state (reset per run).
        self._now_ms = 0.0
        self._pending: list[InferenceRequest] = []
        self._pending_samples = 0
        self._batch_deadline_ms = 0.0
        self._batch_id = 0
        self._arrival_drains = -1
        self._inflight = 0
        self._queue = EventQueue()
        self._rank = 1
        self._handlers = (self._on_completion, self._on_timeout, self._on_scale_check)
        self._result = LoopResult()
        self._scale_armed = True
        # Per-run constants, resolved in begin(): whether the tracer records,
        # and the admission policy's queue callback (or None).
        self._tracing = False
        self._queue_observer: Callable[[int | None], None] | None = None
        self._bind_series()
        #: Optional hook fired after each completion event with the chunk's
        #: finished records (a cluster driver schedules stage handoffs from
        #: it); ``None`` by default.
        self.completion_listener: Callable[[Sequence[RequestRecord]], None] | None = (
            None
        )
        #: Optional hook fired at each dispatch with the chunk's records, in
        #: dispatch order (a cluster driver builds end-to-end records from
        #: it); ``None`` by default.
        self.dispatch_listener: Callable[[Sequence[RequestRecord]], None] | None = None

    # ----------------------------------------------------------------- driving
    def run(self, requests: Sequence[InferenceRequest]) -> LoopResult:
        """Replay ``requests`` (sorted by arrival) and return what happened."""
        queue = EventQueue()
        self.begin(queue)
        queue.arrivals_left = len(requests)
        for request in requests:
            queue.run(request.arrival_ms)
            queue.arrivals_left -= 1
            self.arrive(request.arrival_ms, request)
        queue.run()
        return self.finish()

    def begin(self, queue: EventQueue, index: int = 0, keep_records: bool = True) -> None:
        """Start a run whose events go on ``queue`` as loop ``index``.

        :meth:`run` gives the loop a queue of its own; a cluster run shares
        one queue among its hosts' loops and drains it, then calls
        :meth:`finish` on each.  ``keep_records=False`` folds every record
        into the run's report without keeping it (a cluster host serving
        stage requests).
        """
        self._reset(keep_records)
        self._queue = queue
        self._rank = 1 + len(self._handlers) * index
        self._scale_armed = self.autoscaler is None
        self._tracing = bool(self.tracer)
        self._queue_observer = getattr(self.admission, "observe_queue", None)

    def _arrivals_due(self) -> bool:
        """Whether more arrivals are due, as this loop last saw them.

        While they are, a batch closing on its deadline reads "timeout"
        rather than "drain", and scale checks keep re-arming.  The answer
        turns true at each arrival at this loop and false on every loop of
        the queue as soon as any loop handles an event while the queue counts
        no arrival due; only this loop's next arrival turns it true again.  In
        a standalone run that is "requests still to come".  In a cluster the
        queue counts pending routes and deliveries, and a later stage handoff
        turns it true again only on the host it lands on.
        """
        return self._arrival_drains == self._queue.drained

    def finish(self) -> LoopResult:
        """Assemble the result once the run's queue is drained.

        The execution count and batch-size mix the report prints come from
        the ``serve.executions`` counter — the registry is the bookkeeping,
        not a copy of it — and the pool's busy/lifetime utilisation series
        lands in the registry alongside (the single series both report
        summaries read).  Registry-of-schedules counters are exported too so
        the metrics dump carries the compile-cache hit rate.  The loop keeps
        no hold on the result: its fold lives as long as the caller wants it.
        """
        # The last (partial) window never sees a later event; close it
        # explicitly so trailing activity still reaches alerts and --watch.
        if self._timeseries is not None:
            self._close_window(self._timeseries.flush())
        result, self._result = self._result, LoopResult(metrics=self.metrics)
        executions = self.metrics.counter(
            "serve.executions", "device executions per specialised batch size"
        )
        result.num_executions = int(executions.total())
        result.batch_size_counts = {
            int(size): int(count)
            for size, count in executions.by_label("batch_size").items()
        }
        self.pool.export_utilization(self.metrics)
        lookups = self.metrics.gauge(
            "serve.registry.lookups", "schedule-registry counters (cumulative)"
        )
        for name, value in self.registry.stats.as_dict().items():
            lookups.set(value, kind=name)
        return result

    def _advance_clock(self, time_ms: float) -> None:
        self._now_ms = time_ms
        # Windows close *before* the event at time_ms processes — that
        # event's observations belong to the window containing time_ms.
        if self._timeseries is not None:
            for window in self._timeseries.advance(time_ms):
                self._close_window(window)

    def _reset(self, keep_records: bool) -> None:
        # Collaborators first: the pool-size gauge below reads the pool, so
        # every run starts from the configured idle pool, however it is driven.
        self.pool.reset()
        self.router.reset()
        if self.autoscaler is not None:
            self.autoscaler.reset()
        self.admission.reset()
        if self.alerts is not None:
            self.alerts.reset()
        self._now_ms = 0.0
        self._pending = []
        self._pending_samples = 0
        self._batch_deadline_ms = 0.0
        self._batch_id = 0
        self._arrival_drains = -1
        self._inflight = 0
        self.metrics.clear()
        self._result = LoopResult(fold=ReportFold(keep_records), metrics=self.metrics)
        self._bind_series()
        self.metrics.gauge(
            "serve.pool.size", "active workers in the pool"
        ).set(len(self.pool.workers))

    def _bind_series(self) -> None:
        """Bind the per-event series of a fresh run (after ``metrics.clear()``).

        Each family still resolves on first use, at the event whose keyword
        call created it before, so the run's registry holds the same families
        and series.  A lookup yields the series' record callable
        (``self._rejected[reason](1.0)``); unlabelled series are keyed ``None``.
        The latency and queue-delay series read the run's fold, which stores
        each record's two floats once; their lookup yields the window
        observer, or ``None`` without windows.
        """
        metrics = self.metrics
        fold = self._result.fold
        counter, gauge, histogram = metrics.counter, metrics.gauge, metrics.histogram
        self._offered = LazySeries(
            counter, "serve.requests.offered", "requests submitted to the service"
        )
        self._admitted = LazySeries(
            counter, "serve.admission.admitted", "arrivals allowed to queue"
        )
        self._rejected = LazySeries(
            counter, "serve.admission.rejected", "arrivals shed, by policy reason", "reason"
        )
        self._slo_met = LazySeries(counter, "serve.slo.met", "requests that met their SLO")
        self._slo_missed = LazySeries(
            counter, "serve.slo.missed", "requests that missed their SLO, by outcome", "outcome"
        )
        self._queue_depth = LazySeries(gauge, "serve.queue.depth", "requests in the forming batch")
        self._queue_samples = LazySeries(
            gauge, "serve.queue.samples", "samples in the forming batch"
        )
        self._batch_closes = LazySeries(
            counter, "serve.batch.closes", "formed batches, by close reason", "reason"
        )
        self._batch_occupancy = LazySeries(
            histogram, "serve.batch.occupancy", "samples per formed batch"
        )
        self._executions = LazySeries(
            counter,
            "serve.executions",
            "device executions per specialised batch size",
            "batch_size",
        )
        self._latency = LazySeries(
            histogram, "serve.latency_ms", "end-to-end request latency", "device",
            source=fold.latencies_on,
        )
        self._queue_delay = LazySeries(
            histogram, "serve.queue_delay_ms", "arrival-to-dispatch request delay", "device",
            source=fold.queue_delays_on,
        )

    def _push(self, time_ms: float, kind: int, payload) -> None:
        self._queue.push(time_ms, self._handlers[kind], payload, self._rank + kind)

    # ----------------------------------------------------------------- windows
    def _close_window(self, window: WindowSpan) -> None:
        """One closed time window: evaluate alerts, render the watch line."""
        firing: list[str] = []
        if self.alerts is not None:
            transitions = self.alerts.evaluate(self._timeseries, window)
            if transitions:
                self._record_alert_events(transitions)
            firing = self.alerts.firing()
        if self.watch is not None:
            self.watch.emit(self._timeseries, window, firing)

    def _record_alert_events(self, events: Sequence[AlertEvent]) -> None:
        """Land alert transitions in the result, metrics, trace and scaler."""
        counter = self.metrics.counter(
            "serve.alerts.events", "alert transitions, by rule and state"
        )
        for event in events:
            self._result.alerts.append(event)
            counter.inc(rule=event.rule, state=event.state)
            if self._tracing:
                self.tracer.instant(
                    f"alert {event.rule}", "serving/alerts", event.time_ms,
                    category="alert",
                    args={
                        "state": event.state,
                        "value": round(event.value, 6),
                        "threshold": event.threshold,
                        "severity": event.severity,
                        "message": event.message,
                    },
                )
            if event.state == "firing" and self.autoscaler is not None:
                self._record_scale_events(
                    self.autoscaler.on_alert(self.state, event)
                )

    # ------------------------------------------------------------------ events
    def arrive(self, time_ms: float, request: InferenceRequest) -> None:
        """Process ``request`` arriving at ``time_ms`` (its ``arrival_ms``).

        Callers hand requests in ``(arrival_ms, request_id)`` order, once every
        queued event strictly earlier is handled, so an arrival wins its tie
        against same-time completions, timeouts and scale checks.
        """
        self._arrival_drains = self._queue.drained
        if not self._scale_armed:
            self._scale_armed = True
            self._push(time_ms + self.autoscaler.config.interval_ms, _SCALE, None)
        self._advance_clock(time_ms)
        tracer = self.tracer
        tracing = self._tracing
        self._offered[None](1.0)
        if tracing:
            tracer.async_begin(
                f"request {request.request_id}", "serving/requests",
                request.request_id, self._now_ms, category="request",
                args={
                    "model": request.model,
                    "samples": request.num_samples,
                    "priority": request.priority,
                    "deadline_ms": request.deadline_ms,
                },
            )
        decision = self.admission.admit(request, self.state)
        if not decision.admitted:
            reason = decision.reason or "rejected"
            self._rejected[reason](1.0)
            # A shed request is a spent error budget too: the burn-rate
            # alert must see rejections, not just deadline overruns.
            self._slo_missed["rejected"](1.0)
            if tracing:
                tracer.instant(
                    "reject", "serving/admission", self._now_ms,
                    category="admission",
                    args={"request": request.request_id, "reason": reason},
                )
                tracer.async_end(
                    f"request {request.request_id}", "serving/requests",
                    request.request_id, self._now_ms, category="request",
                    args={"outcome": "rejected", "reason": reason},
                )
            self._result.fold.reject(
                RejectedRequest(
                    request=request,
                    rejected_ms=self._now_ms,
                    reason=reason,
                )
            )
            return
        self._admitted[None](1.0)
        policy = self.policy
        # A priority-preemptive policy expedites this arrival: the batch
        # closes *with the request inside* the moment it joins — whatever
        # queued rides along, and an empty queue means it dispatches alone —
        # instead of waiting out the max-wait window.
        preempt = self.admission.preempts(request, self.state)
        if (
            self._pending
            and self._pending_samples + request.num_samples > policy.max_batch_size
        ):
            self._close_batch(self._now_ms, "full")
        if not self._pending:
            self._batch_deadline_ms = policy.close_deadline_ms(self._now_ms)
            self._push(self._batch_deadline_ms, _TIMEOUT, self._batch_id)
        self._pending.append(request)
        self._pending_samples += request.num_samples
        if self._queue_observer is not None:
            self._observe_queue()
        self._sample_queue()
        if self._pending_samples >= policy.max_batch_size:
            self._close_batch(self._now_ms, "full")
        elif preempt:
            self._close_batch(self._now_ms, "priority")

    def _on_completion(self, time_ms: float, records: Sequence[RequestRecord]) -> None:
        self._advance_clock(time_ms)
        self._inflight -= 1
        # SLO outcomes count at *completion* time, so the attainment series
        # lands in the window the client actually observed the result in.
        met = self._slo_met[None]
        missed = self._slo_missed["deadline"]
        for record in records:
            if record.deadline_met:
                met(1.0)
            else:
                missed(1.0)
        if self.autoscaler is not None:
            self._record_scale_events(self.autoscaler.evaluate(self.state))
        if self.completion_listener is not None:
            self.completion_listener(records)

    def _on_timeout(self, time_ms: float, batch_id: int) -> None:
        self._advance_clock(time_ms)
        if batch_id != self._batch_id or not self._pending:
            return  # the batch already closed (full/priority); stale deadline
        reason = "timeout" if self._arrivals_due() else "drain"
        self._close_batch(self._now_ms, reason)

    def _on_scale_check(self, time_ms: float, _payload: None) -> None:
        self._advance_clock(time_ms)
        assert self.autoscaler is not None
        self._record_scale_events(self.autoscaler.evaluate(self.state))
        if self._arrivals_due() or self._pending or self._inflight:
            self._push(self._now_ms + self.autoscaler.config.interval_ms, _SCALE, None)
        else:
            # The chain stops; a later arrival (a stage handoff in a
            # partitioned cluster) re-arms it.
            self._scale_armed = False

    def _record_scale_events(self, events) -> None:
        """Append autoscaler resizes, counting and tracing each one."""
        if not events:
            return
        self._result.scale_events.extend(events)
        counter = self.metrics.counter(
            "serve.autoscale.events", "autoscaler resizes, by direction"
        )
        pool_size = self.metrics.gauge("serve.pool.size", "active workers in the pool")
        for event in events:
            counter.inc(action=event.action)
            pool_size.set(event.num_workers)
            if self._tracing:
                self.tracer.instant(
                    f"scale-{event.action}", "serving/autoscale", event.time_ms,
                    category="autoscale",
                    args={
                        "reason": event.reason,
                        "worker": event.worker_id,
                        "device": event.device,
                        "pool": event.num_workers,
                    },
                )

    # ---------------------------------------------------------------- batching
    def _observe_queue(self) -> None:
        """Tell a priority-aware policy the highest priority the forming batch holds."""
        self._queue_observer(
            max((request.priority for request in self._pending), default=None)
        )

    def _sample_queue(self) -> None:
        """Sample the forming batch's depth into the gauge and the trace."""
        self._queue_depth[None](len(self._pending))
        self._queue_samples[None](self._pending_samples)
        if self._tracing:
            self.tracer.counter(
                "queue depth", "serving/loop", self._now_ms,
                {"requests": len(self._pending), "samples": self._pending_samples},
            )

    def _close_batch(self, formed_ms: float, reason: str) -> None:
        ordered = sorted(self._pending, key=self.admission.order_key)
        batch = FormedBatch(requests=ordered, formed_ms=formed_ms, close_reason=reason)
        self._pending = []
        self._pending_samples = 0
        self._batch_id += 1
        if self._queue_observer is not None:
            self._observe_queue()
        self._sample_queue()
        self._batch_closes[reason](1.0)
        self._batch_occupancy[None](batch.num_samples)
        if self._tracing:
            self.tracer.instant(
                "batch-close", "serving/loop", formed_ms, category="batch",
                args={
                    "reason": reason,
                    "requests": len(batch),
                    "samples": batch.num_samples,
                },
            )
        for chunk in self._chunk(batch):
            self._execute_chunk(batch, chunk)

    def _chunk(self, batch: FormedBatch) -> list[list[InferenceRequest]]:
        """Split a formed batch so each chunk fits the ladder maximum.

        The batcher may form a batch larger than the biggest specialised
        schedule (a single oversized request, or a policy whose
        ``max_batch_size`` exceeds the ladder).  Requests are packed in
        dispatch order; a request never spans two executions.
        """
        limit = self.selector.max_batch_size
        chunks: list[list[InferenceRequest]] = []
        current: list[InferenceRequest] = []
        current_samples = 0
        for request in batch.requests:
            if current and current_samples + request.num_samples > limit:
                chunks.append(current)
                current, current_samples = [], 0
            current.append(request)
            current_samples += request.num_samples
        if current:
            chunks.append(current)
        return chunks

    # ---------------------------------------------------------------- dispatch
    def _estimate_for(self, num_samples: int):
        """Lazy per-worker latency estimate the router ranks candidates with.

        Resolves to the predicted execution latency of an ``num_samples``
        batch on the worker's device.  Estimating a device type with no
        registry entry yet triggers its cold compile — the same fan-out a
        dispatch would cause, just moved to routing time.
        """
        def estimate(worker: "Worker") -> float:
            return self.selector.predicted_latency(
                self.model, num_samples, worker.device
            )

        return estimate

    def _execute_chunk(self, batch: FormedBatch, chunk: list[InferenceRequest]) -> None:
        num_samples = sum(request.num_samples for request in chunk)
        worker = self.router.pick(
            self.pool.workers, batch.formed_ms, self._estimate_for(num_samples)
        )
        rung = self.selector.select(self.model, num_samples, worker.device)
        compiled = self.registry.get_compiled(self.model, rung, worker.device)
        dispatch = self.pool.dispatch(
            compiled, worker, ready_ms=batch.formed_ms, num_samples=num_samples
        )
        self._executions[rung](1.0)
        # The histogram series read the fold's; only window sketches observe.
        latency = self._latency[dispatch.device]
        queue_delay = self._queue_delay[dispatch.device]
        add = self._result.fold.add
        chunk_records: list[RequestRecord] = []
        for request in chunk:
            record = RequestRecord(
                request=request,
                batched_ms=batch.formed_ms,
                dispatch_ms=dispatch.start_ms,
                completion_ms=dispatch.end_ms,
                executed_batch_size=rung,
                worker_id=dispatch.worker_id,
                device=dispatch.device,
            )
            add(record)
            chunk_records.append(record)
        if latency is not None:
            for record in chunk_records:
                latency(record.latency_ms)
                queue_delay(record.queue_delay_ms)
        if self.dispatch_listener is not None:
            self.dispatch_listener(chunk_records)
        self._inflight += 1
        self._push(dispatch.end_ms, _COMPLETION, chunk_records)
        if self._tracing:
            self._trace_dispatch(batch, chunk, rung, compiled, dispatch)

    def _trace_dispatch(self, batch, chunk, rung, compiled, dispatch) -> None:
        """Record one dispatch: request phases, the batch span, kernel children.

        Every timestamp is virtual-clock, so the spans are exactly as
        reproducible as the loop itself.  Request lifecycles are async spans
        correlated by request id — queued (arrival → batch close),
        dispatch-wait (close → worker start) and execute (start → end) nest
        inside the ``request N`` span opened at arrival.  The batch itself
        lands on the executing worker's ``batches`` row, with the compiled
        model's cached execution (:meth:`~repro.engine.CompiledModel.execute`)
        replayed underneath as stage/kernel events at the dispatch's start
        time.
        """
        tracer = self.tracer
        for request in chunk:
            correlation = request.request_id
            name = f"request {correlation}"
            tracer.async_begin(
                "queued", "serving/requests", correlation,
                request.arrival_ms, category="request",
            )
            tracer.async_end(
                "queued", "serving/requests", correlation,
                batch.formed_ms, category="request",
            )
            if dispatch.start_ms > batch.formed_ms:
                tracer.async_begin(
                    "dispatch-wait", "serving/requests", correlation,
                    batch.formed_ms, category="request",
                )
                tracer.async_end(
                    "dispatch-wait", "serving/requests", correlation,
                    dispatch.start_ms, category="request",
                )
            tracer.async_begin(
                "execute", "serving/requests", correlation,
                dispatch.start_ms, category="request",
                args={"worker": dispatch.worker_id, "device": dispatch.device,
                      "batch_size": rung},
            )
            tracer.async_end(
                "execute", "serving/requests", correlation,
                dispatch.end_ms, category="request",
            )
            tracer.async_end(
                name, "serving/requests", correlation,
                dispatch.end_ms, category="request",
                args={"outcome": "completed"},
            )
        track = f"worker {dispatch.worker_id} ({dispatch.device})"
        tracer.add_span(
            f"batch bs{rung}", f"{track}/batches",
            dispatch.start_ms, dispatch.end_ms, category="batch",
            args={
                "requests": len(chunk),
                "samples": sum(request.num_samples for request in chunk),
                "batch_size": rung,
                "close_reason": batch.close_reason,
                "wait_for_worker_ms": dispatch.wait_for_worker_ms,
            },
        )
        add_execution_spans(tracer, compiled.execute(), track, dispatch.start_ms)
