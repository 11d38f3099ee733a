"""The cluster co-simulation: N host loops advancing on one virtual clock.

:class:`ClusterLoop` puts every event of a run on one
:class:`~repro.serve.loop.EventQueue`: its own actions — routing an external
arrival, delivering a request to a host — and the completions, timeouts and
scale checks of every :class:`~repro.cluster.host.Host`'s loop.  One
pop-and-dispatch loop then handles them in global time order:

* at equal times a **cluster action** goes first, in push order, exactly as
  arrivals beat same-time completions inside
  :meth:`~repro.serve.loop.ServingLoop.run`;
* then the host events, host by host in id order; a completed stage may
  push a new cluster action — its tensor's send/recv to the next stage's
  host, costed by the :class:`~repro.cluster.link.LinkModel`.

Driven this way with one host, the default link and no partition, the
routed arrivals reproduce :meth:`ServingLoop.run`'s event sequence
*exactly* — a ``--cluster 1`` run is byte-identical to the single-host loop,
which is the regression anchor the cluster layer is tested against.

Records are judged **end to end**, against the original requests (latency
measured from true arrival, not stage arrival), so cluster-wide SLO
attainment is judged on what the client saw.  When hosts see other requests
than the clients sent — pipeline stages, or arrivals re-timed by a modeled
ingress link — each request is tracked as a :class:`_Journey` from external
arrival until the host that finishes it dispatches its last stage: that host
builds the end-to-end record there, in dispatch order, and the journey is
dropped.  No host keeps stage records: every host folds them into its
report's summaries as they are made.  Only hosts whose arrivals are their
clients' own requests keep their records, which are then the end-to-end
ones.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

from ..obs.metrics import LazySeries, MetricsRegistry
from ..obs.trace import NULL_TRACER, Tracer
from ..serve.loop import EventQueue, LoopResult
from ..serve.request import InferenceRequest, RejectedRequest, RequestRecord

if TYPE_CHECKING:  # pragma: no cover - types only
    from .host import Host
    from .link import LinkModel
    from .partition import PartitionPlan
    from .router import ClusterRouter

__all__ = ["ClusterLoop", "ClusterOutcome", "TransferStats"]


@dataclass
class TransferStats:
    """Modeled inter-host transfers of one cluster run."""

    count: int = 0
    total_bytes: float = 0.0
    total_ms: float = 0.0


@dataclass
class ClusterOutcome:
    """Everything one cluster run produced, ready for report building."""

    #: End-to-end records against the *original* requests, host-major order.
    records: list[RequestRecord] = field(default_factory=list)
    #: Rejections mapped back to the original requests.
    rejected: list[RejectedRequest] = field(default_factory=list)
    #: End-to-end records attributed to the host that *finished* each request
    #: (its final stage's host), in dispatch order, for per-host SLO rows.
    records_by_host: dict[int, list[RequestRecord]] = field(default_factory=dict)
    #: Rejections attributed to the rejecting host.
    rejected_by_host: dict[int, list[RejectedRequest]] = field(default_factory=dict)
    #: Per-host loop results, in host order.
    host_results: list[LoopResult] = field(default_factory=list)
    #: External arrivals routed to each host id.
    routed: dict[int, int] = field(default_factory=dict)
    transfers: TransferStats = field(default_factory=TransferStats)
    #: Cluster-level counters (routing, transfers), separate from the hosts'.
    metrics: MetricsRegistry = field(default_factory=MetricsRegistry)


class _Journey:
    """One request's path through the cluster: its stage, and stage 0's times.

    The end-to-end record starts where the client's request was batched and
    dispatched at stage 0; everything else comes from the final stage's
    dispatch, where the journey ends.
    """

    __slots__ = ("request", "stage", "batched_ms", "dispatch_ms")

    def __init__(self, request: InferenceRequest):
        self.request = request
        self.stage = 0
        self.batched_ms = 0.0
        self.dispatch_ms = 0.0


def _arriving(
    request: InferenceRequest, arrival_ms: float, model: str | None = None
) -> InferenceRequest:
    """``request`` arriving at ``arrival_ms`` (as ``model``, if given).

    The deadline stays absolute: the residual budget is what is left of it
    at the new arrival, never below zero.
    """
    deadline_ms = request.deadline_ms
    if deadline_ms is not None:
        deadline_ms = max(0.0, request.absolute_deadline_ms - arrival_ms)
    return InferenceRequest(
        request_id=request.request_id,
        model=request.model if model is None else model,
        arrival_ms=arrival_ms,
        num_samples=request.num_samples,
        deadline_ms=deadline_ms,
        priority=request.priority,
        burst_id=request.burst_id,
    )


class ClusterLoop:
    """Drive requests across hosts: route → deliver → serve → hand off.

    Parameters
    ----------
    hosts:
        The cluster's hosts, in host-id order.
    router:
        The :class:`~repro.cluster.router.ClusterRouter` placing external
        arrivals on eligible hosts.
    link:
        Transfer-cost model for ingress deliveries and stage handoffs.
    plan:
        Optional :class:`~repro.cluster.partition.PartitionPlan`; when set,
        external arrivals enter the stage-0 host and every stage completion
        hands its boundary tensor to the next stage's host over the link.
    eligible_ids:
        Host ids external arrivals may be routed to (placement already
        filtered: stage-0 host under partitioning, memory-fitting hosts
        otherwise).  Defaults to every host.
    input_bytes_per_sample:
        Bytes of one input sample, for ingress-delivery costing.
    tracer:
        The *shared, unprefixed* tracer; the loop writes cluster-level
        send/recv transfer spans on ``hostN link/...`` tracks (hosts write
        their own rows through their prefixed views).
    """

    def __init__(
        self,
        hosts: Sequence["Host"],
        router: "ClusterRouter",
        link: "LinkModel",
        plan: "PartitionPlan | None" = None,
        eligible_ids: Sequence[int] | None = None,
        input_bytes_per_sample: int = 0,
        tracer: Tracer | None = None,
    ):
        self.hosts = list(hosts)
        self.router = router
        self.link = link
        self.plan = plan
        self.eligible = [
            self.hosts[i]
            for i in (
                eligible_ids
                if eligible_ids is not None
                else range(len(self.hosts))
            )
        ]
        if not self.eligible:
            raise ValueError("no host is eligible to serve external arrivals")
        self.input_bytes_per_sample = input_bytes_per_sample
        self.tracer = tracer if tracer is not None else NULL_TRACER
        # Mutable run state.
        self._queue = EventQueue()
        self._journeys: dict[int, _Journey] = {}
        self._outcome = ClusterOutcome()
        self._tracing = False
        self._keep_records = True
        #: The plan's stages when it pipelines (two or more), else ``None``.
        self._stages: "list | None" = None
        #: ``"src->dst"`` link labels by (source host or None, destination).
        self._links: dict[tuple, str] = {}
        self._bind_series()

    # ----------------------------------------------------------------- driving
    def run(self, requests: Sequence[InferenceRequest]) -> ClusterOutcome:
        """Replay ``requests`` across the cluster and return what happened."""
        ordered = sorted(requests, key=lambda r: (r.arrival_ms, r.request_id))
        ids = {request.request_id for request in ordered}
        if len(ids) != len(ordered):
            raise ValueError(
                "cluster runs track requests by id; request_ids must be unique"
            )
        queue = self._queue = EventQueue()
        self._journeys = {}
        self._outcome = ClusterOutcome(
            records_by_host={host.host_id: [] for host in self.hosts}
        )
        self._bind_series()
        self._tracing = bool(self.tracer)
        self.router.reset()
        plan = self.plan if self.plan is not None and self.plan.num_stages > 1 else None
        self._stages = plan.stages if plan is not None else None
        # Only a host whose arrivals are its clients' own requests makes end-
        # to-end records; it keeps them, and no journey is tracked.  Otherwise
        # every host folds its stage records, and the hosts that finish
        # requests build the end-to-end records at dispatch.
        self._keep_records = plan is None and not self.link.models_ingress
        for host in self.hosts:
            host.reset()
            if plan is not None and host.host_id != plan.stages[-1].host:
                host.loop.completion_listener = self._handoff_for(host)
            elif not self._keep_records:
                host.loop.dispatch_listener = self._finisher_for(host)
            host.loop.begin(queue, host.host_id, keep_records=self._keep_records)
        if self.plan is not None and hasattr(self.router, "plan"):
            self.router.plan = self.plan
        for request in ordered:
            queue.push(request.arrival_ms, self._route, request)
        queue.run()
        for host in self.hosts:
            self._outcome.host_results.append(host.loop.finish())
            host.loop.completion_listener = host.loop.dispatch_listener = None
        self._assemble()
        return self._outcome

    def _bind_series(self) -> None:
        """Bind the per-event series of the run's fresh cluster registry.

        Families resolve on first use, at the event whose keyword call
        created them before.
        """
        metrics = self._outcome.metrics
        self._routed = LazySeries(
            metrics.counter, "cluster.requests.routed",
            "external arrivals routed, by host", "host",
        )
        self._transfers = LazySeries(
            metrics.counter, "cluster.transfers",
            "modeled inter-host transfers, by link", "link",
        )
        self._transfer_ms = LazySeries(
            metrics.histogram, "cluster.transfer.ms", "modeled transfer duration", "link"
        )
        self._transfer_bytes = LazySeries(
            metrics.histogram, "cluster.transfer.bytes", "modeled transfer payload",
            "link",
        )

    # ---------------------------------------------------------------- routing
    def _route(self, now_ms: float, request: InferenceRequest) -> None:
        host = self.router.pick(self.eligible, request, now_ms)
        self._outcome.routed[host.host_id] = (
            self._outcome.routed.get(host.host_id, 0) + 1
        )
        self._routed[host.name](1.0)
        if not self._keep_records:
            self._journeys[request.request_id] = _Journey(request)
        sub = request
        if self._stages is not None:
            sub = _arriving(request, now_ms, self._stages[0].model)
        num_bytes = self.input_bytes_per_sample * request.num_samples
        delivery_ms = host.ingress_delivery_ms(now_ms, num_bytes, self.link)
        if delivery_ms > now_ms:
            self._count_transfer(None, host, now_ms, delivery_ms, num_bytes)
            self._queue.push(
                delivery_ms, host.loop.arrive, _arriving(sub, delivery_ms)
            )
        else:
            host.loop.arrive(now_ms, sub)

    # --------------------------------------------------------------- handoffs
    def _finisher_for(self, host: "Host"):
        """The dispatch hook of a host that finishes journeys.

        Each dispatched record becomes its end-to-end record against the
        client's request, in dispatch order, and its journey ends.
        """
        journeys = self._journeys
        finished = self._outcome.records_by_host[host.host_id]

        def on_dispatch(records: Sequence[RequestRecord]) -> None:
            for record in records:
                journey = journeys.pop(record.request.request_id)
                if record.request is journey.request:  # an ingress without delay
                    finished.append(record)
                    continue
                first = journey if journey.stage else record
                finished.append(RequestRecord(
                    request=journey.request,
                    batched_ms=first.batched_ms,
                    dispatch_ms=first.dispatch_ms,
                    completion_ms=record.completion_ms,
                    executed_batch_size=record.executed_batch_size,
                    worker_id=record.worker_id,
                    device=record.device,
                ))

        return on_dispatch

    def _handoff_for(self, host: "Host"):
        def on_completion(records: Sequence[RequestRecord]) -> None:
            for record in records:
                self._on_stage_complete(host, record)

        return on_completion

    def _on_stage_complete(self, host: "Host", record: RequestRecord) -> None:
        """Hand a finished intermediate stage's tensor on to the next stage."""
        journey = self._journeys[record.request.request_id]
        if journey.stage == 0:
            journey.batched_ms = record.batched_ms
            journey.dispatch_ms = record.dispatch_ms
        next_stage = self._stages[journey.stage + 1]
        src, dst = self.hosts[host.host_id], self.hosts[next_stage.host]
        num_bytes = next_stage.recv_bytes * journey.request.num_samples
        sent_ms = record.completion_ms
        delivery_ms = sent_ms + self.link.transfer_ms(
            num_bytes, src.host_id, dst.host_id
        )
        journey.stage += 1
        self._count_transfer(src, dst, sent_ms, delivery_ms, num_bytes)
        sub = _arriving(journey.request, delivery_ms, next_stage.model)
        self._queue.push(delivery_ms, dst.loop.arrive, sub)

    def _count_transfer(
        self,
        src: "Host | None",
        dst: "Host",
        sent_ms: float,
        delivery_ms: float,
        num_bytes: float,
    ) -> None:
        """Account one modeled transfer (stage handoff or ingress delivery)."""
        stats = self._outcome.transfers
        stats.count += 1
        stats.total_bytes += num_bytes
        stats.total_ms += delivery_ms - sent_ms
        pair = self._links.get((src, dst))
        if pair is None:
            pair = self._links[src, dst] = (
                f"{src.name if src is not None else 'client'}->{dst.name}"
            )
        self._transfers[pair](1.0)
        self._transfer_ms[pair](delivery_ms - sent_ms)
        self._transfer_bytes[pair](num_bytes)
        if self._tracing:
            args = {
                "bytes": num_bytes,
                "from": src.name if src is not None else "client",
                "to": dst.name,
            }
            if src is not None:
                self.tracer.add_span(
                    f"send {num_bytes:g}B", f"{src.name} link/send",
                    sent_ms, delivery_ms, category="transfer", args=args,
                )
            self.tracer.add_span(
                f"recv {num_bytes:g}B", f"{dst.name} link/recv",
                sent_ms, delivery_ms, category="transfer", args=args,
            )

    # --------------------------------------------------------------- assembly
    def _assemble(self) -> None:
        """Gather the end-to-end records and map rejections back to the clients.

        Host-major, dispatch-order iteration keeps the record list — and
        every floating-point fold downstream — deterministic, and for a
        1-host no-ingress cluster makes it *the host's own record list*, so
        the pass-through report stays byte-identical to the plain loop's.
        A host keeps records only when they are end to end; the finishing
        hosts of journeys built theirs at dispatch.
        """
        outcome = self._outcome
        for host, result in zip(self.hosts, outcome.host_results):
            host_records = outcome.records_by_host[host.host_id]
            host_records.extend(result.records)
            outcome.records.extend(host_records)
            host_rejected = outcome.rejected_by_host.setdefault(host.host_id, [])
            for rejection in result.rejected:
                journey = self._journeys.get(rejection.request.request_id)
                if journey is None or rejection.request is journey.request:
                    mapped = rejection
                else:
                    mapped = RejectedRequest(
                        request=journey.request,
                        rejected_ms=rejection.rejected_ms,
                        reason=rejection.reason,
                    )
                outcome.rejected.append(mapped)
                host_rejected.append(mapped)
