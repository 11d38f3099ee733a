"""The cluster co-simulation: N host loops advancing on one virtual clock.

:class:`ClusterLoop` interleaves the discrete-event loops of its
:class:`~repro.cluster.host.Host`\\ s with a cluster-level event heap of its
own — request routing/delivery and partitioned stage handoffs — so every
event in the whole cluster processes in global time order:

* the earliest **cluster event** (an arrival to route, a delivery landing on
  a host) wins ties against host-internal events, exactly as arrivals beat
  same-time completions inside :meth:`~repro.serve.loop.ServingLoop.run`;
* otherwise the host with the earliest internal event steps once (ties break
  by host id), which may in turn schedule new cluster events — a completed
  stage schedules its tensor's send/recv to the next stage's host, costed by
  the :class:`~repro.cluster.link.LinkModel`.

Driven this way with one host, the default link and no partition, the
injected arrivals reproduce :meth:`ServingLoop.run`'s event sequence
*exactly* — a ``--cluster 1`` run is byte-identical to the single-host loop,
which is the regression anchor the cluster layer is tested against.

Every request is tracked as a :class:`_Journey` from external arrival to its
final stage's completion; the loop rebuilds **end-to-end** records against
the original requests (latency measured from true arrival, not stage
arrival), so cluster-wide SLO attainment is judged on what the client saw.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Sequence

from ..obs.metrics import LazySeries, MetricsRegistry
from ..obs.trace import NULL_TRACER, Tracer
from ..serve.loop import LoopResult
from ..serve.request import InferenceRequest, RejectedRequest, RequestRecord

if TYPE_CHECKING:  # pragma: no cover - types only
    from .host import Host
    from .link import LinkModel
    from .partition import PartitionPlan
    from .router import ClusterRouter

__all__ = ["ClusterLoop", "ClusterOutcome", "TransferStats"]

#: Cluster event kinds, in tie-break order at equal virtual time: external
#: arrivals route first, then deliveries (ingress/handoff) land.
_ROUTE, _DELIVER = 0, 1


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
    #: (its final stage's host), for per-host SLO rows.
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
    """One request's path through the cluster: stages, records, outcome."""

    __slots__ = ("request", "stage", "first_record", "final_record")

    def __init__(self, request: InferenceRequest):
        self.request = request
        self.stage = 0
        self.first_record: RequestRecord | None = None
        self.final_record: RequestRecord | None = None


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
        self._events: list[tuple] = []
        self._seq = itertools.count()
        self._journeys: dict[int, _Journey] = {}
        self._outcome = ClusterOutcome()
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
        self._events = []
        self._seq = itertools.count()
        self._journeys = {}
        self._outcome = ClusterOutcome()
        self._bind_series()
        self.router.reset()
        for host in self.hosts:
            host.reset()
            host.loop.completion_listener = self._listener_for(host)
            host.loop.begin()
        if self.plan is not None and hasattr(self.router, "plan"):
            self.router.plan = self.plan
        for request in ordered:
            self._push(request.arrival_ms, _ROUTE, request)

        while True:
            next_host = None
            host_ms = float("inf")
            for host in self.hosts:
                event_ms = host.loop.next_event_ms
                if event_ms < host_ms:
                    host_ms, next_host = event_ms, host
            if self._events and self._events[0][0] <= host_ms:
                time_ms, _, action, payload = heapq.heappop(self._events)
                if action == _ROUTE:
                    self._route(time_ms, payload)
                else:
                    self._deliver(time_ms, *payload)
                continue
            if next_host is None:
                break
            if not self._events:
                # No known future arrival anywhere: let every host see an
                # empty horizon so trailing batch closes read "drain" and
                # autoscale checks stop re-arming (a later stage handoff
                # re-raises the count through inject).
                for host in self.hosts:
                    host.loop._arrivals_left = 0
            next_host.loop.step()

        for host in self.hosts:
            self._outcome.host_results.append(host.loop.finish())
            host.loop.completion_listener = None
        self._assemble()
        return self._outcome

    def _push(self, time_ms: float, action: int, payload) -> None:
        heapq.heappush(self._events, (time_ms, next(self._seq), action, payload))

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
        self._routed[host.name].inc()
        self._journeys[request.request_id] = _Journey(request)
        sub = request
        if self.plan is not None and self.plan.num_stages > 1:
            sub = self._stage_request(request, 0, now_ms)
        num_bytes = self.input_bytes_per_sample * request.num_samples
        delivery_ms = host.ingress_delivery_ms(now_ms, num_bytes, self.link)
        if delivery_ms > now_ms:
            self._count_transfer(None, host, now_ms, delivery_ms, num_bytes)
            sub = self._retime(sub, delivery_ms)
            self._push(delivery_ms, _DELIVER, (host.host_id, sub))
        else:
            host.loop.inject(sub, arrivals_left=len(self._events))

    def _deliver(self, now_ms: float, host_id: int, sub: InferenceRequest) -> None:
        self.hosts[host_id].loop.inject(sub, arrivals_left=len(self._events))

    def _stage_request(
        self, request: InferenceRequest, stage: int, arrival_ms: float
    ) -> InferenceRequest:
        """The subrequest stage ``stage`` serves: stage model, residual deadline."""
        assert self.plan is not None
        spec = self.plan.stages[stage]
        deadline_ms = request.deadline_ms
        if deadline_ms is not None:
            deadline_ms = max(0.0, request.absolute_deadline_ms - arrival_ms)
        return replace(
            request, model=spec.model, arrival_ms=arrival_ms, deadline_ms=deadline_ms
        )

    @staticmethod
    def _retime(request: InferenceRequest, arrival_ms: float) -> InferenceRequest:
        """The same request arriving later (ingress delay), deadline absolute."""
        deadline_ms = request.deadline_ms
        if deadline_ms is not None:
            deadline_ms = max(0.0, request.absolute_deadline_ms - arrival_ms)
        return replace(request, arrival_ms=arrival_ms, deadline_ms=deadline_ms)

    # --------------------------------------------------------------- handoffs
    def _listener_for(self, host: "Host"):
        def on_completion(records: Sequence[RequestRecord]) -> None:
            for record in records:
                self._on_stage_complete(host, record)

        return on_completion

    def _on_stage_complete(self, host: "Host", record: RequestRecord) -> None:
        journey = self._journeys.get(record.request.request_id)
        if journey is None:  # pragma: no cover - defensive
            return
        if journey.first_record is None:
            journey.first_record = record
        last_stage = 0 if self.plan is None else self.plan.num_stages - 1
        if journey.stage >= last_stage:
            journey.final_record = record
            return
        assert self.plan is not None
        next_stage = self.plan.stages[journey.stage + 1]
        src, dst = self.hosts[host.host_id], self.hosts[next_stage.host]
        num_bytes = next_stage.recv_bytes * journey.request.num_samples
        sent_ms = record.completion_ms
        delivery_ms = sent_ms + self.link.transfer_ms(
            num_bytes, src.host_id, dst.host_id
        )
        journey.stage += 1
        self._count_transfer(src, dst, sent_ms, delivery_ms, num_bytes)
        sub = self._stage_request(journey.request, journey.stage, delivery_ms)
        self._push(delivery_ms, _DELIVER, (dst.host_id, sub))

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
        pair = f"{src.name if src is not None else 'client'}->{dst.name}"
        self._transfers[pair].inc()
        self._transfer_ms[pair].observe(delivery_ms - sent_ms)
        self._transfer_bytes[pair].observe(num_bytes)
        if self.tracer:
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
        """Rebuild end-to-end records/rejections against the original requests.

        Host-major, dispatch-order iteration keeps the record list — and
        every floating-point fold downstream — deterministic, and for a
        1-host no-ingress cluster makes it *the host's own record list*, so
        the pass-through report stays byte-identical to the plain loop's.
        """
        outcome = self._outcome
        for host, result in zip(self.hosts, outcome.host_results):
            host_records = outcome.records_by_host.setdefault(host.host_id, [])
            host_rejected = outcome.rejected_by_host.setdefault(host.host_id, [])
            for record in result.records:
                journey = self._journeys.get(record.request.request_id)
                if journey is None or journey.final_record is not record:
                    continue
                if record.request is journey.request:
                    end_to_end = record
                else:
                    first = journey.first_record
                    assert first is not None
                    end_to_end = RequestRecord(
                        request=journey.request,
                        batched_ms=first.batched_ms,
                        dispatch_ms=first.dispatch_ms,
                        completion_ms=record.completion_ms,
                        executed_batch_size=record.executed_batch_size,
                        worker_id=record.worker_id,
                        device=record.device,
                    )
                outcome.records.append(end_to_end)
                host_records.append(end_to_end)
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
