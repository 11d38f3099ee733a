"""Cluster serving experiments: configure, run, and report multi-host replays.

:func:`run_cluster_serving` is the cluster-level counterpart of
:func:`repro.serve.run_serving`: it builds one :class:`~repro.cluster.host.
Host` per :class:`ClusterConfig` entry around a **shared**
:class:`~repro.serve.registry.ScheduleRegistry` (so replicated hosts share
compiled artifacts, and partitioned hosts compile their own stage subgraphs
through the plan's ``graph_builder``), replays a synthetic workload through
the :class:`~repro.cluster.loop.ClusterLoop`, and folds the outcome into a
:class:`ClusterReport` — the familiar cluster-wide
:class:`~repro.serve.metrics.ServingReport` judged on *end-to-end* records,
plus per-host SLO rows, transfer accounting, and the partition plan.

A ``ClusterConfig(num_hosts=1)`` run reproduces the single-host
:func:`~repro.serve.run_serving` report byte-for-byte — the golden
equivalence the cluster test suite pins.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

from ..checks import require_int
from ..frontend import load
from ..obs.alerts import AlertManager, AlertRule, per_host_alert_rules
from ..obs.metrics import MetricsRegistry, ordered_sum, percentile
from ..obs.trace import PrefixedTracer, Tracer
from ..serve.fleet import FleetSpec
from ..serve.metrics import ServingReport, build_report
from ..serve.registry import ScheduleRegistry
from ..serve.service import InferenceService, ServingConfig
from ..serve.traffic import TrafficConfig, TrafficGenerator
from .host import Host, HostSpec
from .link import LinkModel
from .loop import ClusterLoop, ClusterOutcome, TransferStats
from .partition import PartitionPlan, partition_graph
from .router import CLUSTER_ROUTERS, ClusterRouter, get_cluster_router

__all__ = ["ClusterConfig", "ClusterReport", "run_cluster_serving"]


@dataclass(frozen=True)
class ClusterConfig:
    """Declaration of one simulated cluster.

    ``serving`` is the per-host template: every host serves with its fleet,
    batching policy, ladder, router and admission policy, unless
    ``host_fleets`` overrides the fleet per host.  Under ``partition`` the
    model is cut into ``num_hosts`` pipeline stages (stage ``k`` pinned to
    host ``k``); otherwise every memory-eligible host serves the whole model
    and the cluster ``router`` spreads arrivals across them.
    """

    serving: ServingConfig
    num_hosts: int = 1
    #: Per-host fleet overrides (FleetSpec | "dev:count,..." each); ``None``
    #: replicates the template's fleet on every host.
    host_fleets: tuple = None
    #: Weight memory per host in GB: one float for all, a per-host tuple
    #: (``None`` entries unbounded), or ``None`` for no bounds anywhere.
    host_memory_gb: "float | tuple | None" = None
    #: Cut the model into ``num_hosts`` pipeline stages, one per host.
    partition: bool = False
    #: Cluster routing policy placing external arrivals on eligible hosts.
    router: "str | ClusterRouter" = "earliest-finish-host"
    #: Inter-host transfer-cost model (or a ``"bw=...,lat=..."`` spec string).
    link: "LinkModel | str" = field(default_factory=LinkModel)

    def __post_init__(self) -> None:
        require_int("num_hosts", self.num_hosts)
        if self.host_fleets is not None:
            fleets = tuple(FleetSpec.of(fleet) for fleet in self.host_fleets)
            if len(fleets) != self.num_hosts:
                raise ValueError(
                    f"host_fleets has {len(fleets)} entries for "
                    f"{self.num_hosts} hosts"
                )
            object.__setattr__(self, "host_fleets", fleets)
        memory = self.host_memory_gb
        if memory is not None and not isinstance(memory, tuple):
            memory = (float(memory),) * self.num_hosts
        if memory is not None and len(memory) != self.num_hosts:
            raise ValueError(
                f"host_memory_gb has {len(memory)} entries for "
                f"{self.num_hosts} hosts"
            )
        object.__setattr__(self, "host_memory_gb", memory)
        if not isinstance(self.router, ClusterRouter):
            object.__setattr__(self, "router", CLUSTER_ROUTERS.canonical(self.router))
        if isinstance(self.link, str):
            object.__setattr__(self, "link", LinkModel.parse(self.link))
        # Each HostSpec checks its memory bound; build them once to fail here.
        self.host_specs()

    def host_specs(self) -> list[HostSpec]:
        """One :class:`~repro.cluster.host.HostSpec` per host, in id order."""
        template = self.serving.as_fleet()
        specs = []
        for host_id in range(self.num_hosts):
            fleet = (
                self.host_fleets[host_id]
                if self.host_fleets is not None
                else template
            )
            memory = (
                self.host_memory_gb[host_id]
                if self.host_memory_gb is not None
                else None
            )
            specs.append(HostSpec(fleet=fleet, memory_gb=memory))
        return specs


@dataclass
class ClusterReport:
    """Aggregate result of one cluster run.

    ``report`` is the cluster-wide :class:`~repro.serve.metrics.ServingReport`
    over **end-to-end** records (latency from true arrival to final-stage
    completion); for a single-host cluster it is the host's own report,
    untouched.  ``host_reports`` hold each host's local view (stage-level
    latency summaries, worker utilisation, scale events, alerts); a host
    that served nothing reports ``None``.  No host keeps stage records: a
    pipeline stage's host, or a host behind a modeled ingress link, reports
    every summary but ``records == []``, and the end-to-end records of the
    requests it finished are in ``records_by_host``.  Only a host whose
    arrivals are its clients' own requests lists its records, which are
    then the end-to-end ones.
    """

    report: ServingReport
    num_hosts: int
    router: str
    link: LinkModel
    host_specs: list[HostSpec]
    host_reports: list["ServingReport | None"]
    #: End-to-end records grouped by the host that finished each request.
    records_by_host: dict[int, list]
    rejected_by_host: dict[int, list]
    #: External arrivals routed to each host id.
    routed: dict[int, int]
    transfers: TransferStats
    plan: "PartitionPlan | None" = None
    #: Cluster-level counters (routing, transfers), separate from host metrics.
    cluster_metrics: "MetricsRegistry | None" = None

    # -------------------------------------------------------------- attainment
    @property
    def attainment(self) -> float:
        """Cluster-wide SLO attainment over everything the clients offered."""
        slo = self.report.slo_summary
        if slo is not None:
            return slo.attainment_rate
        offered = len(self.report.records) + len(self.report.rejected)
        if not offered:
            return 0.0
        met = sum(1 for record in self.report.records if record.deadline_met)
        return met / offered

    def host_attainment(self, host_id: int) -> "float | None":
        """SLO attainment of the requests host ``host_id`` finished."""
        records = self.records_by_host.get(host_id, [])
        rejected = self.rejected_by_host.get(host_id, [])
        offered = len(records) + len(rejected)
        if not offered:
            return None
        met = sum(1 for record in records if record.deadline_met)
        return met / offered

    # ------------------------------------------------------------------ pretty
    def _host_row(self, host_id: int) -> str:
        spec = self.host_specs[host_id]
        records = self.records_by_host.get(host_id, [])
        rejected = self.rejected_by_host.get(host_id, [])
        prefix = f"host{host_id}  : {spec.describe()}"
        host_report = self.host_reports[host_id]
        if not records and not rejected:
            if host_report is None:
                return f"{prefix} — idle"
            # An intermediate pipeline stage: it served stage requests but
            # finished no end-to-end journeys of its own.
            return (
                f"{prefix} — {host_report.num_requests} stage requests, "
                f"p99 {host_report.latency.p99_ms:.3f} ms stage latency"
                f"{_busy(host_report)}"
            )
        attainment = self.host_attainment(host_id)
        latencies = [record.latency_ms for record in records]
        p99 = percentile(latencies, 99) if latencies else 0.0
        busy = _busy(host_report) if host_report is not None else ""
        return (
            f"{prefix} — {len(records)} served"
            + (f", {len(rejected)} rejected" if rejected else "")
            + f", {attainment:.1%} attainment, p99 {p99:.3f} ms{busy}"
        )

    def describe(self) -> str:
        """The cluster-wide report plus, for real clusters, per-host rows.

        A single-host, transfer-free run prints the base report *only* — the
        spelling stays byte-identical to the single-host serving loop's.
        """
        text = self.report.describe()
        if self.num_hosts == 1 and self.transfers.count == 0:
            return text
        lines = [text]
        lines.append(
            f"cluster   : {self.num_hosts} hosts, router {self.router}, "
            f"link {self.link.describe()}"
        )
        if self.transfers.count:
            lines.append(
                f"transfers : {self.transfers.count} modeled, "
                f"{self.transfers.total_bytes / 1e6:.3f} MB, "
                f"{self.transfers.total_ms:.3f} ms total"
            )
        for host_id in range(self.num_hosts):
            lines.append(self._host_row(host_id))
        if self.plan is not None:
            lines.append(self.plan.describe())
        return "\n".join(lines)


def _busy(host_report: ServingReport) -> str:
    """The ``, x% busy`` part of a host row: its workers' mean utilisation."""
    rows = host_report.worker_summary
    if not rows:
        return ""
    mean_busy = ordered_sum(row["utilization"] for row in rows) / len(rows)
    return f", {mean_busy:.1%} busy"


def _host_alerts(alerts, host_id: int, num_hosts: int):
    """Resolve the run's ``alerts`` argument into one host's rule set."""
    if alerts is None:
        return None
    if callable(alerts) and not isinstance(alerts, AlertManager):
        return alerts(host_id)
    if num_hosts == 1:
        return alerts
    rules: Sequence[AlertRule] = (
        alerts.rules if isinstance(alerts, AlertManager) else alerts
    )
    return per_host_alert_rules(host_id, rules)


def run_cluster_serving(
    traffic: TrafficConfig,
    cluster: ClusterConfig,
    registry: "ScheduleRegistry | None" = None,
    warmup: bool = True,
    tracer: "Tracer | None" = None,
    alerts: "Callable[[int], Sequence[AlertRule]] | Sequence[AlertRule] | None" = None,
    watch=None,
    window_ms: float = 50.0,
) -> ClusterReport:
    """Generate traffic, serve it across the cluster, and return the report.

    ``registry`` may be shared across non-partitioned calls; partitioned runs
    build their own (the partition plan registers the stage ``graph_builder``
    at construction).  ``tracer`` records one shared timeline: each host's
    serving spans land on ``hostN``-prefixed tracks (single-host runs stay
    unprefixed), cluster transfers on ``hostN link/send|recv``.  ``alerts``
    is a rule list (single host), or a ``host_id -> rules`` factory — a plain
    list on a multi-host run is copied per host via
    :func:`~repro.obs.per_host_alert_rules`.  ``watch`` only applies to
    single-host runs (N interleaved dashboards would be unreadable).
    """
    serving = cluster.serving
    if traffic.model != serving.model:
        raise ValueError(
            f"traffic is for model {traffic.model!r} but the cluster serves "
            f"{serving.model!r}"
        )
    specs = cluster.host_specs()
    base_graph = load(serving.model, batch_size=1)
    weight_bytes = base_graph.total_weight_bytes()
    input_bytes = base_graph.input_shape.with_batch(1).bytes()

    plan: "PartitionPlan | None" = None
    if cluster.partition and cluster.num_hosts > 1:
        bounds = [spec.memory_gb for spec in specs]
        plan = partition_graph(
            base_graph,
            cluster.num_hosts,
            memory_bounds=bounds if any(b is not None for b in bounds) else None,
            model=serving.model,
        )
    if plan is not None and registry is not None:
        raise ValueError(
            "partitioned cluster runs own their registry (the plan registers "
            "a stage graph_builder); pass registry=None"
        )
    if registry is None:
        registry = ScheduleRegistry(
            root=serving.registry_root,
            variant=serving.variant,
            passes=serving.passes,
            jobs=serving.compile_jobs,
            graph_builder=plan.graph_builder() if plan is not None else None,
        )

    if plan is not None:
        eligible = [plan.host_of_stage(0)]
    else:
        eligible = [
            host_id
            for host_id, spec in enumerate(specs)
            if spec.fits(weight_bytes)
        ]
        if not eligible:
            raise ValueError(
                f"no host can hold {serving.model!r} "
                f"({weight_bytes / 1e6:.2f} MB of weights); raise "
                "host_memory_gb or partition the model across hosts"
            )

    hosts: list[Host] = []
    for host_id, spec in enumerate(specs):
        model = plan.stages[host_id].model if plan is not None else serving.model
        if cluster.host_fleets is not None:
            config = replace(serving, model=model, fleet=spec.fleet)
        else:
            # Keep the template's exact pool (fleet or raw device tuple) so a
            # 1-host cluster is the single-host service, bit for bit.
            config = replace(serving, model=model)
        host_tracer = tracer
        if tracer is not None and cluster.num_hosts > 1:
            host_tracer = PrefixedTracer(tracer, f"host{host_id} ")
        service = InferenceService(
            config,
            registry=registry,
            tracer=host_tracer,
            alerts=_host_alerts(alerts, host_id, cluster.num_hosts),
            watch=watch if cluster.num_hosts == 1 else None,
            window_ms=window_ms,
        )
        hosts.append(Host(host_id, spec, service))
    # Every traced service re-pointed the shared registry's engines at its
    # own (prefixed) view; compile spans belong on the shared unprefixed
    # timeline, exactly as in a single-host run.
    if tracer is not None:
        registry.tracer = tracer

    if warmup:
        for host in hosts:
            if plan is not None or host.host_id in eligible:
                host.service.warmup()

    requests = TrafficGenerator(traffic).generate()
    max_samples = min(
        hosts[host_id].service.selector.max_batch_size for host_id in eligible
    )
    for request in requests:
        if request.num_samples > max_samples:
            raise ValueError(
                f"request {request.request_id} carries {request.num_samples} "
                f"samples but the largest specialised batch size is "
                f"{max_samples}"
            )

    router = get_cluster_router(cluster.router)
    loop = ClusterLoop(
        hosts,
        router,
        cluster.link,
        plan=plan,
        eligible_ids=eligible,
        input_bytes_per_sample=input_bytes,
        tracer=tracer,
    )
    outcome = loop.run(requests)
    return _build_cluster_report(cluster, hosts, registry, router, plan, outcome)


def _build_cluster_report(
    cluster: ClusterConfig,
    hosts: list[Host],
    registry: ScheduleRegistry,
    router: ClusterRouter,
    plan: "PartitionPlan | None",
    outcome: ClusterOutcome,
) -> ClusterReport:
    host_reports = [
        host.service.report(result)
        if result.fold.num_records or result.rejected
        else None
        for host, result in zip(hosts, outcome.host_results)
    ]
    if cluster.num_hosts == 1 and outcome.transfers.count == 0:
        # Pass-through: with no modeled transfers the cluster-wide view of a
        # 1-host cluster *is* the host's report — byte-identical to the plain
        # serving loop's.  (Ingress modeling re-times arrivals on the host, so
        # its local report would hide the clients' ingress wait.)
        assert host_reports[0] is not None
        report = host_reports[0]
    else:
        batch_size_counts: dict[int, int] = {}
        for result in outcome.host_results:
            for size, count in result.batch_size_counts.items():
                batch_size_counts[size] = batch_size_counts.get(size, 0) + count
        merged_alerts = [
            event for result in outcome.host_results for event in result.alerts
        ]
        report = build_report(
            records=outcome.records,
            num_batches=sum(r.num_executions for r in outcome.host_results),
            batch_size_counts=batch_size_counts,
            registry_stats=registry.stats,
            worker_summary=[],
            group_summary=None,
            router=router.name,
            admission=hosts[0].service.admission.name,
            rejected=outcome.rejected,
            alerts=merged_alerts,
        )
    return ClusterReport(
        report=report,
        num_hosts=cluster.num_hosts,
        router=router.name,
        link=cluster.link,
        host_specs=[host.spec for host in hosts],
        host_reports=host_reports,
        records_by_host=outcome.records_by_host,
        rejected_by_host=outcome.rejected_by_host,
        routed=outcome.routed,
        transfers=outcome.transfers,
        plan=plan,
        cluster_metrics=outcome.metrics,
    )
