"""Reproducible serving experiments.

The paper's figures measure schedules in isolation; these harnesses measure
them *in service*: synthetic traffic flows through the batcher → router →
registry → worker pool pipeline and the resulting throughput/latency numbers
land in the same :class:`~repro.tables.ExperimentTable` container
as every paper figure, so serving runs are printable, CSV-exportable and
benchmarkable with the existing machinery.

Three comparisons are provided:

* :func:`run_serving_comparison` — dynamic batching vs. the no-batching
  baseline on a homogeneous pool (the PR-1 study);
* :func:`run_fleet_comparison` — a mixed-device fleet vs. equally-sized
  homogeneous fleets of each member device type, under Poisson and bursty
  traffic: the heterogeneity study;
* :func:`run_slo_comparison` — admission policies head-to-head under a
  deadline-carrying bursty overload, with an optional elastic pool: the
  SLO study (deadline-aware shedding must beat admit-all on attainment).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Sequence

from ..tables import ExperimentTable
from ..obs.trace import Tracer
from .batcher import BatchPolicy
from .fleet import FleetSpec
from .metrics import ServingReport
from .registry import ScheduleRegistry
from .service import InferenceService, ServingConfig
from .traffic import TrafficConfig, TrafficGenerator

__all__ = [
    "run_serving",
    "run_serving_comparison",
    "run_fleet_comparison",
    "run_slo_comparison",
]


def run_serving(
    traffic: TrafficConfig,
    serving: ServingConfig,
    registry: ScheduleRegistry | None = None,
    warmup: bool = True,
    tracer: "Tracer | None" = None,
    alerts=None,
    watch=None,
    window_ms: float = 50.0,
) -> ServingReport:
    """Generate traffic, serve it, and return the report.

    ``registry`` may be shared across calls (or pre-warmed from disk) to model
    a long-lived service; by default each call builds its own from
    ``serving.registry_root``.  ``tracer`` (a :class:`repro.obs.Tracer`)
    records the run — compile stages, request lifecycles, worker activity —
    without changing the report.  ``alerts`` (an
    :class:`~repro.obs.AlertManager` or rule list) and ``watch`` (a
    :class:`~repro.obs.WatchRenderer` or ``True``) turn on windowed live
    metrics, evaluated every ``window_ms`` of virtual time; alert transitions
    land in the report's ``alerts`` section.
    """
    if traffic.model != serving.model:
        raise ValueError(
            f"traffic is for model {traffic.model!r} but the service serves "
            f"{serving.model!r}"
        )
    service = InferenceService(
        serving, registry=registry, tracer=tracer,
        alerts=alerts, watch=watch, window_ms=window_ms,
    )
    if warmup:
        service.warmup()
    requests = TrafficGenerator(traffic).generate()
    return service.run(requests)


def _pool(serving: ServingConfig) -> str:
    """The pool as worker groups in declaration order, e.g. ``2×v100``."""
    return " + ".join(f"{count}×{device}" for device, count in serving.as_fleet().groups)


def _registry(serving: ServingConfig) -> ScheduleRegistry:
    """The one schedule registry every row of a comparison shares."""
    return ScheduleRegistry(
        root=serving.registry_root, variant=serving.variant, passes=serving.passes,
        jobs=serving.compile_jobs,
    )


def run_serving_comparison(
    traffic: TrafficConfig,
    serving: ServingConfig,
    patterns: Sequence[str] = ("poisson", "bursty"),
) -> ExperimentTable:
    """Dynamic batching vs. the no-batching baseline across traffic patterns.

    Each pattern replays ``traffic`` with that arrival pattern, through
    ``serving`` as given (the dynamic row) and through a copy that executes
    every request by itself (the unbatched row).  One registry (and hence one
    set of scheduler searches) is shared by all runs, exactly as a deployed
    service would share its schedule store.  The per-request sample mix is
    capped to the ladder maximum so every generated request is servable.
    """
    table = ExperimentTable(
        experiment_id="serving_comparison",
        title=f"Serving {serving.model} on {_pool(serving)}: "
        "dynamic batching vs. no batching",
        columns=[
            "pattern", "policy", "requests", "batches", "throughput_rps",
            "samples_per_s", "p50_ms", "p95_ms", "mean_queue_ms", "searches",
        ],
        notes="one schedule registry shared across all runs; 'searches' is the "
        "cumulative number of IOS scheduler runs it performed so far",
    )

    registry = _registry(serving)
    configs = {
        "dynamic": serving,
        "unbatched": replace(serving, policy=BatchPolicy(max_batch_size=1, max_wait_ms=0.0)),
    }
    for pattern in patterns:
        pattern_traffic = replace(traffic, pattern=pattern).capped_to(max(serving.batch_sizes))
        for policy_name, config in configs.items():
            report = run_serving(pattern_traffic, config, registry=registry)
            table.add_row(
                pattern=pattern,
                policy=policy_name,
                requests=report.num_requests,
                batches=report.num_batches,
                throughput_rps=report.throughput_rps,
                samples_per_s=report.throughput_samples_per_s,
                p50_ms=report.latency.p50_ms,
                p95_ms=report.latency.p95_ms,
                mean_queue_ms=report.queue_delay.mean_ms,
                searches=registry.stats.searches,
            )
    return table


def run_slo_comparison(
    traffic: TrafficConfig,
    serving: ServingConfig,
    admissions: Sequence[str] = ("admit-all", "deadline"),
) -> ExperimentTable:
    """Admission policies head-to-head on one deadline-carrying workload.

    Every row serves the identical seeded ``traffic`` — which must carry an
    ``slo_ms`` latency budget — through ``serving``, varying only the
    admission policy (pool, router and any ``autoscale`` bounds are shared by
    every row, so the comparison isolates admission).  One schedule registry
    is shared by all rows.

    The headline columns: ``attainment`` (fraction of *offered* requests that
    completed within their deadline — a rejected request never attains) and
    the latency percentiles of the admitted requests.  Under overload,
    deadline-aware shedding must beat admit-all on attainment *and* p99: the
    benchmark suite asserts exactly that.
    """
    if traffic.slo_ms is None:
        raise ValueError("the admission comparison needs traffic with slo_ms set")
    table = ExperimentTable(
        experiment_id="slo_comparison",
        title=f"Serving {serving.model} with a {traffic.slo_ms:.0f}ms SLO on "
        f"{_pool(serving)} ({traffic.pattern} overload): admission policies",
        columns=[
            "admission", "offered", "admitted", "rejected", "attainment",
            "violations", "p50_ms", "p99_ms", "scale_events", "peak_workers",
        ],
        notes="every row serves the identical seeded deadline-carrying "
        "workload; 'attainment' counts a rejected request as a miss, so "
        "shedding only wins by letting admitted requests meet their SLO; "
        "one schedule registry is shared across rows",
    )

    registry = _registry(serving)
    traffic = traffic.capped_to(max(serving.batch_sizes))
    for admission in admissions:
        report = run_serving(traffic, replace(serving, admission=admission), registry=registry)
        slo = report.slo_summary
        peak_workers = max(
            [len(serving.devices)]
            + [event.num_workers for event in report.scale_events]
        )
        table.add_row(
            admission=admission,
            offered=slo.offered,
            admitted=slo.admitted,
            rejected=slo.rejected,
            attainment=slo.attainment_rate,
            violations=slo.violations,
            p50_ms=report.latency.p50_ms,
            p99_ms=report.latency.p99_ms,
            scale_events=len(report.scale_events),
            peak_workers=peak_workers,
        )
    return table


def _group_utilization(report: ServingReport) -> str:
    """Compact per-device-group utilisation cell, e.g. ``k80:2@41% v100:4@87%``."""
    return " ".join(
        f"{row['device']}:{row['workers']}@{row['utilization']:.0%}"
        for row in report.device_summary
    )


def run_fleet_comparison(
    traffic: TrafficConfig,
    serving: ServingConfig,
    patterns: Sequence[str] = ("poisson", "bursty"),
) -> ExperimentTable:
    """Mixed fleet vs. equally-sized homogeneous fleets, per traffic pattern.

    For the (typically mixed) pool of ``serving``, every member device type
    also runs as a *homogeneous* fleet of the same total worker count, so the
    comparison isolates device heterogeneity from pool size.  Each row
    replays ``traffic`` with one of ``patterns`` through ``serving`` with
    only the fleet replaced; one schedule registry is shared by all runs
    (fleets sharing a device type reuse its compiled artifacts, exactly like
    deployments sharing a schedule store).  Under load, the mixed fleet must
    beat the homogeneous fleet of its slowest member device — that is the
    acceptance bar the fleet tests assert on.
    """
    fleet = serving.as_fleet()
    fleets: dict[str, FleetSpec] = {fleet.describe(): fleet}
    for device in fleet.device_types():
        homogeneous = FleetSpec.homogeneous(device, fleet.num_workers)
        fleets.setdefault(homogeneous.describe(), homogeneous)

    table = ExperimentTable(
        experiment_id="fleet_comparison",
        title=f"Serving {serving.model} on mixed vs homogeneous fleets "
        f"({fleet.describe()}, {fleet.num_workers} workers each)",
        columns=[
            "fleet", "pattern", "router", "requests", "batches",
            "throughput_rps", "samples_per_s", "p50_ms", "p95_ms",
            "groups", "searches",
        ],
        notes="every fleet serves the identical seeded workload; 'groups' is "
        "per-device-group utilisation; one schedule registry is shared, so "
        "'searches' is cumulative across rows",
    )

    registry = _registry(serving)
    for pattern in patterns:
        pattern_traffic = replace(traffic, pattern=pattern).capped_to(max(serving.batch_sizes))
        for fleet_name, members in fleets.items():
            report = run_serving(pattern_traffic, replace(serving, fleet=members),
                                 registry=registry)
            table.add_row(
                fleet=fleet_name,
                pattern=pattern,
                router=report.router,
                requests=report.num_requests,
                batches=report.num_batches,
                throughput_rps=report.throughput_rps,
                samples_per_s=report.throughput_samples_per_s,
                p50_ms=report.latency.p50_ms,
                p95_ms=report.latency.p95_ms,
                groups=_group_utilization(report),
                searches=registry.stats.searches,
            )
    return table
