"""The inference service: admission → batcher → router → registry → worker pool.

:class:`InferenceService` is the composition root of the serving subsystem.
One call to :meth:`InferenceService.run` replays a request stream through the
full pipeline on the virtual clock, driven by the discrete-event
:class:`~repro.serve.loop.ServingLoop`:

1. the :class:`~repro.serve.admission.AdmissionPolicy` gates every arrival —
   admit-all by default, deadline-aware or priority-preemptive shedding when
   requests carry SLOs;
2. the loop forms batches under the max-batch/max-wait policy of
   :class:`~repro.serve.batcher.BatchPolicy`;
3. the :class:`~repro.serve.fleet.Router` picks the worker each formed batch
   executes on — by default the ``earliest-finish`` ranking router, which
   ranks workers by queueing delay *plus* the device's predicted
   execution latency, so mixed-device fleets route device-aware;
4. the :class:`~repro.serve.batcher.BatchSizeSelector` picks the best
   batch-size-specialised :class:`~repro.engine.CompiledModel` for the chosen
   worker's device from the :class:`~repro.serve.registry.ScheduleRegistry`
   (compiling through :class:`repro.engine.Engine` on a cold miss, loading
   the persisted artifact — zero scheduler searches — on a warm one);
5. the :class:`~repro.serve.workers.WorkerPool` executes that compiled
   model on the chosen worker and the per-request timeline is recorded; an
   optional :class:`~repro.serve.autoscale.Autoscaler` grows and shrinks the
   pool as the loop's scale-check events fire.

The result is a :class:`~repro.serve.metrics.ServingReport`, including
per-device-group utilisation and latency when the fleet is heterogeneous,
and an :class:`~repro.serve.metrics.SloSummary` plus scale events when the
run is SLO-aware.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..core.dp_scheduler import normalize_variant, resolve_compile_jobs
from ..hardware.device import DEVICE_REGISTRY, get_device
from ..obs.alerts import AlertManager, AlertRule
from ..obs.metrics import MetricsRegistry
from ..obs.timeseries import TimeSeriesRegistry, WatchRenderer
from ..obs.trace import NULL_TRACER, Tracer
from .admission import ADMISSION_POLICIES, AdmissionPolicy, get_admission_policy
from .autoscale import AutoscaleConfig, Autoscaler
from .batcher import BatchPolicy, BatchSizeSelector, check_ladder
from .fleet import ROUTERS, FleetSpec, Router, get_router
from .loop import LoopResult, ServingLoop
from .metrics import ServingReport, build_report
from .registry import ScheduleRegistry
from .request import InferenceRequest
from .workers import WorkerPool

__all__ = ["ServingConfig", "InferenceService"]


#: Default ladder of batch sizes the registry specialises schedules for.
DEFAULT_BATCH_SIZES = (1, 2, 4, 8, 16)


@dataclass(frozen=True)
class ServingConfig:
    """Configuration of one inference service instance.

    The worker pool may be declared either way:

    * ``devices`` — one worker per entry (repeat a name for replicas, mix
      names for a heterogeneous pool), the original spelling;
    * ``fleet`` — a :class:`~repro.serve.fleet.FleetSpec`, a
      ``"k80:2,v100:4"`` string, or a ``{device: count}`` mapping.  When
      given, it takes precedence and ``devices`` is rewritten to the fleet's
      expanded worker list, so downstream code sees one consistent view.
    """

    model: str = "inception_v3"
    #: One worker per entry; repeat a name for replicas, mix names for a
    #: heterogeneous pool.  Overwritten by ``fleet`` when that is set.
    devices: tuple[str, ...] = ("v100",)
    #: Optional fleet declaration (FleetSpec | "dev:count,..." | mapping).
    fleet: "FleetSpec | str | None" = None
    #: Routing policy dispatching formed batches to workers: any name in
    #: :func:`repro.serve.fleet.list_routers`, or a pre-built
    #: :class:`~repro.serve.fleet.Router` instance (used as-is — note that
    #: services sharing one config then share its state).
    router: "str | Router" = "earliest-finish"
    #: Batch-size ladder the registry specialises schedules for.
    batch_sizes: tuple[int, ...] = DEFAULT_BATCH_SIZES
    policy: BatchPolicy = BatchPolicy()
    #: IOS variant compiled on registry misses.
    variant: str = "ios-both"
    #: Directory for persisted schedules; ``None`` keeps the registry in memory.
    registry_root: str | None = None
    #: Run the :mod:`repro.passes` rewrite pipeline on served graphs; schedule
    #: keys fingerprint the rewritten graph, so flipping this never reuses
    #: schedules searched for the other form.
    passes: bool = False
    #: Worker processes for the registry's cold compile searches: ``1`` is
    #: serial, ``0`` uses every CPU; schedules are identical either way.
    compile_jobs: int = 1
    #: Admission policy gating arrivals: any name in
    #: :func:`repro.serve.admission.list_admission_policies`, or a pre-built
    #: :class:`~repro.serve.admission.AdmissionPolicy` instance (used as-is).
    admission: "str | AdmissionPolicy" = "admit-all"
    #: Elastic pool bounds: an :class:`~repro.serve.autoscale.AutoscaleConfig`,
    #: a ``"min:max"`` string, or ``None`` for a fixed-size pool.  A ``fleet``
    #: declaring ``min_workers``/``max_workers`` enables autoscaling too.
    autoscale: "AutoscaleConfig | str | None" = None

    def __post_init__(self) -> None:
        # Normalise the fleet first: it is the authoritative pool declaration
        # when present (frozen dataclass, hence object.__setattr__).
        if self.fleet is not None:
            fleet = FleetSpec.of(self.fleet)
            object.__setattr__(self, "fleet", fleet)
            object.__setattr__(self, "devices", fleet.device_names())
            if fleet.is_elastic and self.autoscale is None:
                object.__setattr__(
                    self,
                    "autoscale",
                    AutoscaleConfig(
                        min_workers=fleet.min_workers,
                        max_workers=fleet.max_workers,
                    ),
                )
        if isinstance(self.devices, str):
            raise ValueError(
                f"devices takes a tuple of device names, got the string "
                f"{self.devices!r}; write devices=({self.devices!r},)"
            )
        if not self.devices:
            raise ValueError("serving needs at least one device")
        # Device names resolve like router and admission names: a typo fails
        # here, listing the presets, and aliases become preset names.
        object.__setattr__(self, "devices", tuple(map(DEVICE_REGISTRY.canonical, self.devices)))
        check_ladder(self.batch_sizes)
        # Resolve router and admission names eagerly so a typo fails at
        # config time, not mid-run; the service builds the instances.  An
        # instance is kept as-is.
        if not isinstance(self.router, Router):
            object.__setattr__(self, "router", ROUTERS.canonical(self.router))
        if not isinstance(self.admission, AdmissionPolicy):
            object.__setattr__(
                self, "admission", ADMISSION_POLICIES.canonical(self.admission)
            )
        if self.autoscale is not None:
            autoscale = AutoscaleConfig.of(self.autoscale)
            object.__setattr__(self, "autoscale", autoscale)
            # Same contract FleetSpec enforces for elastic fleets: the
            # declared pool is the starting point inside the bounds, never
            # already outside them.
            if not autoscale.min_workers <= len(self.devices) <= autoscale.max_workers:
                raise ValueError(
                    f"declared pool size {len(self.devices)} must lie within "
                    f"the autoscale bounds [{autoscale.min_workers}, "
                    f"{autoscale.max_workers}]"
                )
        # Canonicalise drifted variant spellings so the config, the registry
        # key and the CLI can never disagree.
        object.__setattr__(self, "variant", normalize_variant(self.variant))
        resolve_compile_jobs(self.compile_jobs)

    def as_fleet(self) -> FleetSpec:
        """The worker pool as a fleet: ``fleet`` when declared, else ``devices``.

        A plain ``devices`` tuple is summarised into per-device counts (first
        occurrence keeps the order); this fleet only *describes* the pool — a
        service still runs the exact device tuple.
        """
        if self.fleet is not None:
            return self.fleet
        counts: dict[str, int] = {}
        for name in self.devices:
            counts[name] = counts.get(name, 0) + 1
        return FleetSpec(groups=tuple(counts.items()))


class InferenceService:
    """End-to-end serving loop over the simulated runtime.

    Parameters
    ----------
    config:
        The service declaration (model, fleet/devices, ladder, policy, ...).
    registry:
        Share a :class:`~repro.serve.registry.ScheduleRegistry` across
        services (a long-lived deployment); defaults to a fresh one rooted at
        ``config.registry_root``.  Its per-device engines are the service's
        only compile path and their caches its only compiled-model memory;
        its kernel profile is the one every compile and every dispatch runs
        under, and part of every persisted artifact's name.
    router:
        Inject a pre-built :class:`~repro.serve.fleet.Router` instance
        (custom policies, tests); defaults to ``config.router`` by name.
    admission:
        Inject a pre-built :class:`~repro.serve.admission.AdmissionPolicy`
        instance; defaults to ``config.admission`` by name.
    tracer:
        Optional :class:`~repro.obs.Tracer`; the service threads it through
        the loop (request lifecycles, batch/worker activity) *and* the
        registry's compile engines (compile-stage spans), so one trace spans
        compile and serving.  The tracer takes over an injected shared
        registry's engines for as long as this service uses them.  Reports
        stay byte-identical whether tracing is on or off.
    metrics:
        Inject the loop's registry.  Pass a
        :class:`~repro.obs.TimeSeriesRegistry` for windowed live metrics;
        requesting ``alerts`` or ``watch`` builds one automatically
        (``window_ms`` wide) when this is not already windowed.
    alerts:
        Optional :class:`~repro.obs.AlertManager` or rule list, evaluated on
        every window close; events land in the report's ``alerts`` section.
    watch:
        Optional :class:`~repro.obs.WatchRenderer` (or ``True`` for the
        default stderr renderer) printing one dashboard line per window.
    window_ms:
        Window width used when the service builds its own windowed registry.
    """

    def __init__(
        self,
        config: ServingConfig,
        registry: ScheduleRegistry | None = None,
        router: Router | None = None,
        admission: AdmissionPolicy | None = None,
        tracer: Tracer | None = None,
        metrics: MetricsRegistry | None = None,
        alerts: "AlertManager | Sequence[AlertRule] | None" = None,
        watch: "WatchRenderer | bool | None" = None,
        window_ms: float = 50.0,
    ):
        self.config = config
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.registry = registry or ScheduleRegistry(
            root=config.registry_root, variant=config.variant, passes=config.passes,
            jobs=config.compile_jobs,
        )
        if tracer is not None:
            self.registry.tracer = self.tracer
        self.pool = WorkerPool([get_device(name) for name in config.devices])
        self.router = router if router is not None else get_router(config.router)
        self.admission = (
            admission if admission is not None
            else get_admission_policy(config.admission)
        )
        self.autoscaler = (
            Autoscaler(config.autoscale, get_device(self._scale_device()))
            if config.autoscale is not None else None
        )
        self.selector = BatchSizeSelector(self.registry, config.batch_sizes)
        if watch is True:
            watch = WatchRenderer()
        elif watch is False:
            watch = None
        # Alerts and the watch dashboard read windowed series; upgrade the
        # registry to a windowed one when the caller didn't bring their own.
        if (alerts is not None or watch is not None) and not isinstance(
            metrics, TimeSeriesRegistry
        ):
            metrics = TimeSeriesRegistry(window_ms=window_ms)
        self.loop = ServingLoop(
            model=config.model,
            policy=config.policy,
            pool=self.pool,
            router=self.router,
            selector=self.selector,
            registry=self.registry,
            admission=self.admission,
            autoscaler=self.autoscaler,
            tracer=self.tracer,
            metrics=metrics,
            alerts=alerts,
            watch=watch,
        )

    def _scale_device(self) -> str:
        """Device preset the autoscaler spawns: the fleet's primary device."""
        if self.config.fleet is not None:
            return self.config.fleet.primary_device()
        return self.config.devices[0]

    # ------------------------------------------------------------------ warmup
    def warmup(self) -> None:
        """Resolve every (ladder rung × device type) schedule before traffic.

        One :class:`~repro.engine.CompiledModel` per ladder rung per *device
        type* — replicas share their group's artifacts, so a ``k80:2,v100:4``
        fleet warms two compile fan-outs, not six.  On a cold registry this
        performs the scheduler searches up front; on a warm one it is pure
        artifact loading.  Serving without warmup is also fine — misses are
        compiled lazily on the first dispatch that needs them.
        """
        for device in self.pool.device_types:
            self.registry.warmup(self.config.model, self.config.batch_sizes, device)

    # --------------------------------------------------------------------- run
    def run(self, requests: Sequence[InferenceRequest]) -> ServingReport:
        """Serve ``requests`` and report per-request latency plus throughput.

        Replaying the same requests gives the same report: each run of the
        loop starts from the configured pool, router and autoscaler.
        """
        if not requests:
            raise ValueError("cannot serve an empty request list")
        for request in requests:
            if request.model != self.config.model:
                raise ValueError(
                    f"request {request.request_id} is for model {request.model!r}; "
                    f"this service serves {self.config.model!r}"
                )
            if request.num_samples > self.selector.max_batch_size:
                raise ValueError(
                    f"request {request.request_id} carries {request.num_samples} "
                    f"samples but the largest specialised batch size is "
                    f"{self.selector.max_batch_size}"
                )
        ordered = sorted(requests, key=lambda r: (r.arrival_ms, r.request_id))
        return self.report(self.loop.run(ordered))

    def report(self, result: LoopResult) -> ServingReport:
        """The :class:`ServingReport` of one loop run of this service.

        The one place a :class:`~repro.serve.loop.LoopResult` becomes a
        report: :meth:`run` calls it, and so does the cluster for each host
        it drove.  Both worker summaries read the per-worker busy/lifetime
        series the loop exported into the run's registry — one bookkeeping,
        two views.
        """
        return build_report(
            records=result.fold,
            num_batches=result.num_executions,
            batch_size_counts=result.batch_size_counts,
            registry_stats=self.registry.stats,
            worker_summary=self.pool.summary(metrics=result.metrics),
            group_summary=self.pool.group_summary(metrics=result.metrics),
            router=self.router.name,
            admission=self.admission.name,
            scale_events=result.scale_events,
            alerts=result.alerts,
            metrics=result.metrics,
        )
