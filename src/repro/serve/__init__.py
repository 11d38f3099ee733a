"""repro.serve — batch-aware inference serving on the simulated runtime.

The paper shows that inter-operator schedules specialised per batch size beat
one-size-fits-all execution; this package turns that observation into an
end-to-end inference service:

* :mod:`repro.serve.registry` — :class:`ScheduleRegistry`, a disk tier of
  :class:`repro.engine.CompiledModel` artifacts over one
  :class:`repro.engine.Engine` per device, named by model, device, kernel
  profile, variant, batch size and graph fingerprint; misses compile through
  the engine, warm starts load the persisted artifacts with zero scheduler
  searches;
* :mod:`repro.serve.loop` — :class:`ServingLoop`, the discrete-event core:
  arrivals in time order plus one heap of batch-close timeouts, worker
  completions and scale checks drive everything on the virtual clock;
* :mod:`repro.serve.batcher` — :class:`BatchPolicy` (the max-batch/max-wait
  knobs the loop applies) and :class:`BatchSizeSelector` (cross-evaluating
  schedule choice, reusing the Table-3 specialisation logic);
* :mod:`repro.serve.admission` — pluggable :class:`AdmissionPolicy` gating
  arrivals: admit-all, deadline-aware shedding, priority-preemptive queueing;
* :mod:`repro.serve.autoscale` — :class:`Autoscaler` growing/shrinking the
  pool between :class:`AutoscaleConfig` bounds, every resize recorded as a
  :class:`ScaleEvent`;
* :mod:`repro.serve.workers` — :class:`WorkerPool` executing the registry's
  compiled models across simulated devices, each worker with its own device
  identity;
* :mod:`repro.serve.fleet` — heterogeneous fleets: :class:`FleetSpec`
  (``"k80:2,v100:4"`` worker groups, optionally elastic) and pluggable
  :class:`Router` policies (device-aware earliest-finish plus
  earliest-start / round-robin / least-loaded baselines);
* :mod:`repro.serve.traffic` — reproducible Poisson / bursty / uniform
  synthetic traffic, with per-burst labels and optional SLO/priority mixes;
* :mod:`repro.serve.service` — :class:`InferenceService`, the composition
  root, and :class:`ServingConfig`;
* :mod:`repro.serve.metrics` — per-request records folded into a
  :class:`ServingReport` (throughput, p50/p95/p99 latency, queue delay,
  per-device-group utilisation, SLO attainment);
* :mod:`repro.serve.experiment` — table-producing harnesses for the
  ``ios-bench serve`` subcommand and the benchmark suite.

Quick start::

    from repro.serve import (
        BatchPolicy, InferenceService, ServingConfig, TrafficConfig,
        TrafficGenerator,
    )

    config = ServingConfig(model="inception_v3", fleet="k80:2,v100:4",
                           registry_root="schedules/")
    service = InferenceService(config)
    service.warmup()    # one compile fan-out per device type; then artifacts
    requests = TrafficGenerator(TrafficConfig(num_requests=500)).generate()
    print(service.run(requests).describe())

SLO-aware serving (deadlines, load shedding, elastic pools)::

    config = ServingConfig(model="inception_v3", devices=("v100",),
                           admission="deadline", autoscale="1:4")
    traffic = TrafficConfig(pattern="bursty", slo_ms=50.0, num_requests=500)
    report = InferenceService(config).run(TrafficGenerator(traffic).generate())
    print(report.slo_summary.describe())
"""

from .admission import (
    ADMISSION_POLICIES,
    AdmissionDecision,
    AdmissionPolicy,
    AdmitAll,
    DeadlineAwareAdmission,
    PriorityAdmission,
    get_admission_policy,
    list_admission_policies,
)
from .autoscale import AutoscaleConfig, Autoscaler, ScaleEvent
from .batcher import BatchPolicy, BatchSizeSelector
from .experiment import (
    run_fleet_comparison,
    run_serving,
    run_serving_comparison,
    run_slo_comparison,
)
from .fleet import (
    ROUTERS,
    FleetSpec,
    RankingRouter,
    RoundRobinRouter,
    Router,
    get_router,
    list_routers,
)
from .loop import LoopResult, LoopState, ServingLoop
from .metrics import (
    BurstSlo,
    LatencySummary,
    PriorityClassSlo,
    ReportFold,
    ServingReport,
    SloSummary,
    build_report,
    build_slo_summary,
)
from .registry import (
    RegistryStats,
    ScheduleRegistry,
    model_dirname,
)
from .request import (
    FormedBatch,
    InferenceRequest,
    RejectedRequest,
    RequestRecord,
)
from .service import InferenceService, ServingConfig
from .traffic import (
    TrafficConfig,
    TrafficGenerator,
    bursty_arrival_bursts,
    bursty_arrivals,
    poisson_arrivals,
    uniform_arrivals,
)
from .workers import DispatchResult, Worker, WorkerPool

__all__ = [
    "ADMISSION_POLICIES",
    "AdmissionDecision",
    "AdmissionPolicy",
    "AdmitAll",
    "AutoscaleConfig",
    "Autoscaler",
    "BatchPolicy",
    "BatchSizeSelector",
    "BurstSlo",
    "DeadlineAwareAdmission",
    "DispatchResult",
    "FleetSpec",
    "FormedBatch",
    "InferenceRequest",
    "InferenceService",
    "LatencySummary",
    "LoopResult",
    "LoopState",
    "PriorityAdmission",
    "PriorityClassSlo",
    "ROUTERS",
    "RankingRouter",
    "RegistryStats",
    "RejectedRequest",
    "ReportFold",
    "RequestRecord",
    "RoundRobinRouter",
    "Router",
    "ScaleEvent",
    "ScheduleRegistry",
    "ServingConfig",
    "ServingLoop",
    "ServingReport",
    "SloSummary",
    "TrafficConfig",
    "TrafficGenerator",
    "Worker",
    "WorkerPool",
    "build_report",
    "build_slo_summary",
    "bursty_arrival_bursts",
    "bursty_arrivals",
    "get_admission_policy",
    "get_router",
    "list_admission_policies",
    "list_routers",
    "model_dirname",
    "poisson_arrivals",
    "run_fleet_comparison",
    "run_serving",
    "run_serving_comparison",
    "run_slo_comparison",
    "uniform_arrivals",
]
