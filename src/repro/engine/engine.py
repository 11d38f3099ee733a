"""The Engine: one staged compile pipeline behind every entry point.

``Engine(device, ...)`` fixes the compilation environment — device, kernel
profile, IOS variant / pruning, optional pass pipeline — and
``engine.compile(graph)`` runs the explicit staged pipeline

    Graph --[passes]--> optimized Graph --[schedule]--> Schedule
          --[lower]--> ExecutionPlan

returning a :class:`~repro.engine.compiled.CompiledModel` that carries every
artifact plus per-stage timing.  Compiles are memoised per graph identity
(name + node names + structural fingerprint), so repeated compiles of the
same structure — every figure run, every serve-ladder rung, every framework
comparison — pay for the DP search once per engine.

:func:`get_engine` maintains a process-wide pool of engines keyed by
``(device, variant, pruning, profile, passes)``; the experiment harness and
the CLI fetch engines from it so the compile cache is shared across figure
runs in one process.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path

from ..core.cost_model import SimulatedCostModel
from ..core.dp_scheduler import (
    IOSScheduler,
    SchedulerConfig,
    normalize_variant,
    resolve_compile_jobs,
    variant_label,
)
from ..core.endings import PruningStrategy
from ..core.lowering import lower_schedule
from ..hardware.device import DeviceSpec, get_device
from ..hardware.kernel import CUDNN_PROFILE, KernelProfile
from ..ir.graph import Graph
from ..obs.trace import NULL_TRACER, Tracer
from .compiled import CompiledModel, CompileStats, StageTiming
from .stages import apply_passes, graph_identity

__all__ = ["Engine", "EngineStats", "get_engine", "get_engines", "clear_engine_pool"]


@dataclass
class EngineStats:
    """Where an engine's compile requests were satisfied.

    ``searches`` counts compiles that actually ran the DP search — the
    expensive event the cache and artifact loading exist to avoid.
    ``block_searches`` breaks those compiles down: that many blocks were
    searched (inline or in a worker process); the rest came from the
    scheduler's block cache (or were empty).
    """

    compiles: int = 0
    cache_hits: int = 0
    searches: int = 0
    loads: int = 0
    block_searches: int = 0

    def as_dict(self) -> dict[str, int]:
        """All counters as one flat dict (reports, benchmarks)."""
        return {
            "compiles": self.compiles,
            "cache_hits": self.cache_hits,
            "searches": self.searches,
            "loads": self.loads,
            "block_searches": self.block_searches,
        }


class Engine:
    """Staged compile pipeline for one (device, variant, profile) environment.

    Parameters
    ----------
    device:
        Device preset name or a :class:`~repro.hardware.device.DeviceSpec`.
    passes:
        Pass stage configuration: ``False`` (default) compiles graphs as
        given, ``True`` runs :func:`repro.passes.default_pipeline` first, a
        :class:`~repro.passes.PassManager` (or list of pass names) runs that
        pipeline.
    variant:
        IOS variant (any spelling :func:`~repro.core.normalize_variant`
        accepts); default ``ios-both``.
    pruning:
        Optional :class:`~repro.core.endings.PruningStrategy` override.
    config:
        Full :class:`~repro.core.SchedulerConfig`; mutually exclusive with
        ``variant``/``pruning``.
    profile:
        Kernel-library profile for both the search cost model and execution.
    scheduler:
        Inject a pre-built :class:`~repro.core.IOSScheduler` (tests and the
        serve registry's ``scheduler_factory`` use this); its config becomes
        the engine's config.
    jobs:
        Worker processes for cold multi-block searches: ``1`` is serial,
        ``N > 1`` searches independent blocks in ``N`` processes, ``0`` /
        ``"auto"`` uses every CPU.  ``None`` (default) reads the
        ``REPRO_COMPILE_JOBS`` environment variable at each compile.
        Schedules are identical either way.
    tracer:
        Optional :class:`~repro.obs.Tracer`; each compile then records its
        Graph → Schedule → Plan stages as wall-clock spans on the
        ``compile/stages`` track (pass iterations land on ``compile/passes``).
        The default :data:`~repro.obs.trace.NULL_TRACER` records nothing and
        costs one truth test per compile.  The attribute is mutable — the
        serving registry re-points pooled engines at the run's tracer.

    Example::

        from repro.engine import Engine
        from repro.frontend import load

        engine = Engine("v100", passes=True)
        compiled = engine.compile(load("inception_v3"))
        print(compiled.latency_ms(), compiled.stats.describe())
        compiled.save("inception.compiled.json")   # warm-start artifact
    """

    def __init__(
        self,
        device: str | DeviceSpec,
        *,
        passes=False,
        variant: str | None = None,
        pruning: PruningStrategy | None = None,
        config: SchedulerConfig | None = None,
        profile: KernelProfile = CUDNN_PROFILE,
        scheduler: IOSScheduler | None = None,
        tracer: Tracer | None = None,
        jobs: int | str | None = None,
    ):
        self.device = get_device(device) if isinstance(device, str) else device
        self.profile = profile
        self.passes = passes
        self.jobs = jobs
        self.tracer = tracer if tracer is not None else NULL_TRACER
        if scheduler is not None:
            if config is not None or variant is not None or pruning is not None:
                raise ValueError("pass either scheduler= or config=/variant=/pruning=, not both")
            self.scheduler = scheduler
            self.config = scheduler.config
            self.variant = variant_label(self.config)
        else:
            if config is not None:
                if variant is not None or pruning is not None:
                    raise ValueError("pass either config= or variant=/pruning=, not both")
                self.config = config
                self.variant = variant_label(config)
            else:
                self.variant = normalize_variant(variant or "ios-both")
                self.config = SchedulerConfig.variant(self.variant, pruning=pruning)
            self.scheduler = IOSScheduler(
                SimulatedCostModel(self.device, profile), self.config
            )
        self.stats = EngineStats()
        self._cache: dict[tuple[str, str, str], CompiledModel] = {}

    # ------------------------------------------------------------ properties
    @property
    def cost_model(self):
        """The scheduler's cost model (cumulative measurement accounting)."""
        return self.scheduler.cost_model

    # --------------------------------------------------------------- compile
    def compile(self, graph: Graph) -> CompiledModel:
        """Run the staged pipeline on ``graph`` and return the compiled model.

        Cache hits return the previously compiled model object — treat it as
        immutable, exactly like a built model graph.
        """
        tracer = self.tracer
        key = graph_identity(graph)
        cached = self._cache.get(key)
        if cached is not None:
            self.stats.cache_hits += 1
            if tracer:
                tracer.instant(
                    "compile-cache-hit", "compile/stages", category="compile",
                    args={"graph": graph.name, "device": self.device.name},
                )
            return cached

        timings: list[StageTiming] = []
        operators_in = len(graph.schedulable_names())

        # Stage 1: Graph -> optimized Graph.
        span_start = tracer.now_ms() if tracer else 0.0
        start = time.perf_counter()
        optimized, pass_stats = apply_passes(graph, self.passes, tracer=tracer)
        operators_out = (
            len(optimized.schedulable_names()) if optimized is not graph else operators_in
        )
        details = {
            "enabled": bool(self.passes),
            "operators_in": operators_in,
            "operators_out": operators_out,
            "rewrites": sum(s.rewrites for s in pass_stats) if pass_stats else 0,
        }
        timings.append(StageTiming("passes", time.perf_counter() - start, details))
        if tracer:
            tracer.add_span(
                "passes", "compile/stages", span_start, tracer.now_ms(),
                category="compile", args={"graph": graph.name, **details},
            )

        # Stage 2: optimized Graph -> Schedule (the DP search).
        span_start = tracer.now_ms() if tracer else 0.0
        start = time.perf_counter()
        jobs = resolve_compile_jobs(self.jobs)
        result = self.scheduler.optimize_graph(optimized, jobs=jobs)
        if pass_stats is not None:
            result.pass_stats = pass_stats
        # Taken from the block stats, not the cost model's counters: blocks
        # searched in worker processes measured on the workers' clones.
        num_measurements = result.total_measurements
        num_pruned = result.total_pruned
        profiling_gpu_ms = result.total_profiling_ms
        block_searches = sum(
            1 for stats in result.block_stats if stats.source in ("search", "parallel")
        )
        self.stats.block_searches += block_searches
        details = {
            "blocks": len(result.block_stats),
            "transitions": result.total_transitions,
            "measurements": num_measurements,
            "pruned": num_pruned,
            "predicted_latency_ms": result.predicted_latency_ms,
            "block_searches": block_searches,
            # Always 0: kept so readers of this detail (the bench harness,
            # pinned trace digests) see the same keys.
            "block_memo_hits": 0,
            "jobs": jobs,
        }
        timings.append(StageTiming("schedule", time.perf_counter() - start, details))
        if tracer:
            tracer.add_span(
                "schedule", "compile/stages", span_start, tracer.now_ms(),
                category="compile",
                args={"graph": graph.name, "device": self.device.name, **details},
            )

        # Stage 3: Schedule -> ExecutionPlan.
        span_start = tracer.now_ms() if tracer else 0.0
        start = time.perf_counter()
        plan = lower_schedule(optimized, result.schedule)
        details = {"stages": plan.num_stages(), "kernel_operators": plan.num_kernel_operators()}
        timings.append(StageTiming("lower", time.perf_counter() - start, details))
        if tracer:
            tracer.add_span(
                "lower", "compile/stages", span_start, tracer.now_ms(),
                category="compile", args={"graph": graph.name, **details},
            )

        source_fingerprint = key[2]
        stats = CompileStats(
            stages=timings,
            source_fingerprint=source_fingerprint,
            optimized_fingerprint=(
                optimized.fingerprint() if optimized is not graph else source_fingerprint
            ),
            operators_in=operators_in,
            operators_out=operators_out,
            num_measurements=num_measurements,
            num_pruned=num_pruned,
            profiling_gpu_ms=profiling_gpu_ms,
        )
        compiled = CompiledModel(
            graph=optimized,
            schedule=result.schedule,
            plan=plan,
            device=self.device,
            profile=self.profile,
            variant=self.variant,
            stats=stats,
            source_graph_name=key[0],
            source_node_digest=key[1],
            source_fingerprint=source_fingerprint,
            fingerprint=stats.optimized_fingerprint,
            search=result,
        )
        self.stats.compiles += 1
        self.stats.searches += 1
        self._cache[key] = compiled
        return compiled

    def compile_model(self, name: str, batch_size: int = 1, **kwargs) -> CompiledModel:
        """Build a zoo model and compile it (convenience wrapper)."""
        from ..frontend import load

        return self.compile(load(name, batch_size=batch_size, **kwargs))

    # ------------------------------------------------------------ warm start
    def load(self, path: str | Path) -> CompiledModel:
        """Warm-start: load a persisted artifact into this engine's cache.

        The artifact must have been compiled for this engine's device, kernel
        profile, variant and pruning strategy — reusing a schedule searched
        for different hardware or a different search space would silently
        serve the wrong plan.  A loaded artifact serves exactly the graph it
        was compiled for.
        """
        import json

        data = json.loads(Path(path).read_text())
        saved_device = data.get("device") if isinstance(data, dict) else None
        if saved_device != self.device.name:
            raise ValueError(
                f"artifact {path} was compiled for device {saved_device!r}; "
                f"this engine compiles for {self.device.name!r}"
            )
        saved_profile = data.get("profile") if isinstance(data, dict) else None
        if saved_profile != self.profile.name:
            raise ValueError(
                f"artifact {path} was compiled with kernel profile "
                f"{saved_profile!r}; this engine compiles with {self.profile.name!r}"
            )
        compiled = CompiledModel.from_dict(data, device=self.device, profile=self.profile)
        if compiled.variant != self.variant:
            raise ValueError(
                f"artifact {path} was compiled for variant {compiled.variant!r}; "
                f"this engine compiles {self.variant!r}"
            )
        # The schedule's origin reads "<variant> (<pruning>)", e.g.
        # "ios-both (r=1, s=1)": a search under a tighter pruning strategy is
        # a different (usually slower) schedule, not a warm start.
        saved_pruning = compiled.schedule.origin.partition(" (")[2].rstrip(")")
        pruning = self.config.pruning.describe()
        if saved_pruning != pruning:
            raise ValueError(
                f"artifact {path} was searched with pruning {saved_pruning!r} "
                f"(field 'schedule.origin'); this engine searches with {pruning!r}"
            )
        self.stats.loads += 1
        self._cache[
            (compiled.source_graph_name, compiled.source_node_digest, compiled.source_fingerprint)
        ] = compiled
        return compiled

    # ----------------------------------------------------------------- cache
    def cached(self, graph: Graph) -> CompiledModel | None:
        """The cached compiled model for ``graph``, if any (no compilation)."""
        return self._cache.get(graph_identity(graph))

    def compiled_models(self) -> list[CompiledModel]:
        """Every model in the compile cache, compiled here or loaded."""
        return list(self._cache.values())

    def clear_cache(self) -> None:
        """Drop every cached compiled model (the stats counters remain)."""
        self._cache.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"Engine(device={self.device.name!r}, variant={self.variant!r}, "
            f"passes={bool(self.passes)}, cached={len(self._cache)})"
        )


# --------------------------------------------------------------------------- #
# Process-wide engine pool                                                     #
# --------------------------------------------------------------------------- #
_ENGINE_POOL: dict[tuple, Engine] = {}


def _passes_pool_key(passes):
    if isinstance(passes, bool):
        return passes
    if isinstance(passes, (list, tuple)) and all(isinstance(p, str) for p in passes):
        return tuple(passes)
    signature = getattr(passes, "signature", None)
    if callable(signature):
        return ("manager", signature())
    raise TypeError(
        "get_engine() pools engines only for passes given as a bool, a list of "
        "pass names, or a PassManager; construct Engine(...) directly instead"
    )


def get_engine(
    device: str | DeviceSpec,
    *,
    passes=False,
    variant: str | None = None,
    pruning: PruningStrategy | None = None,
    profile: KernelProfile = CUDNN_PROFILE,
) -> Engine:
    """One engine per (device, variant, pruning, profile, passes), pooled.

    Experiments, the CLI and the one-call conveniences fetch engines here so
    that every figure run in a process shares one compile cache per
    environment.  Engines are stateful but deterministic; sharing is safe.
    """
    spec = get_device(device) if isinstance(device, str) else device
    label = normalize_variant(variant or "ios-both")
    prune = pruning if pruning is not None else PruningStrategy(3, 8)
    # Key on the frozen DeviceSpec itself, not its name: a tweaked preset
    # (e.g. get_device("v100").scaled(num_sms=40)) must never alias the real
    # one.  KernelProfile holds a dict (unhashable), so it is keyed by name
    # plus object identity — the pooled engine keeps the profile alive, so
    # the id cannot be recycled while the entry exists.
    key = (spec, label, prune, (profile.name, id(profile)), _passes_pool_key(passes))
    engine = _ENGINE_POOL.get(key)
    if engine is None:
        engine = Engine(spec, passes=passes, variant=label, pruning=prune, profile=profile)
        _ENGINE_POOL[key] = engine
    return engine


def get_engines(
    devices,
    *,
    passes=False,
    variant: str | None = None,
    pruning: PruningStrategy | None = None,
    profile: KernelProfile = CUDNN_PROFILE,
) -> dict[str, Engine]:
    """Pooled engines for several devices at once (fleet compile fan-out).

    The multi-device companion of :func:`get_engine`: resolves each entry of
    ``devices`` (names, :class:`~repro.hardware.device.DeviceSpec` objects,
    or a :class:`~repro.serve.fleet.FleetSpec` — anything with
    ``device_types()``) and returns ``{device_name: Engine}`` in a stable
    order, deduplicating replicas.  Compiling one graph through every engine
    of a mixed fleet yields the per-device
    :class:`~repro.engine.compiled.CompiledModel` set that device-aware
    routing predicts latencies from.

    Parameters
    ----------
    devices:
        Iterable of device names/specs, or an object exposing
        ``device_types()`` (e.g. ``FleetSpec.parse("k80:2,v100:4")``).
    passes, variant, pruning, profile:
        Shared compile environment, exactly as :func:`get_engine`.
    """
    device_types = getattr(devices, "device_types", None)
    if callable(device_types):
        devices = device_types()
    engines: dict[str, Engine] = {}
    for device in devices:
        spec = get_device(device) if isinstance(device, str) else device
        if spec.name not in engines:
            engines[spec.name] = get_engine(
                spec, passes=passes, variant=variant, pruning=pruning, profile=profile
            )
    return engines


def clear_engine_pool() -> None:
    """Drop every pooled engine (tests and benchmarks)."""
    _ENGINE_POOL.clear()
