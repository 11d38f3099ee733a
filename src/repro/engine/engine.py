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
comparison — pay for the DP search once per engine.  Engines share nothing:
whoever needs a compile cache shared across calls holds the engine (the
experiment runner's :class:`~repro.experiments.ExperimentContext`, the serving
:class:`~repro.serve.ScheduleRegistry`).
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
from .compiled import ArtifactMismatchError, CompiledModel, CompileStats, StageTiming
from .stages import apply_passes, graph_identity

__all__ = ["Engine", "EngineStats"]


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
    profile:
        Kernel-library profile for both the search cost model and execution.
    scheduler:
        Inject a pre-built :class:`~repro.core.IOSScheduler` (tests and the
        ablation experiments use this); its config becomes the engine's
        config.  Mutually exclusive with ``variant``/``pruning``.
    jobs:
        Worker processes for cold multi-block searches: ``1`` is serial,
        ``N > 1`` searches independent blocks in ``N`` processes, ``0`` uses
        every CPU.  Resolved once, here; schedules are identical either way.
    tracer:
        Optional :class:`~repro.obs.Tracer`; each compile then records its
        Graph → Schedule → Plan stages as wall-clock spans on the
        ``compile/stages`` track (pass iterations land on ``compile/passes``).
        The default :data:`~repro.obs.trace.NULL_TRACER` records nothing and
        costs one truth test per compile.  The attribute is mutable — the
        serving registry re-points its engines at the run's tracer.

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
        profile: KernelProfile = CUDNN_PROFILE,
        scheduler: IOSScheduler | None = None,
        tracer: Tracer | None = None,
        jobs: int = 1,
    ):
        self.device = get_device(device) if isinstance(device, str) else device
        self.profile = profile
        self.passes = passes
        self.jobs = resolve_compile_jobs(jobs)
        self.tracer = tracer if tracer is not None else NULL_TRACER
        if scheduler is not None:
            if variant is not None or pruning is not None:
                raise ValueError("pass either scheduler= or variant=/pruning=, not both")
            self.scheduler = scheduler
            self.config = scheduler.config
            self.variant = variant_label(self.config)
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
        result = self.scheduler.optimize_graph(optimized, jobs=self.jobs)
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
            "jobs": self.jobs,
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
    def load(self, path: str | Path, graph: Graph | None = None) -> CompiledModel:
        """Warm-start: load a persisted artifact into this engine's cache.

        A file that is not a well-formed artifact raises a :class:`ValueError`
        naming the path or the bad field.  A well-formed one must have been
        compiled in this engine's environment — device, kernel profile,
        variant, pruning strategy and whether passes ran — and, when
        ``graph`` is given, from that graph: reusing a schedule searched for
        other hardware, another search space or another graph would silently
        serve the wrong plan.  A mismatch raises
        :class:`~repro.engine.compiled.ArtifactMismatchError` naming the
        field, and the artifact does not enter the cache.  A loaded artifact
        serves exactly the graph it was compiled for.
        """
        import json

        try:
            data = json.loads(Path(path).read_text())
        except json.JSONDecodeError as error:
            raise ValueError(f"artifact {path} is not JSON: {error}") from error
        compiled = CompiledModel.from_dict(data, device=self.device, profile=self.profile)
        # The schedule's origin reads "<variant> (<pruning>)", e.g.
        # "ios-both (r=1, s=1)": a search under a tighter pruning strategy is
        # a different (usually slower) schedule, not a warm start.
        saved_pruning = compiled.schedule.origin.partition(" (")[2].rstrip(")")
        passes = compiled.stats.stage("passes")
        saved_passes = passes is not None and bool(passes.detail.get("enabled"))
        source = (
            compiled.source_graph_name, compiled.source_node_digest, compiled.source_fingerprint
        )
        checks = [
            ("device", "device", data["device"], self.device.name),
            ("profile", "kernel profile", data["profile"], self.profile.name),
            ("variant", "variant", compiled.variant, self.variant),
            ("schedule.origin", "pruning", saved_pruning, self.config.pruning.describe()),
            ("passes", "passes enabled", saved_passes, bool(self.passes)),
        ]
        if graph is not None:
            checks.append(("source", "source graph", source, graph_identity(graph)))
        for field, label, saved, expected in checks:
            if saved != expected:
                raise ArtifactMismatchError(
                    field,
                    f"artifact {path} was compiled with {label} {saved!r} "
                    f"(field {field!r}); this engine expects {expected!r}",
                )
        self.stats.loads += 1
        self._cache[source] = compiled
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

