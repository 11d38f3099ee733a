"""IOS packaged with the same interface as the baseline frameworks.

Experiments that compare frameworks (Figures 7, 11, 12, 15) treat IOS as "one
more execution engine".  Since the engine redesign this class is a thin
adapter over :class:`repro.engine.Engine`: one engine per device, compiled
models cached per graph fingerprint, so repeated executions (e.g. the
batch-size sweep of Figure 11) never re-run the search — exactly the paper's
setup, where the IOS execution engine is built on cuDNN and only the
*schedule* differs from the baselines.
"""

from __future__ import annotations

from ..core.dp_scheduler import SchedulerConfig
from ..core.schedule import Schedule
from ..engine import CompileStats, Engine
from ..hardware.device import DeviceSpec
from ..hardware.kernel import CUDNN_PROFILE, KernelProfile
from ..ir.graph import Graph
from ..runtime.memory import MemoryPlanner
from .base import FrameworkResult

__all__ = ["IOSEngine"]


class IOSEngine:
    """IOS compile pipeline behind the framework interface.

    Unlike :class:`~repro.frameworks.base.FrameworkModel` subclasses, the IOS
    engine is stateful: it keeps one :class:`repro.engine.Engine` per device,
    whose compile cache guarantees a given (graph structure, device) is
    searched at most once.
    """

    name = "ios"

    def __init__(
        self,
        config: SchedulerConfig | None = None,
        profile: KernelProfile = CUDNN_PROFILE,
    ):
        self.config = config or SchedulerConfig()
        self.profile = profile
        self.memory_planner = MemoryPlanner(
            activation_reuse=True, workspace_factor=1.2, framework_overhead_bytes=600 * 1024**2
        )
        self._engines: dict[str, Engine] = {}

    # ------------------------------------------------------------------ engine
    def engine_for(self, device: DeviceSpec) -> Engine:
        """The compile engine bound to ``device`` (created on first use)."""
        if device.name not in self._engines:
            self._engines[device.name] = Engine(
                device, config=self.config, profile=self.profile
            )
        return self._engines[device.name]

    def _compile_stats(self) -> list[CompileStats]:
        # The compiled models' stats, not the cost models' counters: blocks
        # searched in worker processes measured on the workers' clones.
        return [
            compiled.stats
            for engine in self._engines.values()
            for compiled in engine.compiled_models()
        ]

    @property
    def total_profiling_ms(self) -> float:
        """Simulated GPU time spent profiling candidate stages, all devices."""
        return sum(stats.profiling_gpu_ms for stats in self._compile_stats())

    @property
    def total_measurements(self) -> int:
        return sum(stats.num_measurements for stats in self._compile_stats())

    # ------------------------------------------------------------------ search
    def optimize(self, graph: Graph, device: DeviceSpec) -> Schedule:
        """Run (or reuse) the IOS compile for ``graph`` on ``device``."""
        return self.engine_for(device).compile(graph).schedule

    def optimization_cost_gpu_hours(self, graph: Graph) -> float:
        """Simulated GPU hours spent profiling so far (Figure 12's cost axis)."""
        return self.total_profiling_ms / 3.6e6

    # ----------------------------------------------------------------- running
    def run(self, graph: Graph, device: DeviceSpec) -> FrameworkResult:
        """Compile (cached) and execute one inference of ``graph``."""
        memory_plan = self.memory_planner.plan(graph)
        if not memory_plan.fits(device):
            return FrameworkResult(
                framework=self.name,
                network=graph.name,
                batch_size=graph.batch_size,
                latency_ms=float("inf"),
                throughput=0.0,
                out_of_memory=True,
                peak_memory_gib=memory_plan.total_gib,
            )
        compiled = self.engine_for(device).compile(graph)
        return FrameworkResult(
            framework=self.name,
            network=graph.name,
            batch_size=graph.batch_size,
            latency_ms=compiled.latency_ms(),
            throughput=compiled.throughput(),
            out_of_memory=False,
            peak_memory_gib=memory_plan.total_gib,
        )

    def latency_ms(self, graph: Graph, device: DeviceSpec) -> float:
        return self.run(graph, device).latency_ms
