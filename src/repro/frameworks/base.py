"""Framework-model base class.

The paper compares IOS against five cuDNN-based frameworks (TensorFlow,
TensorFlow-XLA, TASO, TVM-cuDNN, TensorRT) plus TVM with auto-tuned kernels.
None of these can be run in this environment, so each baseline is modelled by
the three properties that actually determine its inference latency in the
paper's setting:

1. **graph transformations** it applies before execution (operator fusion,
   same-type merges, ...);
2. the **kernel library** it executes with (a
   :class:`~repro.hardware.kernel.KernelProfile` describing per-operator-type
   efficiency);
3. **runtime overheads**: how expensive its kernel launches are and how much
   fixed per-inference framework time it adds;

plus a **memory policy** used by the planner to decide whether an inference
fits on the device at all (this is how the TASO out-of-memory result at batch
size 128 is reproduced).

All baselines execute *sequentially* — none of them exploits inter-operator
parallelism, which is precisely the gap IOS fills.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..hardware.device import DeviceSpec
from ..hardware.kernel import KernelProfile
from ..ir.graph import Graph
from ..runtime.executor import ExecutionPlan, ExecutionResult, ExecutionStage, Executor
from ..runtime.memory import MemoryPlanner, OutOfMemoryError

__all__ = ["FrameworkModel", "FrameworkResult"]


@dataclass(frozen=True)
class FrameworkResult:
    """Outcome of running one network in one simulated framework."""

    framework: str
    network: str
    batch_size: int
    latency_ms: float
    throughput: float
    out_of_memory: bool = False
    peak_memory_gib: float = 0.0


class FrameworkModel:
    """A simulated deep-learning inference framework.

    Subclasses override :meth:`transform` (graph rewriting) and provide the
    kernel profile / overheads via the constructor.
    """

    #: Human-readable framework name (used in figures).
    name: str = "framework"

    def __init__(
        self,
        profile: KernelProfile,
        per_inference_overhead_ms: float = 0.0,
        activation_reuse: bool = True,
        activation_copies: int = 1,
        workspace_factor: float = 1.0,
        framework_overhead_bytes: int = 600 * 1024 * 1024,
    ):
        self.profile = profile
        self.per_inference_overhead_ms = per_inference_overhead_ms
        self.memory_planner = MemoryPlanner(
            activation_reuse=activation_reuse,
            activation_copies=activation_copies,
            workspace_factor=workspace_factor,
            framework_overhead_bytes=framework_overhead_bytes,
        )

    # ------------------------------------------------------------ graph rewriting
    def transform(self, graph: Graph) -> ExecutionPlan:
        """Lower a graph to this framework's execution plan.

        The default is plain sequential execution of the graph's operators;
        frameworks with graph optimisations override this.
        """
        return self._sequential_plan(graph)

    def _sequential_plan(self, graph: Graph) -> ExecutionPlan:
        plan = ExecutionPlan(name=f"{graph.name}:{self.name}", batch_size=graph.batch_size)
        for op_name in graph.topological_order():
            op = graph.nodes[op_name]
            if op.kind == "placeholder":
                continue
            plan.stages.append(
                ExecutionStage(groups=[[op]], strategy="sequential", label=op_name)
            )
        return plan

    # ------------------------------------------------------------------ running
    def run(self, graph: Graph, device: DeviceSpec) -> FrameworkResult:
        """Simulate one inference of ``graph`` on ``device`` with this framework."""
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
        plan = self.transform(graph)
        executor = Executor(device, self.profile)
        result: ExecutionResult = executor.run(plan)
        latency = result.latency_ms + self.per_inference_overhead_ms
        throughput = graph.batch_size / (latency / 1e3) if latency > 0 else 0.0
        return FrameworkResult(
            framework=self.name,
            network=graph.name,
            batch_size=graph.batch_size,
            latency_ms=latency,
            throughput=throughput,
            out_of_memory=False,
            peak_memory_gib=memory_plan.total_gib,
        )

    def latency_ms(self, graph: Graph, device: DeviceSpec) -> float:
        """Latency of one inference; raises if the network does not fit."""
        result = self.run(graph, device)
        if result.out_of_memory:
            raise OutOfMemoryError(
                f"{self.name} ran out of memory on {graph.name} "
                f"(needs {result.peak_memory_gib:.1f} GiB)"
            )
        return result.latency_ms

    #: Optimisation cost in GPU hours charged by the framework's auto-tuner
    #: for a whole network (zero for everything except TVM-AutoTune; IOS's own
    #: cost is reported by the scheduler).  Used by Figure 12.
    def optimization_cost_gpu_hours(self, graph: Graph) -> float:
        return 0.0
