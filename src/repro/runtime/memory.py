"""GPU memory planner.

Frameworks differ in how much device memory one inference needs: weights are
always resident, activations may or may not be freed as soon as their last
consumer ran, and libraries reserve extra workspace (cuDNN algorithm
workspaces, graph-substitution buffers, ...).  This planner reproduces the one
memory-related observation in the paper: *TASO runs out of memory on Inception
V3 at batch size 128 on the 16 GB V100* (Figure 11) and on RandWire/NasNet on
the 11 GB RTX 2080Ti (Appendix B), while the other frameworks fit.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..hardware.device import DeviceSpec
from ..ir.graph import Graph

__all__ = ["MemoryPlan", "MemoryPlanner", "OutOfMemoryError"]


class OutOfMemoryError(RuntimeError):
    """Raised when a plan does not fit in the device's DRAM."""


@dataclass(frozen=True)
class MemoryPlan:
    """Estimated device-memory footprint of running one graph."""

    graph_name: str
    weight_bytes: int
    peak_activation_bytes: int
    workspace_bytes: int
    framework_overhead_bytes: int

    @property
    def total_bytes(self) -> int:
        return (
            self.weight_bytes
            + self.peak_activation_bytes
            + self.workspace_bytes
            + self.framework_overhead_bytes
        )

    @property
    def total_gib(self) -> float:
        return self.total_bytes / (1024**3)

    def fits(self, device: DeviceSpec) -> bool:
        return self.total_bytes <= device.memory_bytes


class MemoryPlanner:
    """Estimates peak memory for a graph under a framework's memory policy.

    Parameters
    ----------
    activation_reuse:
        If true (default), an activation is freed once its last consumer has
        executed, so the peak is the maximum *live set* over a topological
        execution order.  If false the framework keeps every intermediate
        activation alive for the whole inference (this is what makes the
        simulated TASO run out of memory at large batch sizes: its substituted
        graphs are verified against the original outputs, which requires
        retaining intermediates).
    activation_copies:
        How many copies of the activation working set the framework keeps.
        Graph-substitution engines that verify the rewritten graph against the
        original (TASO) effectively hold two copies.
    workspace_factor:
        Extra scratch space proportional to the largest single activation
        (cuDNN convolution workspaces are of this order).
    framework_overhead_bytes:
        Fixed allocator/runtime overhead (CUDA context, cuDNN handles, ...).
    """

    def __init__(
        self,
        activation_reuse: bool = True,
        activation_copies: int = 1,
        workspace_factor: float = 1.0,
        framework_overhead_bytes: int = 600 * 1024 * 1024,
    ):
        if activation_copies < 1:
            raise ValueError("activation_copies must be >= 1")
        if workspace_factor < 0:
            raise ValueError("workspace_factor must be non-negative")
        if framework_overhead_bytes < 0:
            raise ValueError("framework_overhead_bytes must be non-negative")
        self.activation_reuse = activation_reuse
        self.activation_copies = activation_copies
        self.workspace_factor = workspace_factor
        self.framework_overhead_bytes = framework_overhead_bytes

    # ----------------------------------------------------------------- planning
    def plan(self, graph: Graph) -> MemoryPlan:
        """Estimate the memory footprint of one inference of ``graph``."""
        weight_bytes = graph.total_weight_bytes()
        order = graph.topological_order()
        output_bytes = {name: graph.nodes[name].output_bytes() for name in order}

        if not self.activation_reuse:
            peak_activations = sum(output_bytes.values())
        else:
            # Liveness analysis: a tensor is live from its producer's position
            # until its last consumer's position (or the end, for outputs).
            position = {name: idx for idx, name in enumerate(order)}
            last_use: dict[str, int] = {}
            for name in order:
                last_use[name] = position[name]
                for parent in graph.nodes[name].inputs:
                    last_use[parent] = max(last_use.get(parent, 0), position[name])
            for name in graph.output_names():
                last_use[name] = len(order)

            peak_activations = 0
            live = 0
            expiring: dict[int, int] = {}
            for idx, name in enumerate(order):
                live += output_bytes[name]
                expire_at = last_use[name] + 1
                expiring[expire_at] = expiring.get(expire_at, 0) + output_bytes[name]
                peak_activations = max(peak_activations, live)
                live -= expiring.pop(idx + 1, 0)

        largest_activation = max(output_bytes.values(), default=0)
        workspace = int(self.workspace_factor * largest_activation)
        return MemoryPlan(
            graph_name=graph.name,
            weight_bytes=int(weight_bytes),
            peak_activation_bytes=int(peak_activations) * self.activation_copies,
            workspace_bytes=workspace,
            framework_overhead_bytes=self.framework_overhead_bytes,
        )

    def check(self, graph: Graph, device: DeviceSpec) -> MemoryPlan:
        """Plan and raise :class:`OutOfMemoryError` if the plan does not fit."""
        plan = self.plan(graph)
        if not plan.fits(device):
            raise OutOfMemoryError(
                f"{graph.name} needs {plan.total_gib:.2f} GiB but {device.name} has "
                f"{device.memory_gb:.0f} GiB"
            )
        return plan
