"""FLOPs and memory accounting utilities.

These helpers power Figure 1 (the trend of average FLOPs per convolution and
number of convolutions across CNN generations), the per-stage GFLOPs /
utilisation annotations of Figure 2, and the roofline inputs of the hardware
model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .graph import Block, Graph
from .ops import Operator

__all__ = [
    "OperatorCost",
    "operator_cost",
    "graph_cost_breakdown",
    "block_flops",
    "ConvStatistics",
    "conv_statistics",
    "arithmetic_intensity",
]


@dataclass(frozen=True)
class OperatorCost:
    """FLOPs and memory traffic of a single operator."""

    name: str
    kind: str
    flops: int
    memory_bytes: int
    weight_bytes: int
    output_bytes: int

    @property
    def arithmetic_intensity(self) -> float:
        """FLOPs per byte of DRAM traffic (the roofline x-axis)."""
        if self.memory_bytes == 0:
            return 0.0
        return self.flops / self.memory_bytes


def operator_cost(op: Operator) -> OperatorCost:
    """Compute the :class:`OperatorCost` of a bound operator."""
    return OperatorCost(
        name=op.name,
        kind=op.kind,
        flops=op.flops(),
        memory_bytes=op.memory_bytes(),
        weight_bytes=op.weight_bytes(),
        output_bytes=op.output_bytes(),
    )


def graph_cost_breakdown(graph: Graph) -> list[OperatorCost]:
    """Per-operator cost of every schedulable operator in the graph."""
    return [operator_cost(op) for op in graph.operators()]


def block_flops(graph: Graph, block: Block) -> int:
    """Total FLOPs of the operators in one block."""
    return sum(graph.nodes[name].flops() for name in graph.schedulable_names(block))


def arithmetic_intensity(ops: Iterable[Operator]) -> float:
    """Aggregate arithmetic intensity (FLOPs / byte) of a set of operators."""
    flops = 0
    traffic = 0
    for op in ops:
        flops += op.flops()
        traffic += op.memory_bytes()
    if traffic == 0:
        return 0.0
    return flops / traffic


@dataclass(frozen=True)
class ConvStatistics:
    """Convolution statistics of a network (Figure 1 of the paper)."""

    network: str
    num_convolutions: int
    total_conv_flops: int
    average_flops_per_conv: float
    total_flops: int

    @property
    def average_mflops_per_conv(self) -> float:
        return self.average_flops_per_conv / 1e6


def conv_statistics(graph: Graph) -> ConvStatistics:
    """Count convolutions and average FLOPs/convolution for a network.

    The paper reports (Figure 1) that the average MFLOPs per convolution
    dropped from roughly 2330 (VGG) to 82 (NasNet) while the number of
    convolutions grew, which is the motivation for inter-operator parallelism.
    """
    convs: Sequence[Operator] = graph.conv_operators()
    conv_flops = sum(op.flops() for op in convs)
    num = len(convs)
    avg = conv_flops / num if num else 0.0
    return ConvStatistics(
        network=graph.name,
        num_convolutions=num,
        total_conv_flops=conv_flops,
        average_flops_per_conv=avg,
        total_flops=graph.total_flops(),
    )
