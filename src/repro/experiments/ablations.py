"""Ablations of this reproduction's own design choices (DESIGN.md Section 5).

Two ablations beyond the paper's figures:

* **Cost-model ablation** — the DP can be driven either by the full contention
  simulator (:class:`~repro.core.cost_model.SimulatedCostModel`) or by the
  naive FLOPs-proportional model (:class:`~repro.core.cost_model.FlopsCostModel`)
  that ignores occupancy, contention and launch overheads.  Schedules found
  with the naive model are then *evaluated* on the full simulator; the quality
  gap quantifies how much a contention-aware cost model matters.
* **Block-wise vs whole-graph ablation** — IOS optimises block by block
  (Section 4.2).  For networks small enough to search globally we flatten all
  blocks into one and compare the resulting latency and search cost against
  the block-wise search.
"""

from __future__ import annotations

from typing import Sequence

from ..core.cost_model import FlopsCostModel
from ..core.dp_scheduler import IOSScheduler, SchedulerConfig
from ..core.endings import PruningStrategy
from ..engine import Engine
from ..hardware.device import DeviceSpec
from ..ir.graph import Graph
from .runner import ExperimentContext, default_context
from ..tables import ExperimentTable

__all__ = ["run_cost_model_ablation", "run_blockwise_ablation", "flatten_blocks"]


def flatten_blocks(graph: Graph) -> Graph:
    """Clone a graph with every operator in one single block.

    Used by the whole-graph ablation: the flattened graph forces the DP to
    consider the entire network as one scheduling problem.
    """
    clone = Graph(f"{graph.name}_flat")
    single_block = clone.add_block("whole_graph")
    from ..ir.ops import Placeholder, operator_from_config

    for name, op in graph.nodes.items():
        if isinstance(op, Placeholder):
            clone.add_node(Placeholder(name, op.output_shape))
        else:
            clone.add_node(operator_from_config(op.to_config()), single_block)
    return clone


def run_cost_model_ablation(
    models: Sequence[str] = ("inception_v3", "squeezenet"),
    device: str | DeviceSpec = "v100",
    batch_size: int = 1,
    context: ExperimentContext | None = None,
) -> ExperimentTable:
    """Schedules searched with a naive FLOPs cost model vs the contention simulator."""
    ctx = context or default_context(device)
    table = ExperimentTable(
        experiment_id="ablation_cost_model",
        title="Ablation: contention-aware vs FLOPs-proportional cost model",
        columns=[
            "network",
            "simulated_cost_model_ms",
            "flops_cost_model_ms",
            "quality_gap_percent",
        ],
        notes=(
            "both schedules are evaluated on the full contention simulator; the gap is the "
            "latency penalty of searching with a model that ignores occupancy and contention"
        ),
    )
    for model_name in models:
        graph = ctx.graph(model_name, batch_size)
        contention_run = ctx.run_schedule(graph, "ios-both")

        # The naive search injects its cost model into the engine; the
        # compiled model still *evaluates* on the full contention simulator.
        naive_engine = Engine(
            ctx.device,
            profile=ctx.profile,
            scheduler=IOSScheduler(
                FlopsCostModel(flops_per_ms=ctx.device.peak_flops_per_ms),
                SchedulerConfig(pruning=ctx.pruning),
            ),
        )
        naive_latency = naive_engine.compile(graph).latency_ms()

        gap = (naive_latency / contention_run.latency_ms - 1.0) * 100.0
        table.add_row(
            network=model_name,
            simulated_cost_model_ms=contention_run.latency_ms,
            flops_cost_model_ms=naive_latency,
            quality_gap_percent=gap,
        )
    return table


def run_blockwise_ablation(
    models: Sequence[str] = ("squeezenet", "figure2_block"),
    device: str | DeviceSpec = "v100",
    batch_size: int = 1,
    pruning: PruningStrategy | None = None,
    context: ExperimentContext | None = None,
) -> ExperimentTable:
    """Block-wise DP vs whole-graph DP on small networks."""
    ctx = context or default_context(device)
    pruning = pruning or PruningStrategy(max_group_size=3, max_groups=8)
    table = ExperimentTable(
        experiment_id="ablation_blockwise",
        title="Ablation: block-wise vs whole-graph dynamic programming",
        columns=[
            "network",
            "blockwise_ms",
            "whole_graph_ms",
            "blockwise_transitions",
            "whole_graph_transitions",
            "latency_ratio",
        ],
        notes=(
            "whole-graph search explores far more states for (at most) marginal latency gains, "
            "which is why the paper optimises block by block"
        ),
    )
    engine = ctx.engine(pruning=pruning)
    for model_name in models:
        graph = ctx.graph(model_name, batch_size)

        blockwise = engine.compile(graph)
        blockwise_latency = blockwise.latency_ms()

        whole = engine.compile(flatten_blocks(graph))
        whole_latency = whole.latency_ms()

        table.add_row(
            network=model_name,
            blockwise_ms=blockwise_latency,
            whole_graph_ms=whole_latency,
            blockwise_transitions=blockwise.schedule_result().total_transitions,
            whole_graph_transitions=whole.schedule_result().total_transitions,
            latency_ratio=whole_latency / blockwise_latency if blockwise_latency else float("nan"),
        )
    return table
