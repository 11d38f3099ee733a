"""Figure 16 / Appendix C: block-wise speedup of IOS over the sequential schedule.

For each of the 11 Inception V3 modules the paper compares the block's latency
under the sequential schedule and under IOS: every block gets faster (up to
2.3x), later blocks more so because they are wider.
"""

from __future__ import annotations

from ..core.cost_model import SimulatedCostModel
from ..core.dp_scheduler import IOSScheduler, SchedulerConfig
from ..core.schedule import ParallelizationStrategy, Stage
from ..hardware.device import DeviceSpec
from ..models import INCEPTION_BLOCK_NAMES
from ..runtime.executor import ExecutionPlan, Executor
from ..core.cost_model import stage_to_execution
from .runner import ExperimentContext, default_context
from ..tables import ExperimentTable

__all__ = ["run_figure16"]


def _block_latency(ctx: ExperimentContext, graph, block, stages) -> float:
    """Latency of one block executed with the given stages."""
    plan = ExecutionPlan(name=f"{graph.name}:{block.name}", batch_size=graph.batch_size)
    for stage_index, stage in enumerate(stages):
        plan.stages.append(
            stage_to_execution(graph, stage.operators, stage.strategy, label=f"{block.name}:{stage_index}")
        )
    return Executor(ctx.device, ctx.profile).run(plan).latency_ms


def run_figure16(
    model: str = "inception_v3",
    device: str | DeviceSpec = "v100",
    batch_size: int = 1,
    block_names: list[str] | None = None,
    context: ExperimentContext | None = None,
) -> ExperimentTable:
    """Per-block sequential vs IOS latency for Inception V3."""
    ctx = context or default_context(device)
    graph = ctx.graph(model, batch_size)
    block_names = block_names or list(INCEPTION_BLOCK_NAMES)

    cost_model = SimulatedCostModel(ctx.device, ctx.profile)
    scheduler = IOSScheduler(cost_model, SchedulerConfig(pruning=ctx.pruning))

    table = ExperimentTable(
        experiment_id="figure16",
        title=f"Figure 16: block-wise sequential vs IOS latency for {model} on {ctx.device.name}",
        columns=[
            "block_index",
            "block",
            "num_operators",
            "sequential_ms",
            "ios_ms",
            "speedup",
            "ios_stages",
        ],
    )

    total_seq = 0.0
    total_ios = 0.0
    for index, block_name in enumerate(block_names, start=1):
        block = next(b for b in graph.blocks if b.name == block_name)
        op_names = graph.schedulable_names(block)
        sequential_stages = [
            Stage((name,), ParallelizationStrategy.CONCURRENT)
            for name in graph.topological_order(op_names)
        ]
        ios_stages, _stats = scheduler.optimize_block(graph, block)
        sequential_ms = _block_latency(ctx, graph, block, sequential_stages)
        ios_ms = _block_latency(ctx, graph, block, ios_stages)
        total_seq += sequential_ms
        total_ios += ios_ms
        table.add_row(
            block_index=index,
            block=block_name,
            num_operators=len(op_names),
            sequential_ms=sequential_ms,
            ios_ms=ios_ms,
            speedup=sequential_ms / ios_ms if ios_ms > 0 else float("inf"),
            ios_stages=len(ios_stages),
        )
    table.add_row(
        block_index=0,
        block="all_blocks_total",
        num_operators=sum(row["num_operators"] for row in table.rows),
        sequential_ms=total_seq,
        ios_ms=total_ios,
        speedup=total_seq / total_ios if total_ios > 0 else float("inf"),
        ios_stages=sum(row["ios_stages"] for row in table.rows),
    )
    return table
