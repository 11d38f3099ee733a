"""Figure 10: the schedules IOS finds for the last Inception V3 block.

The paper contrasts the schedule found for batch size 1 (two stages, no merge)
with the one found for batch size 32 (more stages; the parallel 3x1 / 1x3
convolutions that share an input are merged), showing that the best structure
depends on the workload.  This experiment optimises only that block at both
batch sizes, reports stage counts / strategies / cross-latencies, and returns
the textual schedule descriptions for inspection.
"""

from __future__ import annotations

from ..core.lowering import measure_schedule
from ..core.schedule import ParallelizationStrategy, Schedule
from ..hardware.device import DeviceSpec
from ..ir.graph import Graph
from ..tables import ExperimentTable
from .runner import ExperimentContext, default_context

__all__ = ["run_figure10", "last_block_subgraph"]


def last_block_subgraph(
    batch_size: int, block_name: str = "mixed_7c", context: ExperimentContext | None = None
) -> Graph:
    """Extract the last Inception V3 block as a standalone graph.

    The block's external input (the previous block's concat output) becomes the
    graph input, so the block can be optimised and executed in isolation.
    """
    full = (context or default_context()).graph("inception_v3", batch_size)
    block = next(b for b in full.blocks if b.name == block_name)
    op_names = full.schedulable_names(block)
    name_set = set(op_names)
    external = sorted(
        {p for name in op_names for p in full.nodes[name].inputs if p not in name_set}
    )
    if len(external) != 1:
        raise ValueError(f"expected exactly one external input for {block_name}, got {external}")

    from ..ir.graph import GraphBuilder
    from ..ir.ops import operator_from_config

    external_shape = full.nodes[external[0]].output_shape
    builder = GraphBuilder(f"inception_{block_name}", external_shape, input_name=external[0])
    with builder.block(block_name):
        for name in full.topological_order(op_names):
            config = full.nodes[name].to_config()
            builder._add(operator_from_config(config))
    return builder.build()


def run_figure10(
    batch_sizes: tuple[int, int] = (1, 32),
    device: str | DeviceSpec = "v100",
    block_name: str = "mixed_7c",
    context: ExperimentContext | None = None,
) -> ExperimentTable:
    """Optimise the last Inception block for two batch sizes and cross-evaluate."""
    ctx = context or default_context(device)
    spec = ctx.device
    engine = ctx.engine()
    graphs = {bs: last_block_subgraph(bs, block_name, ctx) for bs in batch_sizes}
    schedules: dict[int, Schedule] = {
        bs: engine.compile(graph).schedule for bs, graph in graphs.items()
    }

    table = ExperimentTable(
        experiment_id="figure10",
        title=f"Figure 10: IOS schedules of Inception V3 {block_name} for batch {batch_sizes}",
        columns=[
            "optimized_for_batch",
            "num_stages",
            "merge_stages",
            "latency_on_bs%d_ms" % batch_sizes[0],
            "latency_on_bs%d_ms" % batch_sizes[1],
            "schedule",
        ],
        notes=(
            "the schedule optimised for each batch size should win on that batch size; the "
            "larger batch typically uses more stages (contention) and more merging (memory)"
        ),
    )
    for opt_bs in batch_sizes:
        schedule = schedules[opt_bs]
        merge_stages = sum(
            1 for stage in schedule.stages if stage.strategy is ParallelizationStrategy.MERGE
        )
        latencies = {}
        for exe_bs in batch_sizes:
            latencies[exe_bs] = measure_schedule(graphs[exe_bs], schedule, spec).latency_ms
        table.add_row(
            **{
                "optimized_for_batch": opt_bs,
                "num_stages": schedule.num_stages(),
                "merge_stages": merge_stages,
                "latency_on_bs%d_ms" % batch_sizes[0]: latencies[batch_sizes[0]],
                "latency_on_bs%d_ms" % batch_sizes[1]: latencies[batch_sizes[1]],
                "schedule": schedule.describe(graphs[opt_bs]).replace("\n", " / "),
            }
        )
    return table
