"""Figure 9: the trade-off between schedule quality and search cost under pruning.

The pruning strategy ``(r, s)`` restricts the endings the DP explores: ``r``
bounds operators per group, ``s`` bounds groups per stage.  Tighter pruning
lowers the optimisation cost at the price of a (slightly) slower schedule.
The paper sweeps ``r in {1, 2, 3}`` and ``s in {3, 8}`` for Inception V3 and
NasNet; we report the optimised latency, the wall-clock search time and the
simulated GPU time spent profiling candidate stages.  The paper profiles
every candidate; the DP's branch-and-bound skips those its roofline floor
proves cannot win, so the reproduced cost counts only the stages priced.
Each cost is that of a cold search, whatever ran earlier in the process.
"""

from __future__ import annotations

from typing import Sequence

from ..core.endings import PruningStrategy
from ..core.lowering import measure_schedule
from ..hardware.device import DeviceSpec
from .runner import ExperimentContext, default_context
from ..tables import ExperimentTable

__all__ = ["run_figure9", "DEFAULT_PRUNING_GRID"]

#: The (r, s) grid of Figure 9.
DEFAULT_PRUNING_GRID = [(r, s) for s in (8, 3) for r in (3, 2, 1)]


def run_figure9(
    models: Sequence[str] = ("inception_v3", "nasnet_a"),
    grid: Sequence[tuple[int, int]] | None = None,
    device: str | DeviceSpec = "v100",
    batch_size: int = 1,
    context: ExperimentContext | None = None,
) -> ExperimentTable:
    """Sweep pruning parameters and report latency vs optimisation cost."""
    ctx = context or default_context(device)
    grid = list(grid) if grid is not None else list(DEFAULT_PRUNING_GRID)
    table = ExperimentTable(
        experiment_id="figure9",
        title="Figure 9: optimised latency vs optimisation cost under (r, s) pruning",
        columns=[
            "network",
            "r",
            "s",
            "latency_ms",
            "speedup_vs_sequential",
            "optimization_wall_s",
            "optimization_gpu_s",
            "stage_measurements",
        ],
    )
    for model_name in models:
        graph = ctx.graph(model_name, batch_size)
        sequential_run = ctx.run_schedule(graph, "sequential")
        for r, s in grid:
            pruning = PruningStrategy(max_group_size=r, max_groups=s)
            result = ctx.ios_result(graph, variant="ios-both", pruning=pruning)[0]
            elapsed, gpu_ms, measurements = ctx.search_cost(graph, pruning)
            latency = measure_schedule(graph, result.schedule, ctx.device, ctx.profile).latency_ms
            table.add_row(
                network=model_name,
                r=r,
                s=s,
                latency_ms=latency,
                speedup_vs_sequential=sequential_run.latency_ms / latency,
                optimization_wall_s=elapsed,
                optimization_gpu_s=gpu_ms / 1e3,
                stage_measurements=measurements,
            )
    return table
