"""Figure 2: sequential vs greedy vs IOS schedules of the motivating block.

For the 4-convolution block the paper profiles each schedule's stages on a
V100: per-stage GFLOPs, achieved TFLOPs/s and hardware utilisation, plus the
end-to-end latency.  Sequential achieves ~48 % average utilisation, greedy
~62 %, IOS ~70 %, and IOS has the lowest latency.
"""

from __future__ import annotations

from ..core.lowering import measure_schedule
from ..hardware.device import DeviceSpec
from ..models import figure2_block
from .runner import ExperimentContext, default_context
from ..tables import ExperimentTable

__all__ = ["run_figure2"]


def run_figure2(
    device: str | DeviceSpec = "v100",
    batch_size: int = 1,
    context: ExperimentContext | None = None,
) -> ExperimentTable:
    """Reproduce Figure 2's per-stage profile of the three schedules."""
    ctx = context or default_context(device)
    graph = figure2_block(batch_size=batch_size)
    ctx._graphs[(graph.name, batch_size)] = graph

    table = ExperimentTable(
        experiment_id="figure2",
        title="Figure 2: per-stage profile of sequential / greedy / IOS schedules",
        columns=[
            "schedule",
            "stage",
            "operators",
            "gflops",
            "achieved_tflops",
            "utilization",
            "stage_latency_ms",
            "total_latency_ms",
            "avg_utilization",
        ],
    )

    for label in ("sequential", "greedy", "ios-both"):
        schedule, _, _, _ = ctx.schedule(graph, label)
        result = measure_schedule(graph, schedule, ctx.device, ctx.profile)
        total_flops = sum(event.flops for event in result.stage_events())
        total_latency = result.latency_ms
        avg_utilization = (
            (total_flops / (total_latency / 1e3)) / (ctx.device.peak_fp32_tflops * 1e12)
            if total_latency > 0
            else 0.0
        )
        for event in result.stage_events():
            # Skip zero-work bookkeeping stages (empty stages never occur here,
            # but the concat stage carries almost no FLOPs).
            utilization = event.achieved_tflops() / ctx.device.peak_fp32_tflops
            table.add_row(
                schedule=label,
                stage=event.stage_index,
                operators=",".join(schedule.stages[event.stage_index].operators),
                gflops=event.gflops,
                achieved_tflops=event.achieved_tflops(),
                utilization=utilization,
                stage_latency_ms=event.duration_ms,
                total_latency_ms=total_latency,
                avg_utilization=avg_utilization,
            )
    return table


def summarize_figure2(table: ExperimentTable) -> dict[str, dict[str, float]]:
    """Per-schedule summary: total latency and average utilisation."""
    summary: dict[str, dict[str, float]] = {}
    for row in table.rows:
        entry = summary.setdefault(
            row["schedule"], {"total_latency_ms": row["total_latency_ms"], "avg_utilization": row["avg_utilization"]}
        )
        entry["total_latency_ms"] = row["total_latency_ms"]
        entry["avg_utilization"] = row["avg_utilization"]
    return summary
