"""Figure 8: active warps under the sequential and IOS schedules.

The paper samples the GPU's active-warp count with CUPTI while repeatedly
executing the Figure-2 block and reports that IOS keeps ~1.58x more warps
active than the sequential schedule (2.7e8 vs 1.7e8 warps/ms on the real
V100), which is the micro-architectural explanation of the speedup.  Our
simulator exposes warp residency directly on its execution timeline.
"""

from __future__ import annotations

from ..core.lowering import measure_schedule
from ..hardware.device import DeviceSpec
from ..models import figure2_block
from ..runtime.warp_trace import compare_traces, trace_from_timeline
from .runner import ExperimentContext, default_context
from ..tables import ExperimentTable

__all__ = ["run_figure8"]


def run_figure8(
    device: str | DeviceSpec = "v100",
    batch_size: int = 1,
    sample_period_ms: float = 0.01,
    context: ExperimentContext | None = None,
) -> ExperimentTable:
    """Compare active-warp residency of the sequential and IOS schedules."""
    ctx = context or default_context(device)
    graph = figure2_block(batch_size=batch_size)
    ctx._graphs[(graph.name, batch_size)] = graph

    table = ExperimentTable(
        experiment_id="figure8",
        title="Figure 8: active warps, sequential vs IOS (Figure 2 block)",
        columns=[
            "schedule",
            "latency_ms",
            "avg_active_warps",
            "peak_active_warps",
            "warp_ms_per_ms",
            "active_warp_ratio_vs_sequential",
        ],
    )

    traces = {}
    for label in ("sequential", "ios-both"):
        schedule, _, _, _ = ctx.schedule(graph, label)
        result = measure_schedule(graph, schedule, ctx.device, ctx.profile, record_trace=True)
        trace = trace_from_timeline(result.timeline(), sample_period_ms=sample_period_ms)
        traces[label] = (trace, result.latency_ms)

    baseline_trace = traces["sequential"][0]
    for label, (trace, latency) in traces.items():
        table.add_row(
            schedule=label,
            latency_ms=latency,
            avg_active_warps=trace.average_active_warps(),
            peak_active_warps=max(trace.samples) if trace.samples else 0.0,
            warp_ms_per_ms=trace.warps_per_ms(),
            active_warp_ratio_vs_sequential=compare_traces(baseline_trace, trace),
        )
    return table
