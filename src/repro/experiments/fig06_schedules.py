"""Figures 6 and 14: schedule comparison across the benchmark CNNs.

Five schedules — Sequential, Greedy, IOS-Merge, IOS-Parallel, IOS-Both — are
executed on the same engine (only the schedule differs) at batch size one.
Throughput is normalised to the best schedule of each model and a geometric
mean column summarises the suite.  Figure 6 uses the V100 preset; Figure 14 is
the same experiment on the RTX 2080Ti.
"""

from __future__ import annotations

from typing import Sequence

from ..hardware.device import DeviceSpec
from ..models import BENCHMARK_MODELS
from .runner import SCHEDULE_LABELS, ExperimentContext, default_context
from ..tables import ExperimentTable, geometric_mean, normalize_to_best

__all__ = ["run_figure6", "run_figure14"]


def run_figure6(
    device: str | DeviceSpec = "v100",
    models: Sequence[str] | None = None,
    batch_size: int = 1,
    context: ExperimentContext | None = None,
    experiment_id: str = "figure6",
) -> ExperimentTable:
    """Normalised throughput of the five schedules on each benchmark CNN."""
    ctx = context or default_context(device)
    models = list(models) if models is not None else list(BENCHMARK_MODELS)
    table = ExperimentTable(
        experiment_id=experiment_id,
        title=f"{experiment_id}: schedule comparison on {ctx.device.name} (batch {batch_size})",
        columns=["network"] + SCHEDULE_LABELS + ["best_latency_ms", "ios_speedup_vs_sequential"],
        notes="columns are throughput normalised to the best schedule of each network",
    )

    normalized_per_label: dict[str, list[float]] = {label: [] for label in SCHEDULE_LABELS}
    for model_name in models:
        runs = ctx.compare_schedules(model_name, SCHEDULE_LABELS, batch_size=batch_size)
        throughputs = {label: run.throughput for label, run in runs.items()}
        normalized = normalize_to_best(throughputs)
        for label in SCHEDULE_LABELS:
            normalized_per_label[label].append(normalized[label])
        best_latency = min(run.latency_ms for run in runs.values())
        table.add_row(
            network=model_name,
            best_latency_ms=best_latency,
            ios_speedup_vs_sequential=runs["sequential"].latency_ms / runs["ios-both"].latency_ms,
            **normalized,
        )

    geo_row = {label: geometric_mean(values) for label, values in normalized_per_label.items()}
    table.add_row(network="geomean", best_latency_ms=float("nan"),
                  ios_speedup_vs_sequential=float("nan"), **geo_row)
    return table


def run_figure14(
    models: Sequence[str] | None = None,
    batch_size: int = 1,
    context: ExperimentContext | None = None,
) -> ExperimentTable:
    """Appendix B, Figure 14: the same schedule comparison on an RTX 2080Ti."""
    return run_figure6(
        device="rtx2080ti",
        models=models,
        batch_size=batch_size,
        context=context.for_device("rtx2080ti") if context is not None else None,
        experiment_id="figure14",
    )
