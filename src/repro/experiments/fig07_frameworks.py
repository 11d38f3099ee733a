"""Figures 7 and 15: cuDNN-based framework comparison.

TensorFlow, TensorFlow-XLA, TASO, TVM-cuDNN and TensorRT (all simulated,
all executing sequentially) are compared against IOS at batch size one;
throughput is normalised to the best system per network.  Figure 7 runs on the
V100 preset, Figure 15 on the RTX 2080Ti.
"""

from __future__ import annotations

from typing import Sequence

from ..frameworks import get_framework
from ..hardware.device import DeviceSpec
from ..models import BENCHMARK_MODELS
from .runner import ExperimentContext, default_context
from ..tables import ExperimentTable, geometric_mean, normalize_to_best

__all__ = ["run_figure7", "run_figure15", "FRAMEWORK_LABELS"]

#: Baselines of Figure 7, in the paper's legend order, plus IOS.
FRAMEWORK_LABELS = ["tensorflow", "tensorflow-xla", "taso", "tvm-cudnn", "tensorrt", "ios"]


def run_figure7(
    device: str | DeviceSpec = "v100",
    models: Sequence[str] | None = None,
    batch_size: int = 1,
    context: ExperimentContext | None = None,
    experiment_id: str = "figure7",
) -> ExperimentTable:
    """Normalised throughput of cuDNN-based frameworks and IOS per network."""
    ctx = context or default_context(device)
    models = list(models) if models is not None else list(BENCHMARK_MODELS)
    table = ExperimentTable(
        experiment_id=experiment_id,
        title=f"{experiment_id}: framework comparison on {ctx.device.name} (batch {batch_size})",
        columns=["network"] + FRAMEWORK_LABELS + ["ios_speedup_vs_best_baseline"],
        notes="columns are throughput normalised to the best system of each network",
    )

    normalized_per_label: dict[str, list[float]] = {label: [] for label in FRAMEWORK_LABELS}
    for model_name in models:
        graph = ctx.graph(model_name, batch_size)
        throughputs: dict[str, float] = {}
        for label in FRAMEWORK_LABELS:
            if label == "ios":
                run = ctx.run_schedule(graph, "ios-both")
                throughputs[label] = run.throughput
            else:
                result = get_framework(label).run(graph, ctx.device)
                throughputs[label] = result.throughput
        normalized = normalize_to_best(throughputs)
        for label in FRAMEWORK_LABELS:
            normalized_per_label[label].append(normalized[label])
        baseline_best = max(v for k, v in throughputs.items() if k != "ios")
        table.add_row(
            network=model_name,
            ios_speedup_vs_best_baseline=throughputs["ios"] / baseline_best,
            **normalized,
        )

    geo_row = {label: geometric_mean(values) for label, values in normalized_per_label.items()}
    table.add_row(network="geomean", ios_speedup_vs_best_baseline=float("nan"), **geo_row)
    return table


def run_figure15(
    models: Sequence[str] | None = None,
    batch_size: int = 1,
    context: ExperimentContext | None = None,
) -> ExperimentTable:
    """Appendix B, Figure 15: the framework comparison on an RTX 2080Ti."""
    return run_figure7(
        device="rtx2080ti",
        models=models,
        batch_size=batch_size,
        context=context.for_device("rtx2080ti") if context is not None else None,
        experiment_id="figure15",
    )
