"""Figure 12: intra-operator (TVM-AutoTune) vs inter-operator (IOS) parallelism.

TVM auto-tunes each kernel (intra-operator parallelism, enormous search cost);
IOS keeps cuDNN kernels and parallelises across operators (tiny search cost).
The paper reports that IOS wins on Inception V3 / SqueezeNet while TVM wins on
RandWire / NasNet (its separable-convolution kernels are much better than
cuDNN's), and that tuning the four networks costs TVM 208 GPU hours versus
3 GPU hours for IOS.  The reproduced IOS cost counts only the stages the DP
priced: its branch-and-bound skips candidates that provably cannot win.
"""

from __future__ import annotations

from typing import Sequence

from ..frameworks import TVMAutoTuneModel
from ..hardware.device import DeviceSpec
from ..models import BENCHMARK_MODELS
from .runner import ExperimentContext, default_context
from ..tables import ExperimentTable, geometric_mean, normalize_to_best

__all__ = ["run_figure12"]


def run_figure12(
    models: Sequence[str] | None = None,
    device: str | DeviceSpec = "v100",
    batch_size: int = 1,
    context: ExperimentContext | None = None,
) -> ExperimentTable:
    """Normalised throughput of TVM-AutoTune vs IOS plus total optimisation cost."""
    ctx = context or default_context(device)
    models = list(models) if models is not None else list(BENCHMARK_MODELS)
    tvm = TVMAutoTuneModel()

    table = ExperimentTable(
        experiment_id="figure12",
        title=f"Figure 12: TVM-AutoTune vs IOS on {ctx.device.name} (batch {batch_size})",
        columns=[
            "network",
            "tvm-autotune",
            "ios",
            "tvm_optimization_gpu_hours",
            "ios_optimization_gpu_hours",
        ],
        notes="throughput columns are normalised to the better of the two systems per network",
    )

    normalized_tvm, normalized_ios = [], []
    total_tvm_hours = 0.0
    total_ios_hours = 0.0
    for model_name in models:
        graph = ctx.graph(model_name, batch_size)
        tvm_result = tvm.run(graph, ctx.device)
        ios_run = ctx.run_schedule(graph, "ios-both")
        normalized = normalize_to_best(
            {"tvm-autotune": tvm_result.throughput, "ios": ios_run.throughput}
        )
        normalized_tvm.append(normalized["tvm-autotune"])
        normalized_ios.append(normalized["ios"])
        tvm_hours = tvm.optimization_cost_gpu_hours(graph)
        ios_hours = ios_run.optimization_gpu_ms / 3.6e6
        total_tvm_hours += tvm_hours
        total_ios_hours += ios_hours
        table.add_row(
            network=model_name,
            **{
                "tvm-autotune": normalized["tvm-autotune"],
                "ios": normalized["ios"],
                "tvm_optimization_gpu_hours": tvm_hours,
                "ios_optimization_gpu_hours": ios_hours,
            },
        )
    table.add_row(
        network="geomean/total",
        **{
            "tvm-autotune": geometric_mean(normalized_tvm),
            "ios": geometric_mean(normalized_ios),
            "tvm_optimization_gpu_hours": total_tvm_hours,
            "ios_optimization_gpu_hours": total_ios_hours,
        },
    )
    return table
