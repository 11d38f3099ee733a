"""Section 5's side note: ResNets barely benefit from inter-operator parallelism.

ResNet-34 / ResNet-50 are almost pure chains; the only concurrency available
is running the downsample (projection) convolution next to the residual
branch, so the paper observes merely 2-5 % speedup and excludes ResNet from
the main benchmark suite.  This experiment measures the sequential and IOS
latencies of ResNet-34/50 and reports the (small) speedup.
"""

from __future__ import annotations

from typing import Sequence

from ..hardware.device import DeviceSpec
from .runner import ExperimentContext, default_context
from ..tables import ExperimentTable

__all__ = ["run_resnet_note"]


def run_resnet_note(
    models: Sequence[str] = ("resnet_34", "resnet_50"),
    device: str | DeviceSpec = "v100",
    batch_size: int = 1,
    context: ExperimentContext | None = None,
) -> ExperimentTable:
    """Sequential vs IOS latency on ResNets (expected: only a few percent gain)."""
    ctx = context or default_context(device)
    table = ExperimentTable(
        experiment_id="resnet_note",
        title="Section 5 note: limited inter-operator parallelism in ResNets",
        columns=["network", "sequential_ms", "ios_ms", "speedup", "speedup_percent"],
        notes="the paper reports 2-5% speedup for ResNet-34/50, far below the multi-branch CNNs",
    )
    for model_name in models:
        graph = ctx.graph(model_name, batch_size)
        sequential = ctx.run_schedule(graph, "sequential")
        ios = ctx.run_schedule(graph, "ios-both")
        speedup = sequential.latency_ms / ios.latency_ms
        table.add_row(
            network=model_name,
            sequential_ms=sequential.latency_ms,
            ios_ms=ios.latency_ms,
            speedup=speedup,
            speedup_percent=(speedup - 1.0) * 100.0,
        )
    return table
