"""Figure 11: throughput across batch sizes on Inception V3.

Sequential execution, TVM-cuDNN, TASO, TensorRT and IOS are run at batch sizes
1, 16, 32, 64 and 128.  Throughput grows with batch size for everyone, IOS
stays on top at every batch size, and TASO runs out of memory at batch size
128 on the 16 GiB V100.
"""

from __future__ import annotations

from typing import Sequence

from ..frameworks import get_framework
from ..hardware.device import DeviceSpec
from .runner import ExperimentContext, default_context
from ..tables import ExperimentTable

__all__ = ["run_figure11", "BATCH_SWEEP", "FIG11_SYSTEMS"]

BATCH_SWEEP = (1, 16, 32, 64, 128)
FIG11_SYSTEMS = ["sequential", "tvm-cudnn", "taso", "tensorrt", "ios"]


def run_figure11(
    model: str = "inception_v3",
    batch_sizes: Sequence[int] = BATCH_SWEEP,
    device: str | DeviceSpec = "v100",
    context: ExperimentContext | None = None,
) -> ExperimentTable:
    """Throughput (images/s) of each system at each batch size."""
    ctx = context or default_context(device)
    table = ExperimentTable(
        experiment_id="figure11",
        title=f"Figure 11: throughput vs batch size for {model} on {ctx.device.name}",
        columns=["batch_size"] + FIG11_SYSTEMS,
        notes="entries are images/second; 0 marks an out-of-memory failure (TASO at batch 128)",
    )
    for batch_size in batch_sizes:
        graph = ctx.graph(model, batch_size)
        row: dict[str, float | int] = {"batch_size": batch_size}
        for system in FIG11_SYSTEMS:
            if system == "sequential":
                run = ctx.run_schedule(graph, "sequential")
                row[system] = run.throughput
            elif system == "ios":
                run = ctx.run_schedule(graph, "ios-both")
                row[system] = run.throughput
            else:
                result = get_framework(system).run(graph, ctx.device)
                row[system] = 0.0 if result.out_of_memory else result.throughput
        table.add_row(**row)
    return table
