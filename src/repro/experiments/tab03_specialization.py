"""Table 3: specialised schedules for batch sizes and devices.

IOS re-optimises the schedule for the configuration it will actually run in.
Table 3 (1) optimises Inception V3 for batch sizes 1 / 32 / 128 and executes
every schedule at every batch size; Table 3 (2) does the same across a Tesla
K80 and a Tesla V100 at batch size one.  In both matrices the diagonal (the
schedule specialised for the execution configuration) should be the best entry
of its row.
"""

from __future__ import annotations

from typing import Sequence

from ..core.specialization import specialize_for_batch_sizes, specialize_for_devices
from ..hardware.device import DeviceSpec, get_device
from ..tables import ExperimentTable
from .runner import ExperimentContext, default_context

__all__ = ["run_table3_batch", "run_table3_device"]


def run_table3_batch(
    model: str = "inception_v3",
    batch_sizes: Sequence[int] = (1, 32, 128),
    device: str | DeviceSpec = "v100",
    context: ExperimentContext | None = None,
) -> ExperimentTable:
    """Table 3 (1): cross-execution of schedules specialised per batch size."""
    ctx = context or default_context(device)
    spec = ctx.device
    graph = ctx.graph(model, batch_sizes[0])
    _, matrix = specialize_for_batch_sizes(graph, batch_sizes, ctx.engine())

    table = ExperimentTable(
        experiment_id="table3_batch",
        title=f"Table 3 (1): batch-size specialisation of {model} on {spec.name}",
        columns=["execute_batch"]
        + [f"optimized_for_bs{bs}" for bs in batch_sizes]
        + ["diagonal_is_best"],
        notes="entries are latencies in ms; each row's minimum should be its diagonal entry",
    )
    diagonal_best = matrix.diagonal_is_best()
    for i, bs in enumerate(batch_sizes):
        row = {"execute_batch": bs, "diagonal_is_best": diagonal_best}
        for j, opt_bs in enumerate(batch_sizes):
            row[f"optimized_for_bs{opt_bs}"] = matrix.latency_ms[i][j]
        table.add_row(**row)
    return table


def run_table3_device(
    model: str = "inception_v3",
    devices: Sequence[str] = ("k80", "v100"),
    batch_size: int = 1,
    context: ExperimentContext | None = None,
) -> ExperimentTable:
    """Table 3 (2): cross-execution of schedules specialised per device."""
    ctx = context or default_context()
    specs = [get_device(name) for name in devices]
    graph = ctx.graph(model, batch_size)
    _, matrix = specialize_for_devices(graph, [ctx.engine(device=spec) for spec in specs])

    table = ExperimentTable(
        experiment_id="table3_device",
        title=f"Table 3 (2): device specialisation of {model} (batch {batch_size})",
        columns=["execute_on"]
        + [f"optimized_for_{spec.name}" for spec in specs]
        + ["diagonal_is_best"],
        notes="entries are latencies in ms; each row's minimum should be its diagonal entry",
    )
    diagonal_best = matrix.diagonal_is_best()
    for i, spec in enumerate(specs):
        row = {"execute_on": spec.name, "diagonal_is_best": diagonal_best}
        for j, opt_spec in enumerate(specs):
            row[f"optimized_for_{opt_spec.name}"] = matrix.latency_ms[i][j]
        table.add_row(**row)
    return table
