"""Schedule specialisation for batch sizes and devices (Section 7.2, Table 3).

An optimal schedule depends on the inference configuration: large batches fill
the device with intra-operator parallelism (less need for concurrency, more
benefit from merging), small batches leave it starved; a powerful GPU tolerates
many concurrent operators, a weak one suffers contention.  The helpers here
optimise a network once per configuration and then cross-evaluate every
schedule under every configuration, producing exactly the latency matrices of
Table 3.  Each configuration compiles through the pooled
:func:`~repro.engine.get_engine` for its device, so a schedule another
experiment already searched is a compile-cache hit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from ..hardware.device import DeviceSpec
from ..hardware.kernel import CUDNN_PROFILE, KernelProfile
from ..ir.graph import Graph
from .lowering import schedule_latency_ms
from .schedule import Schedule

__all__ = ["SpecializationMatrix", "specialize_for_batch_sizes", "specialize_for_devices"]


@dataclass
class SpecializationMatrix:
    """Cross-evaluation of specialised schedules.

    ``latency_ms[i][j]`` is the latency of *executing* configuration ``i``
    using the schedule *optimised for* configuration ``j`` — the layout of
    Table 3, where the diagonal should be the best entry of each row.
    """

    execute_labels: list[str]
    optimize_labels: list[str]
    latency_ms: list[list[float]] = field(default_factory=list)

    def diagonal_is_best(self, tolerance: float = 1e-9) -> bool:
        """Whether every row's minimum lies on the diagonal (within tolerance)."""
        for i, row in enumerate(self.latency_ms):
            if min(row) < row[i] - tolerance:
                return False
        return True

    def row(self, label: str) -> list[float]:
        return self.latency_ms[self.execute_labels.index(label)]

    def as_rows(self) -> list[dict[str, object]]:
        rows = []
        for execute_label, latencies in zip(self.execute_labels, self.latency_ms):
            row: dict[str, object] = {"execute_on": execute_label}
            for optimize_label, value in zip(self.optimize_labels, latencies):
                row[f"optimized_for_{optimize_label}"] = value
            rows.append(row)
        return rows


def _optimize(graph: Graph, device: DeviceSpec, profile: KernelProfile) -> Schedule:
    """The default IOS schedule of ``graph`` on ``device``, via the engine pool."""
    from ..engine import get_engine  # the engine builds on this package

    return get_engine(device, profile=profile).compile(graph).schedule


def specialize_for_batch_sizes(
    graph: Graph,
    batch_sizes: Sequence[int],
    device: DeviceSpec,
    profile: KernelProfile = CUDNN_PROFILE,
) -> tuple[dict[int, Schedule], SpecializationMatrix]:
    """Optimise ``graph`` for each batch size and cross-evaluate the schedules.

    Reproduces Table 3 (1): rows are the batch size the network is executed
    with, columns the batch size the schedule was optimised for.
    """
    graphs = {bs: graph.with_batch_size(bs) for bs in batch_sizes}
    schedules = {bs: _optimize(graphs[bs], device, profile) for bs in batch_sizes}

    labels = [str(bs) for bs in batch_sizes]
    matrix = SpecializationMatrix(execute_labels=list(labels), optimize_labels=list(labels))
    for execute_bs in batch_sizes:
        row = []
        for optimize_bs in batch_sizes:
            row.append(
                schedule_latency_ms(graphs[execute_bs], schedules[optimize_bs], device, profile)
            )
        matrix.latency_ms.append(row)
    return schedules, matrix


def specialize_for_devices(
    graph: Graph,
    devices: Sequence[DeviceSpec],
    profile: KernelProfile = CUDNN_PROFILE,
) -> tuple[dict[str, Schedule], SpecializationMatrix]:
    """Optimise ``graph`` for each device and cross-evaluate the schedules.

    Reproduces Table 3 (2): rows are the device the network is executed on,
    columns the device the schedule was optimised for.
    """
    schedules = {device.name: _optimize(graph, device, profile) for device in devices}

    labels = [device.name for device in devices]
    matrix = SpecializationMatrix(execute_labels=list(labels), optimize_labels=list(labels))
    for execute_device in devices:
        row = []
        for optimize_device in devices:
            row.append(
                schedule_latency_ms(graph, schedules[optimize_device.name], execute_device, profile)
            )
        matrix.latency_ms.append(row)
    return schedules, matrix
