"""CUDA-stream abstractions used by the execution engine.

The paper's engine "puts different groups into different CUDA streams" so that
"kernels in different CUDA streams will be executed in parallel if there are
enough computation resources" (Section 5).  This module provides the small
data structures that describe that placement; the actual resource sharing is
simulated by :mod:`repro.hardware.contention`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from .contention import SimulationResult, simulate_streams
from .device import DeviceSpec
from .kernel import KernelSpec

__all__ = ["Stream", "StagePlacement", "run_stage_placement"]


@dataclass
class Stream:
    """An ordered queue of kernels bound to one CUDA stream."""

    stream_id: int
    kernels: list[KernelSpec] = field(default_factory=list)

    def enqueue(self, kernel: KernelSpec) -> None:
        self.kernels.append(kernel)

    def total_flops(self) -> float:
        return sum(k.flops for k in self.kernels)

    def total_memory_bytes(self) -> float:
        return sum(k.memory_bytes for k in self.kernels)

    def __len__(self) -> int:
        return len(self.kernels)


@dataclass
class StagePlacement:
    """The stream placement of one stage: one stream per operator group."""

    streams: list[Stream] = field(default_factory=list)

    @classmethod
    def from_groups(cls, groups: Sequence[Sequence[KernelSpec]]) -> "StagePlacement":
        placement = cls()
        for idx, group in enumerate(groups):
            stream = Stream(stream_id=idx)
            for kernel in group:
                stream.enqueue(kernel)
            placement.streams.append(stream)
        return placement

    @property
    def num_streams(self) -> int:
        return len([s for s in self.streams if len(s) > 0])

    def total_kernels(self) -> int:
        return sum(len(s) for s in self.streams)

    def total_flops(self) -> float:
        return sum(s.total_flops() for s in self.streams)


def run_stage_placement(
    placement: StagePlacement,
    device: DeviceSpec,
    record_trace: bool = False,
    include_sync: bool = True,
) -> SimulationResult:
    """Simulate one stage: concurrent streams followed by a synchronisation.

    The stage barrier costs :meth:`DeviceSpec.stream_sync_ms` of the streams
    used.
    """
    result = simulate_streams([s.kernels for s in placement.streams], device, record_trace)
    if include_sync and placement.num_streams > 0:
        result.latency_ms += device.stream_sync_ms(placement.num_streams)
    return result
