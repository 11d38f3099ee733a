"""Closed-form (roofline) latency of single kernels running alone.

The discrete-event simulator in :mod:`repro.hardware.contention` is the source
of truth for all experiments.  The closed form here,
:meth:`KernelSpec.duration_alone_ms` — launch overhead plus the larger of the
compute and DRAM times on the whole device — serves three purposes:

* the floor of the IOS DP's branch-and-bound: a kernel sharing the device
  with other streams never runs faster than alone, so a stage takes at least
  its slowest stream's summed closed-form latency plus the stream-sync cost
  (:meth:`repro.core.cost_model.SimulatedCostModel.stage_floors`);
* fast annotations for figures that report per-operator numbers (e.g. the
  GFLOPs / TFLOPs/s / utilisation labels of Figure 2);
* a cross-check used by the test-suite: for a *single* kernel running alone,
  the simulator and the closed form agree to rounding.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..ir.ops import Operator
from .device import DeviceSpec
from .kernel import CUDNN_PROFILE, KernelProfile, build_kernel

__all__ = ["OperatorLatency", "estimate_operator_latency", "estimate_sequential_latency",
           "device_utilization"]


@dataclass(frozen=True)
class OperatorLatency:
    """Closed-form latency breakdown of one operator running alone."""

    name: str
    kind: str
    latency_ms: float
    compute_ms: float
    memory_ms: float
    launch_ms: float
    achieved_tflops: float
    occupancy: float
    gflops: float
    #: Achieved fraction of the device's peak FP32 throughput.
    utilization: float


def estimate_operator_latency(
    op: Operator,
    device: DeviceSpec,
    profile: KernelProfile = CUDNN_PROFILE,
    include_launch: bool = True,
) -> OperatorLatency:
    """Roofline + occupancy latency of one operator running alone on ``device``."""
    kernel = build_kernel(op, device, profile)
    if kernel is None:
        return OperatorLatency(
            name=op.name,
            kind=op.kind,
            latency_ms=0.0,
            compute_ms=0.0,
            memory_ms=0.0,
            launch_ms=0.0,
            achieved_tflops=0.0,
            occupancy=0.0,
            gflops=0.0,
            utilization=0.0,
        )
    compute_ms = kernel.compute_time_ms(device)
    memory_ms = kernel.memory_time_ms(device)
    achieved = kernel.achieved_tflops(device)
    utilization = achieved / device.peak_fp32_tflops if device.peak_fp32_tflops > 0 else 0.0
    return OperatorLatency(
        name=op.name,
        kind=op.kind,
        latency_ms=kernel.duration_alone_ms(device, include_launch),
        compute_ms=compute_ms,
        memory_ms=memory_ms,
        launch_ms=kernel.launch_overhead_ms if include_launch else 0.0,
        achieved_tflops=achieved,
        occupancy=kernel.occupancy(device),
        gflops=kernel.flops / 1e9,
        utilization=utilization,
    )


def estimate_sequential_latency(
    ops: list[Operator],
    device: DeviceSpec,
    profile: KernelProfile = CUDNN_PROFILE,
) -> float:
    """Closed-form latency of executing ``ops`` strictly one after another."""
    return sum(estimate_operator_latency(op, device, profile).latency_ms for op in ops)


def device_utilization(flops: float, latency_ms: float, device: DeviceSpec) -> float:
    """Utilisation achieved when ``flops`` of work completes in ``latency_ms``."""
    if latency_ms <= 0:
        return 0.0
    achieved_flops_per_ms = flops / latency_ms
    return achieved_flops_per_ms / device.peak_flops_per_ms

