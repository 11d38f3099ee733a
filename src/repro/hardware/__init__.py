"""Simulated GPU hardware model.

This package substitutes for the physical GPUs (V100, K80, RTX 2080Ti) and the
cuDNN kernel library used by the paper: devices are described by architectural
parameters, operators are lowered to kernel launch geometries, and concurrent
execution across CUDA streams is simulated with a fluid contention model.
"""

from .device import (
    DEVICE_REGISTRY,
    DeviceSpec,
    get_device,
    list_devices,
)
from .kernel import (
    CUDNN_PROFILE,
    KERNEL_PROFILES,
    TENSORRT_PROFILE,
    TVM_AUTOTUNE_PROFILE,
    KernelProfile,
    KernelSpec,
    build_kernel,
)
from .contention import (
    KernelExecution,
    SimulationResult,
    TimelineSegment,
    simulate_streams,
    waterfill_allocation,
)

__all__ = [
    "DeviceSpec",
    "DEVICE_REGISTRY",
    "get_device",
    "list_devices",
    "KernelProfile",
    "KernelSpec",
    "build_kernel",
    "CUDNN_PROFILE",
    "TVM_AUTOTUNE_PROFILE",
    "TENSORRT_PROFILE",
    "KERNEL_PROFILES",
    "KernelExecution",
    "TimelineSegment",
    "SimulationResult",
    "simulate_streams",
    "waterfill_allocation",
]
