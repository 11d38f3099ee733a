"""Kernel model: how an IR operator maps onto GPU execution resources.

A GPU kernel is modelled by

* the total work it performs (FLOPs and DRAM bytes),
* its launch geometry — how many thread blocks it spawns and how many warps
  each block contains — which bounds how much of the device the kernel can
  occupy on its own, and
* a *kernel-library efficiency*: the fraction of a thread-block slot's peak
  throughput that the library's implementation of this operator achieves
  (cuDNN's dense convolutions are close to peak, its depthwise/separable
  convolutions are notoriously far from it, which is exactly why TVM-AutoTune
  beats cuDNN-based execution on RandWire/NasNet in Figure 12).

The thread-block geometry follows a simple tiling rule calibrated against the
per-stage utilisation numbers the paper reports in Figure 2: a convolution
thread block computes a tile of 32 output channels x 64 output pixels for one
sample.  With the V100 preset this reproduces the paper's 33 % / 59 %
utilisation for the 384- and 768-channel 3x3 convolutions of that figure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping

from ..ir.ops import (
    Add,
    Concat,
    Conv2d,
    Gelu,
    GlobalAvgPool,
    LayerNorm,
    Linear,
    Matmul,
    Operator,
    Pool2d,
    Relu,
    SeparableConv2d,
    Softmax,
    Transpose,
)
from .device import DeviceSpec

__all__ = [
    "KernelProfile",
    "KernelSpec",
    "build_kernel",
    "CUDNN_PROFILE",
    "TVM_AUTOTUNE_PROFILE",
    "TENSORRT_PROFILE",
    "KERNEL_PROFILES",
]

#: Output-channel tile of a convolution thread block.
CONV_TILE_CHANNELS = 32
#: Output-pixel tile of a convolution thread block.
CONV_TILE_PIXELS = 64
#: Elements processed by one thread block of a memory-bound (elementwise,
#: pooling, concat) kernel.
ELEMENTWISE_TILE = 4096
#: Output-feature tile of a matrix-multiplication thread block.
MATMUL_TILE_FEATURES = 64
#: Batch-rows tile of a matrix-multiplication thread block.
MATMUL_TILE_ROWS = 16


@dataclass(frozen=True)
class KernelProfile:
    """Efficiency profile of a kernel library (cuDNN, TVM, TensorRT...).

    ``efficiency`` maps an operator ``kind`` to the fraction of per-slot peak
    FP32 throughput that library achieves for that operator.  Memory-bound
    operators are limited by bandwidth regardless, so their entries matter
    little.
    """

    name: str
    efficiency: Mapping[str, float] = field(default_factory=dict)
    default_efficiency: float = 0.60
    #: Multiplier on the device kernel-launch overhead (frameworks with heavy
    #: runtimes launch kernels more slowly).
    launch_overhead_scale: float = 1.0

    def efficiency_for(self, kind: str) -> float:
        eff = float(self.efficiency.get(kind, self.default_efficiency))
        if not 0.0 < eff <= 1.0:
            raise ValueError(f"efficiency for {kind!r} must be in (0, 1], got {eff}")
        return eff

    def launch_overhead_ms(self, device: DeviceSpec) -> float:
        return device.kernel_launch_overhead_ms * self.launch_overhead_scale


#: cuDNN-like profile: excellent dense convolutions, poor depthwise/separable
#: convolutions, decent GEMM.
CUDNN_PROFILE = KernelProfile(
    name="cudnn",
    efficiency={
        "conv2d": 0.92,
        "sep_conv2d": 0.30,
        "linear": 0.70,
        "matmul": 0.70,
        "pool2d": 0.80,
        "global_avg_pool": 0.80,
        "relu": 0.90,
        "add": 0.90,
        "concat": 0.90,
        "softmax": 0.60,
        "layer_norm": 0.70,
        "gelu": 0.85,
        "transpose": 0.80,
    },
    default_efficiency=0.60,
)

#: TVM auto-tuned kernels: slightly below cuDNN on dense convolutions but much
#: better on separable convolutions (the paper's Figure 12 observation).
TVM_AUTOTUNE_PROFILE = KernelProfile(
    name="tvm-autotune",
    efficiency={
        "conv2d": 0.85,
        "sep_conv2d": 0.62,
        "linear": 0.65,
        "matmul": 0.65,
        "pool2d": 0.80,
        "global_avg_pool": 0.80,
        "relu": 0.90,
        "add": 0.90,
        "concat": 0.90,
        "softmax": 0.60,
        "layer_norm": 0.75,
        "gelu": 0.85,
        "transpose": 0.80,
    },
    default_efficiency=0.60,
)

#: TensorRT: best-in-class dense convolutions and fused pointwise kernels.
TENSORRT_PROFILE = KernelProfile(
    name="tensorrt",
    efficiency={
        "conv2d": 0.95,
        "sep_conv2d": 0.34,
        "linear": 0.75,
        "matmul": 0.75,
        "pool2d": 0.85,
        "global_avg_pool": 0.85,
        "relu": 0.92,
        "add": 0.92,
        "concat": 0.92,
        "softmax": 0.65,
        "layer_norm": 0.80,
        "gelu": 0.90,
        "transpose": 0.85,
    },
    default_efficiency=0.65,
    launch_overhead_scale=0.8,
)

KERNEL_PROFILES: dict[str, KernelProfile] = {
    p.name: p for p in (CUDNN_PROFILE, TVM_AUTOTUNE_PROFILE, TENSORRT_PROFILE)
}


@dataclass(frozen=True)
class KernelSpec:
    """A single GPU kernel ready to be simulated.

    The simulator treats a kernel as a malleable job: it can occupy up to
    ``num_blocks`` thread-block slots simultaneously, performs ``flops`` of
    compute and ``memory_bytes`` of DRAM traffic in total, and achieves
    ``efficiency`` of per-slot peak throughput.
    """

    name: str
    op_kind: str
    flops: float
    memory_bytes: float
    num_blocks: int
    warps_per_block: int
    efficiency: float
    launch_overhead_ms: float

    def __post_init__(self) -> None:
        if self.num_blocks <= 0:
            raise ValueError(f"kernel {self.name!r} must launch at least one block")
        if self.flops < 0 or self.memory_bytes < 0:
            raise ValueError(f"kernel {self.name!r} has negative work")
        if not 0.0 < self.efficiency <= 1.0:
            raise ValueError(f"kernel {self.name!r} efficiency must be in (0, 1]")

    @cached_property
    def sim_key(self) -> tuple:
        """The five fields the contention simulator reads, as one tuple.

        This is the kernel's identity in the simulator's latency cache;
        computed on first use and kept, since a kernel never changes.
        """
        return (
            self.num_blocks,
            self.efficiency,
            self.flops,
            self.memory_bytes,
            self.launch_overhead_ms,
        )

    # ------------------------------------------------------------------ helpers
    def max_parallelism(self, device: DeviceSpec) -> int:
        """Maximum thread-block slots this kernel can use on ``device``."""
        return min(self.num_blocks, device.total_block_slots)

    def occupancy(self, device: DeviceSpec) -> float:
        """Fraction of the device's block slots the kernel can fill alone."""
        return self.max_parallelism(device) / device.total_block_slots

    def compute_time_ms(self, device: DeviceSpec, slots: int | None = None) -> float:
        """Pure compute time when running on ``slots`` block slots.

        Wave quantisation (the tail effect) is modelled: a kernel with 1.5
        waves of blocks takes as long as one with 2 full waves.
        """
        if self.flops == 0:
            return 0.0
        if slots is None:
            slots = self.max_parallelism(device)
        slots = max(1, min(slots, self.num_blocks, device.total_block_slots))
        waves = math.ceil(self.num_blocks / slots)
        flops_per_block = self.flops / self.num_blocks
        per_block_time = flops_per_block / (device.flops_per_slot_ms * self.efficiency)
        return waves * per_block_time

    def memory_time_ms(self, device: DeviceSpec, bandwidth_fraction: float = 1.0) -> float:
        """Pure DRAM-transfer time given a fraction of device bandwidth."""
        if self.memory_bytes == 0:
            return 0.0
        bandwidth_fraction = min(max(bandwidth_fraction, 1e-9), 1.0)
        return self.memory_bytes / (device.bandwidth_bytes_per_ms * bandwidth_fraction)

    def duration_alone_ms(self, device: DeviceSpec) -> float:
        """Roofline latency of this kernel running alone on the device.

        Launch overhead plus the larger of the compute and DRAM times on the
        whole device.  The contention simulator is the source of truth; this
        closed form is the IOS DP's per-operator floor (a kernel sharing the
        device never runs faster than alone) and agrees with the simulator
        to rounding for one kernel running alone.
        """
        busy = max(self.compute_time_ms(device), self.memory_time_ms(device))
        return busy + self.launch_overhead_ms

    def achieved_tflops(self, device: DeviceSpec) -> float:
        """TFLOPs/s achieved when running alone (excludes launch overhead)."""
        busy = max(self.compute_time_ms(device), self.memory_time_ms(device))
        if busy == 0:
            return 0.0
        return (self.flops / (busy / 1e3)) / 1e12


# --------------------------------------------------------------------------- #
# Operator -> kernel lowering                                                  #
# --------------------------------------------------------------------------- #
def _conv_blocks(op: Conv2d | SeparableConv2d) -> int:
    out = op.output_shape
    assert out is not None
    channel_tiles = math.ceil(out.channels / CONV_TILE_CHANNELS)
    pixel_tiles = math.ceil((out.height * out.width) / CONV_TILE_PIXELS)
    return channel_tiles * pixel_tiles * out.batch


def _elementwise_blocks(op: Operator) -> int:
    assert op.output_shape is not None
    return max(1, math.ceil(op.output_shape.numel() / ELEMENTWISE_TILE))


def _matmul_blocks(op: Linear | Matmul) -> int:
    # Output channels == out_features for the weighted (projection) forms and
    # the trailing matrix dimension for batched activation-activation matmuls.
    out = op.output_shape
    assert out is not None
    feature_tiles = math.ceil(out.channels / MATMUL_TILE_FEATURES)
    row_tiles = math.ceil(out.batch / MATMUL_TILE_ROWS)
    return max(1, feature_tiles * row_tiles)


def build_kernel(
    op: Operator,
    device: DeviceSpec,
    profile: KernelProfile = CUDNN_PROFILE,
) -> KernelSpec | None:
    """Lower a bound IR operator to a :class:`KernelSpec`.

    Returns ``None`` for operators that do not launch a kernel (placeholders,
    identity, split, flatten): they are free at execution time.
    """
    if not op.launches_kernel:
        return None
    if op.output_shape is None:
        raise ValueError(f"operator {op.name!r} must be bound before lowering to a kernel")

    if isinstance(op, (Conv2d, SeparableConv2d)):
        num_blocks = _conv_blocks(op)
    elif isinstance(op, (Linear, Matmul)):
        num_blocks = _matmul_blocks(op)
    elif isinstance(
        op, (Pool2d, GlobalAvgPool, Relu, Gelu, LayerNorm, Transpose, Add, Concat, Softmax)
    ):
        num_blocks = _elementwise_blocks(op)
    else:
        # Unknown operator types (including imported Opaque nodes) fall back
        # to the memory-bound elementwise geometry; their efficiency comes
        # from the profile's default_efficiency.
        num_blocks = _elementwise_blocks(op)

    return KernelSpec(
        name=op.name,
        op_kind=op.kind,
        flops=float(op.flops()),
        memory_bytes=float(op.memory_bytes()),
        num_blocks=num_blocks,
        warps_per_block=device.warps_per_block,
        efficiency=profile.efficiency_for(op.kind),
        launch_overhead_ms=profile.launch_overhead_ms(device),
    )
