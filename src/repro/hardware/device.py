"""GPU device specifications.

The paper evaluates IOS on NVIDIA Tesla V100 and K80 and on an RTX 2080Ti, and
motivates the problem (Figure 1) with GTX 980Ti / GTX 1080 / V100 peak numbers.
Since no GPU is available in this environment, devices are described by a small
set of published architectural parameters that the simulator consumes:

* number of streaming multiprocessors (SMs) and how many thread blocks each SM
  can host concurrently — this bounds the amount of *inter- and intra-operator
  parallelism* the device can absorb;
* peak FP32 throughput and DRAM bandwidth — the two roofline ceilings;
* kernel-launch and stream-synchronisation overheads — the fixed costs that
  make over-parallelisation (the greedy schedule) expensive;
* DRAM capacity — used by the memory planner to reproduce the TASO
  out-of-memory result at batch size 128 (Figure 11).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..checks import Registry, require_number

__all__ = ["DeviceSpec", "DEVICE_REGISTRY", "get_device", "list_devices"]


@dataclass(frozen=True)
class DeviceSpec:
    """Architectural description of a GPU used by the simulator."""

    name: str
    #: Number of streaming multiprocessors.
    num_sms: int
    #: Peak single-precision throughput in TFLOPs/s.
    peak_fp32_tflops: float
    #: Peak DRAM bandwidth in GB/s.
    memory_bandwidth_gb_s: float
    #: DRAM capacity in GiB.
    memory_gb: float
    #: Maximum thread blocks resident per SM (for the block sizes our kernel
    #: model uses; real GPUs allow more for tiny blocks).
    blocks_per_sm: int = 2
    #: Threads per warp.
    warp_size: int = 32
    #: Warps per thread block in the kernel model (256 threads / 32).
    warps_per_block: int = 8
    #: Fixed CPU+driver cost of launching one kernel, in milliseconds.
    kernel_launch_overhead_ms: float = 0.005
    #: Cost of synchronising the streams of a stage (one barrier), in ms.
    stream_sync_overhead_ms: float = 0.004
    #: Additional DRAM-traffic inflation per extra *concurrently resident*
    #: kernel, modelling L2/DRAM row-buffer interference between streams.
    contention_alpha: float = 0.12
    #: Release year, used by the Figure-1 trend experiment.
    year: int = 2018

    def __post_init__(self) -> None:
        for name in ("num_sms", "peak_fp32_tflops", "memory_bandwidth_gb_s",
                     "blocks_per_sm", "warp_size", "warps_per_block"):
            require_number(name, getattr(self, name), positive=True)
        for name in ("memory_gb", "kernel_launch_overhead_ms", "stream_sync_overhead_ms",
                     "contention_alpha", "year"):
            require_number(name, getattr(self, name))

    # ------------------------------------------------------------ derived units
    @property
    def peak_flops_per_ms(self) -> float:
        """Peak FP32 throughput in FLOPs per millisecond."""
        return self.peak_fp32_tflops * 1e12 / 1e3

    @property
    def bandwidth_bytes_per_ms(self) -> float:
        """DRAM bandwidth in bytes per millisecond."""
        return self.memory_bandwidth_gb_s * 1e9 / 1e3

    @property
    def total_block_slots(self) -> int:
        """How many thread blocks the whole GPU can execute concurrently."""
        return self.num_sms * self.blocks_per_sm

    @property
    def flops_per_slot_ms(self) -> float:
        """Peak FLOPs per millisecond of a single resident thread block slot."""
        return self.peak_flops_per_ms / self.total_block_slots

    @property
    def memory_bytes(self) -> float:
        """DRAM capacity in bytes."""
        return self.memory_gb * (1024**3)

    @property
    def max_active_warps(self) -> int:
        """Upper bound on simultaneously active warps on the whole device."""
        return self.total_block_slots * self.warps_per_block

    def stream_sync_ms(self, num_streams: int) -> float:
        """Cost of the barrier that ends a stage run on ``num_streams`` streams.

        ``cudaStreamSynchronize`` on every stream costs
        ``stream_sync_overhead_ms`` once per extra stream, and once for a
        single stream: the overhead that makes over-parallelised (greedy)
        schedules lose on small networks such as SqueezeNet (Section 6.1).
        """
        return self.stream_sync_overhead_ms * max(1, num_streams - 1)

    def scaled(self, **overrides) -> "DeviceSpec":
        """Return a copy with selected fields overridden (for what-if studies)."""
        return replace(self, **overrides)


# --------------------------------------------------------------------------- #
# Presets                                                                      #
# --------------------------------------------------------------------------- #
# Peak FP32 numbers follow the paper's Figure 1 where given (980Ti 5.767,
# GTX 1080 8.425, V100 15.7 TFLOPs/s) and public datasheets otherwise.
_PRESETS = [
    DeviceSpec(
        name="v100",
        num_sms=80,
        peak_fp32_tflops=15.7,
        memory_bandwidth_gb_s=900.0,
        memory_gb=16.0,
        kernel_launch_overhead_ms=0.005,
        stream_sync_overhead_ms=0.004,
        contention_alpha=0.12,
        year=2018,
    ),
    DeviceSpec(
        name="k80",
        # One GK210 die of the dual-die K80 board (the paper schedules one GPU).
        num_sms=13,
        peak_fp32_tflops=2.8,
        memory_bandwidth_gb_s=240.0,
        memory_gb=12.0,
        blocks_per_sm=2,
        kernel_launch_overhead_ms=0.009,
        stream_sync_overhead_ms=0.007,
        # An older, smaller GPU suffers more from concurrent kernels.
        contention_alpha=0.30,
        year=2014,
    ),
    DeviceSpec(
        name="rtx2080ti",
        num_sms=68,
        peak_fp32_tflops=13.45,
        memory_bandwidth_gb_s=616.0,
        memory_gb=11.0,
        kernel_launch_overhead_ms=0.005,
        stream_sync_overhead_ms=0.004,
        contention_alpha=0.14,
        year=2018,
    ),
    DeviceSpec(
        name="gtx1080",
        num_sms=20,
        peak_fp32_tflops=8.425,
        memory_bandwidth_gb_s=320.0,
        memory_gb=8.0,
        kernel_launch_overhead_ms=0.007,
        stream_sync_overhead_ms=0.005,
        contention_alpha=0.20,
        year=2016,
    ),
    DeviceSpec(
        name="gtx980ti",
        num_sms=22,
        peak_fp32_tflops=5.767,
        memory_bandwidth_gb_s=336.0,
        memory_gb=6.0,
        kernel_launch_overhead_ms=0.008,
        stream_sync_overhead_ms=0.006,
        contention_alpha=0.22,
        year=2015,
    ),
    DeviceSpec(
        name="a100",
        num_sms=108,
        peak_fp32_tflops=19.5,
        memory_bandwidth_gb_s=1555.0,
        memory_gb=40.0,
        kernel_launch_overhead_ms=0.004,
        stream_sync_overhead_ms=0.003,
        contention_alpha=0.10,
        year=2020,
    ),
]

#: The device catalog: preset name (or a spelling of it) -> spec.
DEVICE_REGISTRY: Registry[DeviceSpec] = Registry("device", aliases={
    "tesla-v100": "v100", "tesla-k80": "k80", "2080ti": "rtx2080ti",
    "rtx2080": "rtx2080ti", "1080": "gtx1080", "980ti": "gtx980ti",
})
DEVICE_REGISTRY.update((spec.name, spec) for spec in _PRESETS)

#: Look up a device preset by any spelling of its name or an alias.
get_device = DEVICE_REGISTRY.__getitem__
#: Names of all registered device presets, sorted.
list_devices = DEVICE_REGISTRY.names
