"""Multi-stream GPU contention simulator.

This module is the heart of the hardware substitution: it replaces "measure the
latency of this stage on the GPU" (what the paper's C++/cuDNN engine does) with
a deterministic fluid simulation of concurrent kernels sharing one GPU.

Model
-----
Each CUDA stream is a FIFO of kernels.  A kernel first pays its launch
overhead (CPU/driver time that does not occupy the GPU), then becomes
*active*.  All concurrently active kernels share two resources:

* **SM block slots** — the device offers ``num_sms * blocks_per_sm`` thread
  block slots.  Slots are distributed among active kernels by max-min fair
  water-filling, capped by each kernel's own block count (a kernel with 48
  blocks can never use more than 48 slots — this is the under-utilisation that
  motivates inter-operator parallelism).  Wave quantisation is preserved: a
  kernel granted ``s`` slots progresses at ``num_blocks / ceil(num_blocks/s)``
  slot-equivalents, matching the tail effect of real launches.
* **DRAM bandwidth** — shared proportionally to allocated slots and inflated by
  a contention factor ``(1 + alpha * (k - 1))`` when ``k`` kernels are resident
  simultaneously, modelling L2 and row-buffer interference.  This is the
  mechanism by which "executing too many operators on the device concurrently
  may lead to resource contention" (Section 1) — the reason the greedy schedule
  is not optimal.

A kernel finishes when both its compute work (FLOPs) and its memory work
(bytes) are exhausted; compute and memory transfer overlap (roofline
behaviour).  The simulation is event driven: events are kernel launch
completions and kernel finishes, so its cost is quadratic in the number of
kernels per stage, which is tiny.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

from .device import DeviceSpec
from .kernel import KernelSpec

__all__ = [
    "KernelExecution",
    "TimelineSegment",
    "SimulationResult",
    "simulate_streams",
    "waterfill_allocation",
]

_EPS = 1e-12


@dataclass(frozen=True)
class KernelExecution:
    """Start/end times of one kernel in a simulation."""

    kernel_name: str
    stream: int
    launch_start_ms: float
    start_ms: float
    end_ms: float

    @property
    def duration_ms(self) -> float:
        return self.end_ms - self.start_ms


@dataclass(frozen=True)
class TimelineSegment:
    """A time interval with a constant set of active kernels."""

    start_ms: float
    end_ms: float
    active_kernels: tuple[str, ...]
    active_warps: int

    @property
    def duration_ms(self) -> float:
        return self.end_ms - self.start_ms


@dataclass
class SimulationResult:
    """Outcome of simulating a set of streams."""

    latency_ms: float
    executions: list[KernelExecution] = field(default_factory=list)
    timeline: list[TimelineSegment] = field(default_factory=list)

    def execution_of(self, kernel_name: str) -> KernelExecution:
        for execution in self.executions:
            if execution.kernel_name == kernel_name:
                return execution
        raise KeyError(f"kernel {kernel_name!r} not found in simulation result")

    def average_active_warps(self) -> float:
        """Time-weighted average number of active warps."""
        if self.latency_ms <= 0 or not self.timeline:
            return 0.0
        weighted = sum(seg.active_warps * seg.duration_ms for seg in self.timeline)
        return weighted / self.latency_ms


def waterfill_allocation(demands: Sequence[int], capacity: int) -> list[float]:
    """Max-min fair allocation of ``capacity`` slots to kernels.

    ``demands[i]`` is the maximum number of slots kernel ``i`` can use (its
    block count).  Returns fractional allocations summing to at most
    ``capacity`` where no kernel exceeds its demand and spare capacity is
    redistributed to still-unsatisfied kernels.
    """
    if capacity <= 0:
        raise ValueError(f"capacity must be positive, got {capacity}")
    n = len(demands)
    allocation = [0.0] * n
    if n == 0:
        return allocation
    if any(d <= 0 for d in demands):
        raise ValueError("all demands must be positive")
    unsatisfied = set(range(n))
    remaining = float(capacity)
    while unsatisfied and remaining > _EPS:
        share = remaining / len(unsatisfied)
        fully_served = [i for i in unsatisfied if demands[i] - allocation[i] <= share + _EPS]
        if fully_served:
            for i in fully_served:
                remaining -= demands[i] - allocation[i]
                allocation[i] = float(demands[i])
                unsatisfied.discard(i)
        else:
            for i in unsatisfied:
                allocation[i] += share
            remaining = 0.0
    return allocation


#: Memoised waterfill results keyed by ``(demands, capacity)``.  Demand
#: tuples recur heavily across stage measurements (stages are built from the
#: same kernels in many combinations), and the allocation is a pure function
#: of its inputs.  Bounded to keep long-lived processes from growing it
#: without limit.
_WATERFILL_CACHE: dict[tuple, tuple[float, ...]] = {}
_WATERFILL_CACHE_LIMIT = 1 << 16


def _waterfill_cached(demands: tuple[int, ...], capacity: int) -> tuple[float, ...]:
    key = (demands, capacity)
    alloc = _WATERFILL_CACHE.get(key)
    if alloc is None:
        if len(_WATERFILL_CACHE) >= _WATERFILL_CACHE_LIMIT:
            _WATERFILL_CACHE.clear()
        alloc = tuple(waterfill_allocation(demands, capacity))
        _WATERFILL_CACHE[key] = alloc
    return alloc


#: Memoised (allocation, rates) bundles for a set of concurrently running
#: kernels.  A kernel's allocation and rates depend only on every resident
#: kernel's ``(num_blocks, efficiency)`` pair and the device constants, and
#: the same combinations recur across intervals and across the many stage
#: measurements of a DP search.  Keyed per device-constant tuple, bounded.
_RATES_CACHE: dict[tuple, dict[tuple, tuple]] = {}
_RATES_CACHE_LIMIT = 1 << 16

#: Memoised end-to-end latencies for the latency-only simulation path.  The
#: simulated latency is a pure function of the per-stream kernel sequences
#: (each kernel reduced to :attr:`KernelSpec.sim_key`, the five fields the
#: simulation reads) and the device constants; numerically identical stages
#: recur across op subsets because networks reuse the same operator shapes.
#: Bounded like the others.
_LATENCY_CACHE: dict[tuple, dict[tuple, float]] = {}
_LATENCY_CACHE_LIMIT = 1 << 16


def simulate_streams(
    streams: Sequence[Sequence[KernelSpec]],
    device: DeviceSpec,
    record_trace: bool = False,
    record_executions: bool = True,
) -> SimulationResult:
    """Simulate the concurrent execution of kernel streams on one device.

    Parameters
    ----------
    streams:
        One sequence of kernels per CUDA stream; kernels inside a stream run in
        FIFO order, kernels in different streams run concurrently.
    device:
        The simulated GPU.
    record_trace:
        When true, the result's ``timeline`` contains one segment per interval
        with the number of active warps, which the active-warp experiment
        (Figure 8) samples.
    record_executions:
        When false, per-kernel :class:`KernelExecution` records are not
        materialised (the DP search's latency-only path); the computed latency
        is unaffected.

    Returns
    -------
    SimulationResult
        Total latency, per-kernel executions and (optionally) the timeline.
    """
    streams = [kernels for kernels in streams if len(kernels) > 0]
    result = SimulationResult(latency_ms=0.0)
    if not streams:
        return result
    if record_trace or record_executions:
        result.latency_ms = _run_streams(streams, device, result, record_trace, record_executions)
        return result

    # Latency only: the cache key is built from each kernel's precomputed
    # ``sim_key`` before any simulation state exists, so a hit costs one
    # tuple build and two dictionary lookups.
    cache_key = tuple([tuple([kernel.sim_key for kernel in kernels]) for kernels in streams])
    latency_cache = _LATENCY_CACHE.setdefault(
        (
            device.total_block_slots,
            device.flops_per_slot_ms,
            device.bandwidth_bytes_per_ms,
            device.contention_alpha,
        ),
        {},
    )
    latency = latency_cache.get(cache_key)
    if latency is None:
        latency = _run_streams(streams, device, result, False, False)
        if len(latency_cache) >= _LATENCY_CACHE_LIMIT:
            latency_cache.clear()
        latency_cache[cache_key] = latency
    result.latency_ms = latency
    return result


_LAUNCH, _RUN, _IDLE = 0, 1, 2


def _run_streams(
    streams: list[Sequence[KernelSpec]],
    device: DeviceSpec,
    result: SimulationResult,
    record_trace: bool,
    record_executions: bool,
) -> float:
    """The event loop: advance every stream to its next event until all drain.

    Stream ``i``'s state lives at index ``i`` of flat per-stream lists (its
    phase, current kernel and that kernel's remaining launch, compute and
    memory work).  Executions and timeline segments are appended to
    ``result`` when recorded; the returned latency does not depend on it.
    """
    num_streams = len(streams)
    lengths = [len(kernels) for kernels in streams]
    position = [0] * num_streams
    current = [kernels[0] for kernels in streams]
    # Every stream begins launching its first kernel at time zero.
    phase = [_LAUNCH] * num_streams
    launch_remaining = [kernel.launch_overhead_ms for kernel in current]
    rem_compute = [kernel.flops for kernel in current]
    rem_memory = [kernel.memory_bytes for kernel in current]
    launch_start = [0.0] * num_streams
    run_start = [0.0] * num_streams
    executions = result.executions
    timeline = result.timeline

    now = 0.0
    pending = num_streams
    guard = 0
    max_iterations = 4 * sum(lengths) + 16
    capacity = device.total_block_slots
    flops_per_slot = device.flops_per_slot_ms
    bandwidth = device.bandwidth_bytes_per_ms
    contention_alpha = device.contention_alpha
    rates_cache = _RATES_CACHE.setdefault(
        (capacity, flops_per_slot, bandwidth, contention_alpha), {}
    )
    inf = math.inf
    stream_ids = range(num_streams)
    launching: list[int] = []
    running: list[int] = []
    alloc: Sequence[float] = ()
    rates: list[tuple[float, float]] = []
    # The active sets (and hence the waterfill allocation and per-kernel
    # rates) only change when a kernel starts or finishes.  Intervals in
    # between — the float-remainder tail steps of ``rem - rate*dt`` — reuse
    # the previous interval's values, which are bit-identical by construction.
    dirty = True
    while pending:
        guard += 1
        if guard > max_iterations * 8:
            raise RuntimeError("contention simulation did not converge (internal error)")

        if dirty:
            launching = [i for i in stream_ids if phase[i] == _LAUNCH]
            running = [i for i in stream_ids if phase[i] == _RUN]

            # --- compute resource allocation for running kernels ------------
            # Per kernel: wave-quantised compute rate on its slots, and a
            # slot-proportional share of bandwidth divided by the contention
            # factor.  The whole bundle is memoised on the resident kernels'
            # (num_blocks, efficiency) combination.
            if running:
                combo = tuple(
                    [(current[i].num_blocks, current[i].efficiency) for i in running]
                )
                cached = rates_cache.get(combo)
                if cached is not None:
                    alloc, rates = cached
                else:
                    num_running = len(running)
                    demands = tuple(min(nb, capacity) for nb, _ in combo)
                    alloc = _waterfill_cached(demands, capacity)
                    total_alloc = sum(alloc)
                    contention = 1.0 + contention_alpha * (num_running - 1)
                    rates = []
                    for (num_blocks, efficiency), slots in zip(combo, alloc):
                        if slots <= _EPS:
                            rates.append((0.0, 0.0))
                            continue
                        waves = math.ceil(num_blocks / slots - 1e-9)
                        effective_slots = num_blocks / waves if waves > 0 else slots
                        effective_slots = min(
                            effective_slots, slots if slots < num_blocks else num_blocks
                        )
                        compute_rate = effective_slots * flops_per_slot * efficiency
                        bandwidth_share = slots / total_alloc if total_alloc > 0 else 0.0
                        rates.append(
                            (compute_rate, bandwidth_share * bandwidth / contention)
                        )
                    if len(rates_cache) >= _RATES_CACHE_LIMIT:
                        rates_cache.clear()
                    rates_cache[combo] = (alloc, rates)
            else:
                alloc = ()
                rates = []
            dirty = False

        # --- find the next event --------------------------------------------
        # ``if x < dt`` / ``if x > ttf`` are ``min``/``max`` spelled out: the
        # builtins keep their first argument on ties, exactly like these.
        dt = inf
        for i in launching:
            if launch_remaining[i] < dt:
                dt = launch_remaining[i]
        for i, (compute_rate, memory_rate) in zip(running, rates):
            ttf = 0.0
            remaining = rem_compute[i]
            if remaining > _EPS:
                needed = remaining / compute_rate if compute_rate > 0 else inf
                if needed > ttf:
                    ttf = needed
            remaining = rem_memory[i]
            if remaining > _EPS:
                needed = remaining / memory_rate if memory_rate > 0 else inf
                if needed > ttf:
                    ttf = needed
            if ttf < dt:
                dt = ttf
        if math.isinf(dt):
            # Only zero-work kernels remain; let them finish instantly.
            dt = 0.0

        # --- advance time -----------------------------------------------------
        if record_trace and running and dt > 0:
            active_warps = int(
                round(
                    sum(
                        min(slots, current[i].num_blocks) * current[i].warps_per_block
                        for i, slots in zip(running, alloc)
                    )
                )
            )
            timeline.append(
                TimelineSegment(
                    start_ms=now,
                    end_ms=now + dt,
                    active_kernels=tuple(current[i].name for i in running),
                    active_warps=active_warps,
                )
            )
        now += dt

        for i in launching:
            launch_remaining[i] -= dt
            if launch_remaining[i] <= _EPS:
                phase[i] = _RUN
                run_start[i] = now
                dirty = True
        for i, (compute_rate, memory_rate) in zip(running, rates):
            remaining_compute = rem_compute[i] - compute_rate * dt
            rem_compute[i] = remaining_compute = (
                remaining_compute if remaining_compute > 0.0 else 0.0
            )
            remaining_memory = rem_memory[i] - memory_rate * dt
            rem_memory[i] = remaining_memory = (
                remaining_memory if remaining_memory > 0.0 else 0.0
            )
            if remaining_compute <= _EPS and remaining_memory <= _EPS:
                if record_executions:
                    executions.append(
                        KernelExecution(
                            kernel_name=current[i].name,
                            stream=i,
                            launch_start_ms=launch_start[i],
                            start_ms=run_start[i],
                            end_ms=now,
                        )
                    )
                position[i] += 1
                if position[i] < lengths[i]:
                    kernel = current[i] = streams[i][position[i]]
                    phase[i] = _LAUNCH
                    launch_start[i] = now
                    launch_remaining[i] = kernel.launch_overhead_ms
                    rem_compute[i] = kernel.flops
                    rem_memory[i] = kernel.memory_bytes
                else:
                    phase[i] = _IDLE
                    pending -= 1
                dirty = True
    return now
