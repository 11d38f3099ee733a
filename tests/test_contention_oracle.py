"""The flat contention simulator equals the per-stream-object loop it replaced.

:func:`repro.hardware.contention.simulate_streams` runs every stage, a
single stream included, through one event loop over flat per-stream lists
and builds the latency cache key from each kernel's precomputed ``sim_key``.
The oracle below is a verbatim copy of the loop it replaced —
``_StreamState`` objects, one per stream — with private caches, so it never
reads a value the simulator under test computed.  Over generated stages (1–7 streams of 1–3
kernels, random block counts, efficiencies, work and zero-work kernels) the
two must agree to the last bit in all three recording modes: latency only,
executions, and timeline.
"""

from __future__ import annotations

import math
from typing import Sequence

import pytest
from hypothesis import given, settings, strategies as st

from repro.hardware import DeviceSpec, KernelSpec, get_device
from repro.hardware import contention
from repro.hardware.contention import (
    _EPS,
    _LATENCY_CACHE_LIMIT,
    _RATES_CACHE_LIMIT,
    KernelExecution,
    SimulationResult,
    TimelineSegment,
    _waterfill_cached,
    simulate_streams,
)

_ORACLE_RATES_CACHE: dict[tuple, dict[tuple, tuple]] = {}
_ORACLE_LATENCY_CACHE: dict[tuple, dict[tuple, float]] = {}


def _oracle_kernel_value(kernel: KernelSpec) -> tuple:
    return (
        kernel.num_blocks,
        kernel.efficiency,
        kernel.flops,
        kernel.memory_bytes,
        kernel.launch_overhead_ms,
    )


class _StreamState:
    """Mutable execution state of one stream."""

    __slots__ = ("kernels", "index", "phase", "launch_remaining", "rem_compute", "rem_memory",
                 "launch_start", "run_start", "stream_id")

    def __init__(self, kernels: Sequence[KernelSpec], stream_id: int = 0):
        self.kernels = list(kernels)
        self.stream_id = stream_id
        self.index = 0
        self.phase = "idle"
        self.launch_remaining = 0.0
        self.rem_compute = 0.0
        self.rem_memory = 0.0
        self.launch_start = 0.0
        self.run_start = 0.0

    @property
    def done(self) -> bool:
        return self.index >= len(self.kernels)

    @property
    def current(self) -> KernelSpec:
        return self.kernels[self.index]

    def begin_launch(self, now: float) -> None:
        kernel = self.current
        self.phase = "launch"
        self.launch_start = now
        self.launch_remaining = kernel.launch_overhead_ms
        self.rem_compute = kernel.flops
        self.rem_memory = kernel.memory_bytes

    def begin_run(self, now: float) -> None:
        self.phase = "run"
        self.run_start = now


def oracle_simulate_streams(
    streams: Sequence[Sequence[KernelSpec]],
    device: DeviceSpec,
    record_trace: bool = False,
    record_executions: bool = True,
) -> SimulationResult:
    """The pre-flattening ``simulate_streams``, verbatim but for its caches."""
    states = []
    for stream_id, kernels in enumerate(streams):
        if len(kernels) > 0:
            states.append(_StreamState(kernels, len(states)))
    result = SimulationResult(latency_ms=0.0)
    if not states:
        return result

    latency_only = not record_trace and not record_executions
    latency_cache: dict[tuple, float] | None = None
    cache_key: tuple = ()
    if latency_only:
        cache_key = tuple(
            tuple(_oracle_kernel_value(k) for k in state.kernels) for state in states
        )
        latency_cache = _ORACLE_LATENCY_CACHE.setdefault(
            (
                device.total_block_slots,
                device.flops_per_slot_ms,
                device.bandwidth_bytes_per_ms,
                device.contention_alpha,
            ),
            {},
        )
        cached_latency = latency_cache.get(cache_key)
        if cached_latency is not None:
            result.latency_ms = cached_latency
            return result

    now = 0.0
    for state in states:
        state.begin_launch(now)

    pending = len(states)
    guard = 0
    max_iterations = 4 * sum(len(s.kernels) for s in states) + 16
    capacity = device.total_block_slots
    flops_per_slot = device.flops_per_slot_ms
    bandwidth = device.bandwidth_bytes_per_ms
    contention_alpha = device.contention_alpha
    rates_cache = _ORACLE_RATES_CACHE.setdefault(
        (capacity, flops_per_slot, bandwidth, contention_alpha), {}
    )
    launching: list[_StreamState] = []
    running: list[_StreamState] = []
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
            # A stream's phase is "idle" exactly when it has drained (every
            # stream begins launching immediately), so phase alone suffices.
            launching = [s for s in states if s.phase == "launch"]
            running = [s for s in states if s.phase == "run"]

            # --- compute resource allocation for running kernels ------------
            # Wave-quantised compute rates and contended bandwidth shares,
            # memoised on the resident kernels' (num_blocks, efficiency)
            # combination.
            if running:
                combo = tuple(
                    (k.num_blocks, k.efficiency)
                    for k in [s.kernels[s.index] for s in running]
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
        dt = math.inf
        for state in launching:
            if state.launch_remaining < dt:
                dt = state.launch_remaining
        for state, (compute_rate, memory_rate) in zip(running, rates):
            ttf = 0.0
            if state.rem_compute > _EPS:
                ttf = max(ttf, state.rem_compute / compute_rate if compute_rate > 0 else math.inf)
            if state.rem_memory > _EPS:
                ttf = max(ttf, state.rem_memory / memory_rate if memory_rate > 0 else math.inf)
            dt = min(dt, ttf)
        if math.isinf(dt):
            # Only zero-work kernels remain; let them finish instantly.
            dt = 0.0

        # --- advance time -----------------------------------------------------
        if record_trace and running and dt > 0:
            active_warps = int(
                round(
                    sum(
                        min(slots, s.current.num_blocks) * s.current.warps_per_block
                        for s, slots in zip(running, alloc)
                    )
                )
            )
            result.timeline.append(
                TimelineSegment(
                    start_ms=now,
                    end_ms=now + dt,
                    active_kernels=tuple(s.current.name for s in running),
                    active_warps=active_warps,
                )
            )
        now += dt

        for state in launching:
            state.launch_remaining -= dt
            if state.launch_remaining <= _EPS:
                state.begin_run(now)
                dirty = True
        for state, (compute_rate, memory_rate) in zip(running, rates):
            rem_compute = state.rem_compute - compute_rate * dt
            state.rem_compute = rem_compute = rem_compute if rem_compute > 0.0 else 0.0
            rem_memory = state.rem_memory - memory_rate * dt
            state.rem_memory = rem_memory = rem_memory if rem_memory > 0.0 else 0.0
            if rem_compute <= _EPS and rem_memory <= _EPS:
                if record_executions:
                    kernel = state.current
                    result.executions.append(
                        KernelExecution(
                            kernel_name=kernel.name,
                            stream=state.stream_id,
                            launch_start_ms=state.launch_start,
                            start_ms=state.run_start,
                            end_ms=now,
                        )
                    )
                state.index += 1
                if not state.done:
                    state.begin_launch(now)
                else:
                    state.phase = "idle"
                    pending -= 1
                dirty = True

    result.latency_ms = now
    if latency_cache is not None:
        if len(latency_cache) >= _LATENCY_CACHE_LIMIT:
            latency_cache.clear()
        latency_cache[cache_key] = now
    return result


# --------------------------------------------------------------------------- #
# The property                                                                #
# --------------------------------------------------------------------------- #
DEVICES = [get_device("v100"), get_device("k80")]
#: ``(record_trace, record_executions)``: latency only, executions, timeline
#: with executions, timeline alone.
MODES = [(False, False), (False, True), (True, True), (True, False)]


@st.composite
def kernels(draw, stream: int, position: int) -> KernelSpec:
    zero_work = draw(st.integers(0, 4)) == 0
    return KernelSpec(
        name=f"s{stream}k{position}",
        op_kind="conv2d",
        flops=0.0 if zero_work else draw(st.floats(0.0, 5e9)),
        memory_bytes=0.0 if zero_work else draw(st.floats(0.0, 5e8)),
        num_blocks=draw(st.integers(1, 3000)),
        warps_per_block=draw(st.sampled_from([4, 8])),
        efficiency=draw(st.floats(0.05, 1.0)),
        launch_overhead_ms=draw(st.sampled_from([0.0, 0.0035, 0.007, 0.02])),
    )


@st.composite
def stages(draw) -> list[list[KernelSpec]]:
    num_streams = draw(st.integers(1, 7))
    return [
        [draw(kernels(stream, position)) for position in range(draw(st.integers(1, 3)))]
        for stream in range(num_streams)
    ]


def _fresh_caches() -> None:
    """Empty both latency caches so each side simulates instead of recalling."""
    contention._LATENCY_CACHE.clear()
    _ORACLE_LATENCY_CACHE.clear()


@pytest.mark.parametrize("record_trace, record_executions", MODES)
@settings(max_examples=150, deadline=None)
@given(streams=stages(), device=st.sampled_from(DEVICES))
def test_flat_loop_equals_the_stream_state_oracle(
    streams, device, record_trace, record_executions
):
    _fresh_caches()
    expected = oracle_simulate_streams(streams, device, record_trace, record_executions)
    actual = simulate_streams(streams, device, record_trace, record_executions)
    assert repr(actual.latency_ms) == repr(expected.latency_ms)
    assert actual.executions == expected.executions
    assert actual.timeline == expected.timeline
    # The second latency-only call is answered from the cache, bit for bit.
    again = simulate_streams(streams, device, record_trace, record_executions)
    assert repr(again.latency_ms) == repr(expected.latency_ms)


@given(streams=stages(), device=st.sampled_from(DEVICES))
@settings(max_examples=50, deadline=None)
def test_empty_streams_keep_their_stream_ids(streams, device):
    # Empty streams are dropped; stream ids count the non-empty ones only.
    padded = [[]] + [s for pair in zip(streams, [[]] * len(streams)) for s in pair]
    _fresh_caches()
    expected = oracle_simulate_streams(padded, device)
    actual = simulate_streams(padded, device)
    assert actual.executions == expected.executions
    assert repr(actual.latency_ms) == repr(expected.latency_ms)
