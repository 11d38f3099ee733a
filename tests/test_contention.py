"""Unit tests for the multi-stream contention simulator."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.hardware import (
    build_kernel,
    get_device,
    simulate_streams,
    waterfill_allocation,
)
from repro.ir.ops import Conv2d
from repro.ir.tensor import TensorShape
from repro.runtime import ExecutionStage, Executor


def conv_op(out_channels=384, name="c", batch=1):
    conv = Conv2d(name, ["x"], out_channels=out_channels, kernel=3)
    conv.bind([TensorShape(batch, 384, 15, 15)])
    return conv


def conv_kernel(device, out_channels=384, name="c", batch=1):
    return build_kernel(conv_op(out_channels, name, batch), device)


class TestWaterfill:
    def test_under_subscription_gives_full_demand(self):
        assert waterfill_allocation([10, 20], 100) == [10.0, 20.0]

    def test_over_subscription_fair_share(self):
        allocation = waterfill_allocation([100, 100], 100)
        assert allocation == [50.0, 50.0]

    def test_small_demand_satisfied_first(self):
        allocation = waterfill_allocation([10, 1000], 100)
        assert allocation[0] == 10.0
        assert allocation[1] == pytest.approx(90.0)

    def test_total_never_exceeds_capacity(self):
        allocation = waterfill_allocation([7, 13, 29, 500], 40)
        assert sum(allocation) <= 40 + 1e-9

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            waterfill_allocation([1, 2], 0)
        with pytest.raises(ValueError):
            waterfill_allocation([0, 2], 10)

    def test_empty_demands(self):
        assert waterfill_allocation([], 10) == []

    @given(
        demands=st.lists(st.integers(1, 500), min_size=1, max_size=8),
        capacity=st.integers(1, 400),
    )
    def test_waterfill_properties(self, demands, capacity):
        allocation = waterfill_allocation(demands, capacity)
        assert len(allocation) == len(demands)
        assert sum(allocation) <= capacity + 1e-6
        for got, want in zip(allocation, demands):
            assert -1e-9 <= got <= want + 1e-9
        # Work-conserving: either everyone is satisfied or capacity is exhausted.
        if sum(demands) >= capacity:
            assert sum(allocation) == pytest.approx(capacity)
        else:
            assert allocation == pytest.approx(list(map(float, demands)))


class TestSingleKernelSimulation:
    def test_single_kernel_matches_closed_form(self, v100):
        kernel = conv_kernel(v100)
        result = simulate_streams([[kernel]], v100)
        assert result.latency_ms == pytest.approx(kernel.duration_alone_ms(v100), rel=1e-6)

    def test_empty_streams(self, v100):
        assert simulate_streams([], v100).latency_ms == 0.0
        assert simulate_streams([[], []], v100).latency_ms == 0.0

    def test_execution_record(self, v100):
        kernel = conv_kernel(v100)
        result = simulate_streams([[kernel]], v100)
        execution = result.execution_of("c")
        assert execution.launch_start_ms == 0.0
        assert execution.start_ms == pytest.approx(kernel.launch_overhead_ms)
        assert execution.end_ms == pytest.approx(result.latency_ms)
        with pytest.raises(KeyError):
            result.execution_of("missing")

    def test_trace_recording(self, v100):
        kernel = conv_kernel(v100)
        with_trace = simulate_streams([[kernel]], v100, record_trace=True)
        without = simulate_streams([[kernel]], v100, record_trace=False)
        assert without.timeline == []
        assert with_trace.timeline
        assert with_trace.average_active_warps() > 0
        # 48 blocks x 8 warps/block resident while the kernel runs.
        assert max(seg.active_warps for seg in with_trace.timeline) == 48 * 8


class TestMultiStreamBehaviour:
    def test_two_small_kernels_overlap(self, v100):
        a = conv_kernel(v100, 384, "a")
        b = conv_kernel(v100, 384, "b")
        concurrent = simulate_streams([[a], [b]], v100).latency_ms
        sequential = simulate_streams([[a, b]], v100).latency_ms
        # Two 30%-occupancy kernels fit side by side: concurrent execution is
        # much faster than the back-to-back run but slower than a single kernel
        # (memory contention).
        assert concurrent < 0.7 * sequential
        assert concurrent >= simulate_streams([[a]], v100).latency_ms

    def test_fifo_order_within_stream(self, v100):
        a = conv_kernel(v100, 384, "a")
        b = conv_kernel(v100, 384, "b")
        result = simulate_streams([[a, b]], v100)
        assert result.execution_of("a").end_ms <= result.execution_of("b").start_ms + 1e-9

    def test_oversubscription_contention_penalty(self, v100):
        # Three 768-channel convolutions oversubscribe the 160 slots; with the
        # contention term the concurrent latency exceeds the ideal work-conserving
        # bound but stays below fully sequential execution.
        kernels = [conv_kernel(v100, 768, f"k{i}") for i in range(3)]
        concurrent = simulate_streams([[k] for k in kernels], v100).latency_ms
        sequential = simulate_streams([kernels], v100).latency_ms
        # Ideal work-conserving bound: all FLOPs at full-device rate, no
        # launch/contention overheads.
        total_flops = sum(k.flops for k in kernels)
        ideal = total_flops / (v100.peak_flops_per_ms * kernels[0].efficiency)
        assert concurrent < sequential
        assert concurrent > ideal

    def test_contention_alpha_zero_removes_penalty(self, v100):
        no_contention = v100.scaled(contention_alpha=0.0)
        kernels = [conv_kernel(no_contention, 384, f"k{i}") for i in range(2)]
        with_contention = simulate_streams([[k] for k in kernels], v100).latency_ms
        without = simulate_streams([[k] for k in kernels], no_contention).latency_ms
        assert without <= with_contention

    def test_more_streams_than_work_is_not_faster_than_device_limit(self, v100):
        kernels = [conv_kernel(v100, 384, f"k{i}") for i in range(8)]
        concurrent = simulate_streams([[k] for k in kernels], v100).latency_ms
        total_flops = sum(k.flops for k in kernels)
        ideal_compute = total_flops / (v100.peak_flops_per_ms * 0.92)
        assert concurrent >= ideal_compute

    def test_weak_device_suffers_more_from_concurrency(self, v100, k80):
        kernels_v100 = [conv_kernel(v100, 768, f"k{i}") for i in range(4)]
        kernels_k80 = [conv_kernel(k80, 768, f"k{i}") for i in range(4)]
        v100_ratio = (
            simulate_streams([[k] for k in kernels_v100], v100).latency_ms
            / simulate_streams([kernels_v100], v100).latency_ms
        )
        k80_ratio = (
            simulate_streams([[k] for k in kernels_k80], k80).latency_ms
            / simulate_streams([kernels_k80], k80).latency_ms
        )
        # Relative benefit of concurrency is smaller (ratio closer to 1) on the K80.
        assert k80_ratio > v100_ratio

    def test_timeline_is_contiguous_and_ordered(self, v100):
        kernels = [conv_kernel(v100, 384, f"k{i}") for i in range(3)]
        result = simulate_streams([[k] for k in kernels], v100, record_trace=True)
        for first, second in zip(result.timeline, result.timeline[1:]):
            assert second.start_ms >= first.start_ms
            assert first.end_ms <= second.end_ms + 1e-9

    def test_deterministic(self, v100):
        kernels = [conv_kernel(v100, 384, f"k{i}") for i in range(3)]
        first = simulate_streams([[k] for k in kernels], v100).latency_ms
        second = simulate_streams([[k] for k in kernels], v100).latency_ms
        assert first == second

    @given(num_streams=st.integers(1, 5), channels=st.sampled_from([64, 128, 384, 768]))
    def test_latency_bounds_property(self, num_streams, channels):
        device = get_device("v100")
        kernels = [conv_kernel(device, channels, f"k{i}") for i in range(num_streams)]
        concurrent = simulate_streams([[k] for k in kernels], device).latency_ms
        sequential = simulate_streams([kernels], device).latency_ms
        slowest = max(k.duration_alone_ms(device) for k in kernels)
        assert concurrent <= sequential + 1e-9
        assert concurrent >= slowest - 1e-9


class TestExecutorStage:
    def test_one_stream_per_group(self, v100):
        a, b = conv_op(384, "a"), conv_op(768, "b")
        event = Executor(v100).run_stage(ExecutionStage(groups=[[a], [b]])).event
        assert event.num_groups == 2
        assert event.num_kernels == 2
        assert event.flops == a.flops() + b.flops()

    def test_sync_overhead_added_per_extra_stream(self, v100):
        a, b = conv_op(384, "a"), conv_op(384, "b")
        executor = Executor(v100)
        one_stream = executor.run_stage(ExecutionStage(groups=[[a, b]])).latency_ms
        no_sync = simulate_streams(
            [[executor.kernel(a), executor.kernel(b)]], v100
        ).latency_ms
        assert one_stream == no_sync + v100.stream_sync_overhead_ms
        two_streams = executor.run_stage(ExecutionStage(groups=[[a], [b]])).latency_ms
        assert two_streams < one_stream
