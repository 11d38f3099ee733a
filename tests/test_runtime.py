"""Unit tests for repro.runtime: executor, warp tracing, memory planner."""

from __future__ import annotations

import pytest

from repro.frontend import load
from repro.models import figure2_block
from repro.obs import Tracer
from repro.runtime import (
    ExecutionPlan,
    ExecutionStage,
    Executor,
    MemoryPlanner,
    OutOfMemoryError,
    sequential_plan,
)
from repro.runtime.events import add_execution_spans
from repro.runtime.warp_trace import WarpTrace, compare_traces, trace_from_timeline


class TestExecutor:
    def test_sequential_plan_covers_kernel_operators(self, fig2):
        plan = sequential_plan(fig2)
        assert plan.num_stages() == 5
        assert plan.batch_size == 1
        assert plan.flops() == pytest.approx(fig2.total_flops())

    def test_run_produces_monotone_stage_times(self, fig2, v100):
        result = Executor(v100).run(sequential_plan(fig2))
        events = result.stage_events()
        assert len(events) == 5
        for first, second in zip(events, events[1:]):
            assert second.start_ms == pytest.approx(first.end_ms)
        assert result.latency_ms == pytest.approx(events[-1].end_ms)

    def test_concurrent_stage_faster_than_sequential(self, fig2, v100):
        ops = [fig2.nodes["conv_a"], fig2.nodes["conv_c"]]
        sequential = ExecutionPlan("seq", [ExecutionStage(groups=[[op]]) for op in ops])
        concurrent = ExecutionPlan("par", [ExecutionStage(groups=[[ops[0]], [ops[1]]])])
        executor = Executor(v100)
        assert executor.latency_ms(concurrent) < executor.latency_ms(sequential)

    def test_empty_stage_costs_nothing(self, v100):
        plan = ExecutionPlan("empty", [ExecutionStage(groups=[[]])])
        assert Executor(v100).latency_ms(plan) == 0.0

    def test_throughput(self, fig2, v100):
        result = Executor(v100).run(sequential_plan(fig2))
        assert result.throughput() == pytest.approx(1 / (result.latency_ms / 1e3))

    def test_batch_increases_latency_but_also_throughput(self, v100):
        graph1 = figure2_block(batch_size=1)
        graph8 = figure2_block(batch_size=8)
        executor = Executor(v100)
        result1 = executor.run(sequential_plan(graph1))
        result8 = executor.run(sequential_plan(graph8))
        assert result8.latency_ms > result1.latency_ms
        assert result8.throughput() > result1.throughput()

    def test_record_trace_produces_timeline(self, fig2, v100):
        result = Executor(v100, record_trace=True).run(sequential_plan(fig2))
        assert result.timeline()
        assert Executor(v100, record_trace=False).run(sequential_plan(fig2)).timeline() == []

    def test_kernel_events_in_global_time(self, fig2, v100):
        result = Executor(v100).run(sequential_plan(fig2))
        kernel_events = result.kernel_events()
        assert len(kernel_events) == 5
        assert kernel_events[1].start_ms >= kernel_events[0].end_ms - 1e-9


class TestExecutionSpans:
    def test_every_replay_shares_one_rendering(self, fig2, v100):
        result = Executor(v100).run(sequential_plan(fig2))
        tracer = Tracer()
        add_execution_spans(tracer, result, "worker 0 (v100)", 10.0)
        add_execution_spans(tracer, result, "worker 1 (v100)", 20.0)
        assert result.trace_spans is result.trace_spans
        first, second = tracer.records[:len(tracer) // 2], tracer.records[len(tracer) // 2:]
        assert all(a.args is b.args for a, b in zip(first, second))
        assert [r.track for r in second[:2]] == ["worker 1 (v100)/stages"] * 2

    def test_dispatches_on_one_worker_share_track_strings(self, fig2, v100):
        result = Executor(v100).run(sequential_plan(fig2))
        tracer = Tracer()
        # Built at run time, as the serving loop builds each dispatch's prefix.
        for worker in (0, 0):
            add_execution_spans(tracer, result, f"worker {worker} (v100)", 10.0)
        first, second = tracer.records[:len(tracer) // 2], tracer.records[len(tracer) // 2:]
        assert all(a.track is b.track for a, b in zip(first, second))

    def test_spans_are_the_events_rebased(self, fig2, v100):
        result = Executor(v100).run(sequential_plan(fig2))
        tracer = Tracer()
        add_execution_spans(tracer, result, "w", 2.5)
        stages, kernels = result.stage_events(), result.kernel_events()
        expected = [
            ("span", event.label, "w/stages", 2.5 + event.start_ms,
             max(0.0, (2.5 + event.end_ms) - (2.5 + event.start_ms)), "stage", None,
             {"strategy": event.strategy, "groups": event.num_groups,
              "kernels": event.num_kernels, "gflops": event.gflops})
            for event in stages
        ] + [
            ("span", event.kernel_name, f"w/stream {event.stream}",
             2.5 + event.start_ms,
             max(0.0, (2.5 + event.end_ms) - (2.5 + event.start_ms)), "kernel", None,
             {"stage": event.stage_index})
            for event in kernels
        ]
        assert tracer.records == expected


class TestWarpTrace:
    def test_trace_sampling(self, fig2, v100):
        result = Executor(v100, record_trace=True).run(sequential_plan(fig2))
        trace = trace_from_timeline(result.timeline(), sample_period_ms=0.01)
        assert trace.num_samples > 0
        assert trace.duration_ms == pytest.approx(result.latency_ms, rel=0.05)
        assert 0 < trace.average_active_warps() <= v100.max_active_warps

    def test_empty_timeline(self):
        trace = trace_from_timeline([], sample_period_ms=0.01)
        assert trace.num_samples == 0
        assert trace.average_active_warps() == 0.0
        assert trace.warps_per_ms() == 0.0

    def test_invalid_period(self):
        with pytest.raises(ValueError):
            trace_from_timeline([], sample_period_ms=0.0)

    def test_compare_traces(self):
        base = WarpTrace(0.01, (100.0, 100.0), 0.02)
        better = WarpTrace(0.01, (150.0, 250.0), 0.02)
        assert compare_traces(base, better) == pytest.approx(2.0)
        empty = WarpTrace(0.01, (), 0.0)
        assert compare_traces(empty, better) == float("inf")
        assert compare_traces(empty, empty) == 1.0


class TestMemoryPlanner:
    def test_liveness_reuse_smaller_than_sum(self):
        graph = load("squeezenet", batch_size=8)
        reuse = MemoryPlanner(activation_reuse=True).plan(graph)
        hoard = MemoryPlanner(activation_reuse=False).plan(graph)
        assert reuse.peak_activation_bytes < hoard.peak_activation_bytes
        assert reuse.weight_bytes == hoard.weight_bytes == graph.total_weight_bytes()

    def test_activation_copies_multiplier(self, diamond):
        single = MemoryPlanner(activation_copies=1).plan(diamond)
        double = MemoryPlanner(activation_copies=2).plan(diamond)
        assert double.peak_activation_bytes == 2 * single.peak_activation_bytes

    def test_peak_scales_with_batch(self):
        graph1 = figure2_block(batch_size=1)
        graph64 = figure2_block(batch_size=64)
        planner = MemoryPlanner()
        assert planner.plan(graph64).peak_activation_bytes > 32 * planner.plan(graph1).peak_activation_bytes

    def test_check_raises_on_oom(self, v100):
        graph = figure2_block(batch_size=4096)
        planner = MemoryPlanner(activation_reuse=False)
        with pytest.raises(OutOfMemoryError):
            planner.check(graph, v100)

    def test_check_passes_for_small_graph(self, diamond, v100):
        plan = MemoryPlanner().check(diamond, v100)
        assert plan.fits(v100)
        assert plan.total_gib < 1.0

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            MemoryPlanner(workspace_factor=-1)
        with pytest.raises(ValueError):
            MemoryPlanner(activation_copies=0)
        with pytest.raises(ValueError):
            MemoryPlanner(framework_overhead_bytes=-5)
