"""Unit tests for the cost models and schedule lowering."""

from __future__ import annotations

import pytest

from repro.core import (
    FlopsCostModel,
    ParallelizationStrategy,
    SimulatedCostModel,
    greedy_schedule,
    lower_schedule,
    measure_schedule,
    schedule_latency_ms,
    schedule_throughput,
    sequential_schedule,
    stage_to_execution,
)
from repro.core.cost_model import REPEATS, WARMUP
from repro.models import figure2_block
from repro.runtime import Executor

CONCURRENT = ParallelizationStrategy.CONCURRENT
MERGE = ParallelizationStrategy.MERGE


class TestSimulatedCostModel:
    def test_measurement_is_the_mean_of_the_executor_stage(self, fig2, v100):
        model = SimulatedCostModel(v100)
        stage = stage_to_execution(fig2, ["conv_a", "conv_c"], CONCURRENT)
        executed = Executor(v100).run_stage(stage).latency_ms
        measured = model.stage_latency(fig2, ["conv_a", "conv_c"], CONCURRENT)
        assert measured == sum([executed] * REPEATS) / REPEATS
        assert measured == pytest.approx(executed, rel=1e-15)

    def test_profiling_time_counts_warmup_and_repeats(self, fig2, v100):
        model = SimulatedCostModel(v100)
        executor = Executor(v100)
        stages = [["conv_a"], ["conv_b"]]
        for names in stages:
            model.stage_latency(fig2, names, CONCURRENT)
        assert model.num_measurements == 2
        expected = sum(
            (WARMUP + REPEATS)
            * executor.stage_latency_ms(stage_to_execution(fig2, names, CONCURRENT))
            for names in stages
        )
        assert model.profiling_ms == pytest.approx(expected, rel=1e-12)

    def test_signature_and_spawn_depend_only_on_device_and_profile(self, v100, k80):
        model = SimulatedCostModel(v100)
        assert model.signature() == SimulatedCostModel(v100).signature()
        assert model.signature() != SimulatedCostModel(k80).signature()
        clone = model.spawn()
        assert clone.signature() == model.signature()
        assert clone.num_measurements == 0 and clone.profiling_ms == 0.0

    def test_stage_latency_positive_and_order_insensitive(self, fig2, sim_cost_model):
        first = sim_cost_model.stage_latency(fig2, ["conv_a", "conv_c"], CONCURRENT)
        assert first > 0
        second = sim_cost_model.stage_latency(fig2, ["conv_c", "conv_a"], CONCURRENT)
        assert second == first
        assert sim_cost_model.num_measurements == 2  # every call measures

    def test_concurrent_stage_cheaper_than_two_sequential(self, fig2, sim_cost_model):
        pair = sim_cost_model.stage_latency(fig2, ["conv_a", "conv_c"], CONCURRENT)
        singles = sim_cost_model.stage_latency(fig2, ["conv_a"], CONCURRENT) + \
            sim_cost_model.stage_latency(fig2, ["conv_c"], CONCURRENT)
        assert pair < singles

    def test_generate_stage_picks_cheaper_strategy(self, fig2, sim_cost_model):
        choice = sim_cost_model.generate_stage(fig2, ["conv_c", "conv_d"])
        assert choice.strategy in (CONCURRENT, MERGE)
        both = {
            CONCURRENT: sim_cost_model.stage_latency(fig2, ["conv_c", "conv_d"], CONCURRENT),
            MERGE: sim_cost_model.stage_latency(fig2, ["conv_c", "conv_d"], MERGE),
        }
        assert choice.latency_ms == pytest.approx(min(both.values()))

    def test_generate_stage_merge_only_falls_back_when_unmergeable(self, fig2, sim_cost_model):
        # conv_a -> conv_b are not mergeable (different inputs); restricting the
        # strategies to MERGE must fall back to a sequential concurrent group,
        # exactly how IOS-Merge degenerates to Sequential.
        choice = sim_cost_model.generate_stage(fig2, ["conv_a", "conv_b"], strategies=[MERGE])
        assert choice.strategy is CONCURRENT
        assert choice.latency_ms > 0

    def test_generate_stage_respects_strategy_restriction(self, fig2, sim_cost_model):
        choice = sim_cost_model.generate_stage(fig2, ["conv_c", "conv_d"], strategies=[CONCURRENT])
        assert choice.strategy is CONCURRENT

    def test_batch_size_is_part_of_cache_key(self, sim_cost_model):
        graph1 = figure2_block(batch_size=1)
        graph8 = figure2_block(batch_size=8)
        lat1 = sim_cost_model.stage_latency(graph1, ["conv_a"], CONCURRENT)
        lat8 = sim_cost_model.stage_latency(graph8, ["conv_a"], CONCURRENT)
        assert lat8 > lat1


class TestFlopsCostModel:
    def test_latency_proportional_to_flops(self, fig2, flops_cost_model):
        lat_a = flops_cost_model.stage_latency(fig2, ["conv_a"], CONCURRENT)
        lat_b = flops_cost_model.stage_latency(fig2, ["conv_b"], CONCURRENT)
        flops_ratio = fig2.nodes["conv_b"].flops() / fig2.nodes["conv_a"].flops()
        assert (lat_b - 0.01) / (lat_a - 0.01) == pytest.approx(flops_ratio, rel=1e-6)

    def test_concurrent_groups_cost_max_not_sum(self, fig2, flops_cost_model):
        pair = flops_cost_model.stage_latency(fig2, ["conv_a", "conv_c"], CONCURRENT)
        single = flops_cost_model.stage_latency(fig2, ["conv_a"], CONCURRENT)
        assert pair == pytest.approx(single)

    def test_invalid_rate_rejected(self):
        with pytest.raises(ValueError):
            FlopsCostModel(flops_per_ms=0)


class TestStageToExecution:
    def test_concurrent_stage_groups(self, fig3):
        stage = stage_to_execution(fig3, ["conv_c", "conv_d", "matmul_e"], CONCURRENT)
        assert stage.num_groups == 2
        assert {op.name for group in stage.groups for op in group} == {"conv_c", "conv_d", "matmul_e"}

    def test_merge_stage_contains_single_merged_operator(self, fig3):
        stage = stage_to_execution(fig3, ["conv_a", "conv_b"], MERGE)
        assert stage.num_groups == 1
        assert len(stage.groups[0]) == 1
        assert stage.groups[0][0].name.startswith("merge(")


class TestLowering:
    def test_lowered_plan_latency_matches_measure(self, fig2, v100):
        schedule = greedy_schedule(fig2)
        plan = lower_schedule(fig2, schedule)
        direct = Executor(v100).run(plan).latency_ms
        assert measure_schedule(fig2, schedule, v100).latency_ms == pytest.approx(direct)
        assert schedule_latency_ms(fig2, schedule, v100) == pytest.approx(direct)

    def test_throughput_consistent_with_latency(self, fig2, v100):
        schedule = sequential_schedule(fig2)
        latency = schedule_latency_ms(fig2, schedule, v100)
        assert schedule_throughput(fig2, schedule, v100) == pytest.approx(1e3 / latency)

    def test_lowering_validates_schedule(self, fig2, v100):
        schedule = sequential_schedule(fig2)
        schedule.stages.pop()
        with pytest.raises(Exception):
            lower_schedule(fig2, schedule)

    def test_plan_stage_count_matches_schedule(self, fig2):
        schedule = greedy_schedule(fig2)
        plan = lower_schedule(fig2, schedule)
        assert plan.num_stages() == schedule.num_stages()
