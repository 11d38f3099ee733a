"""Unit tests for the IOS dynamic-programming scheduler (Algorithm 1)."""

from __future__ import annotations


import pytest

from repro.core import (
    FlopsCostModel,
    count_transitions_and_states,
    IOSScheduler,
    ParallelizationStrategy,
    PruningStrategy,
    SchedulerConfig,
    SimulatedCostModel,
    greedy_schedule,
    measure_schedule,
    schedule_latency_ms,
    sequential_schedule,
)
from repro.frontend import load
from repro.models import chain_graph, diamond_graph, figure2_block, figure5_graph


def brute_force_optimal_latency(graph, cost_model) -> float:
    """Optimal schedule latency by enumerating every ordered partition.

    Only feasible for tiny graphs; each stage uses the better strategy, exactly
    like GENERATE STAGE does.
    """
    names = graph.schedulable_names()

    def helper(remaining: frozenset) -> float:
        if not remaining:
            return 0.0
        best = float("inf")
        # Enumerate endings of `remaining` by brute force.
        members = sorted(remaining)
        for size in range(1, len(members) + 1):
            from itertools import combinations

            for subset in combinations(members, size):
                subset_set = set(subset)
                outside = remaining - subset_set
                valid = all(
                    succ not in outside
                    for op in subset
                    for succ in graph.successors(op)
                    if succ in remaining
                )
                if not valid:
                    continue
                choice = cost_model.generate_stage(graph, list(subset))
                best = min(best, choice.latency_ms + helper(frozenset(outside)))
        return best

    return helper(frozenset(names))


class TestOptimality:
    @pytest.mark.parametrize("graph_factory", [figure5_graph, diamond_graph, figure2_block])
    def test_dp_matches_brute_force(self, graph_factory, v100):
        graph = graph_factory()
        cost_model = SimulatedCostModel(v100)
        scheduler = IOSScheduler(cost_model, SchedulerConfig(pruning=PruningStrategy.unpruned()))
        result = scheduler.optimize_graph(graph)
        brute = brute_force_optimal_latency(graph, cost_model)
        assert result.predicted_latency_ms == pytest.approx(brute, rel=1e-9)

    @pytest.mark.parametrize("seed", range(20))
    def test_dp_matches_brute_force_on_random_dags(self, seed, random_graph_factory, v100):
        # One block, so the per-block DP and the whole-graph brute force
        # search the same operator set: six generated operators plus, when
        # the block has several leaves, the concat that joins them.
        graph = random_graph_factory(seed, num_blocks=1, ops_per_block=6)
        assert len(graph.schedulable_names()) <= 7
        cost_model = SimulatedCostModel(v100)
        scheduler = IOSScheduler(cost_model, SchedulerConfig(pruning=PruningStrategy.unpruned()))
        result = scheduler.optimize_graph(graph)
        brute = brute_force_optimal_latency(graph, cost_model)
        assert result.predicted_latency_ms == pytest.approx(brute, rel=1e-9)

    def test_ios_never_worse_than_sequential_or_greedy(self, v100):
        for factory in (figure5_graph, diamond_graph, figure2_block):
            graph = factory()
            scheduler = IOSScheduler(SimulatedCostModel(v100))
            ios = scheduler.optimize_graph(graph).schedule
            ios_latency = schedule_latency_ms(graph, ios, v100)
            assert ios_latency <= schedule_latency_ms(graph, sequential_schedule(graph), v100) + 1e-9
            assert ios_latency <= schedule_latency_ms(graph, greedy_schedule(graph), v100) + 1e-9

    def test_chain_uses_no_parallelism(self, v100):
        # A pure chain offers no inter-operator parallelism: IOS may pack
        # consecutive operators into one single-group stage (saving stage
        # synchronisations) but must never claim concurrency.
        graph = chain_graph(length=5)
        result = IOSScheduler(SimulatedCostModel(v100)).optimize_graph(graph)
        for stage in result.schedule.stages:
            assert len(stage.groups(graph)) == 1
        ios_latency = schedule_latency_ms(graph, result.schedule, v100)
        seq_latency = schedule_latency_ms(graph, sequential_schedule(graph), v100)
        assert ios_latency <= seq_latency + 1e-9

    def test_figure2_finds_balanced_two_stage_schedule(self, fig2, v100):
        result = IOSScheduler(SimulatedCostModel(v100)).optimize_graph(fig2)
        stages = [set(stage.operators) for stage in result.schedule.stages]
        # The paper's optimal schedule runs {a, d} then {b, c} (then the concat).
        assert {"conv_a", "conv_d"} in stages
        assert {"conv_b", "conv_c"} in stages

    def test_predicted_latency_close_to_executed(self, fig2, v100):
        result = IOSScheduler(SimulatedCostModel(v100)).optimize_graph(fig2)
        executed = measure_schedule(fig2, result.schedule, v100).latency_ms
        assert result.predicted_latency_ms == pytest.approx(executed, rel=0.05)


class TestVariants:
    @pytest.mark.parametrize(
        "strategies", [(), ("concurrent",), ("concurrent execution",), [None]]
    )
    def test_config_rejects_strategy_sets_it_cannot_run(self, strategies):
        with pytest.raises(ValueError, match="ParallelizationStrategy.CONCURRENT") as error:
            SchedulerConfig(strategies=strategies)
        assert "ParallelizationStrategy.MERGE" in str(error.value)

    def test_variant_configs(self):
        both = SchedulerConfig.variant("ios-both")
        parallel = SchedulerConfig.variant("ios-parallel")
        merge = SchedulerConfig.variant("ios-merge")
        assert ParallelizationStrategy.MERGE in both.strategies
        assert parallel.strategies == (ParallelizationStrategy.CONCURRENT,)
        assert merge.strategies == (ParallelizationStrategy.MERGE,)
        with pytest.raises(KeyError):
            SchedulerConfig.variant("ios-quantum")

    def test_ios_both_at_least_as_good_as_restricted_variants(self, v100):
        graph = load("squeezenet")
        latencies = {}
        for variant in ("ios-both", "ios-parallel", "ios-merge"):
            scheduler = IOSScheduler(SimulatedCostModel(v100), SchedulerConfig.variant(variant))
            schedule = scheduler.optimize_graph(graph).schedule
            latencies[variant] = schedule_latency_ms(graph, schedule, v100)
        assert latencies["ios-both"] <= latencies["ios-parallel"] + 1e-9
        assert latencies["ios-both"] <= latencies["ios-merge"] + 1e-9

    def test_ios_merge_on_unmergeable_graph_equals_sequential(self, v100):
        # RandWire-style separable convolutions cannot merge, so IOS-Merge
        # degenerates to the sequential schedule (Section 6.1): every stage is
        # a single operator and the latency matches the sequential baseline.
        graph = load("randwire", nodes_per_stage=6)
        scheduler = IOSScheduler(SimulatedCostModel(v100), SchedulerConfig.variant("ios-merge"))
        merge_schedule = scheduler.optimize_graph(graph).schedule
        assert all(len(stage) == 1 for stage in merge_schedule.stages)
        seq_latency = schedule_latency_ms(graph, sequential_schedule(graph), v100)
        assert schedule_latency_ms(graph, merge_schedule, v100) == pytest.approx(seq_latency, rel=0.02)


class TestPruningAndStats:
    def test_pruning_reduces_transitions(self, fig2, v100):
        unpruned = IOSScheduler(
            SimulatedCostModel(v100), SchedulerConfig(pruning=PruningStrategy.unpruned())
        ).optimize_graph(fig2)
        pruned = IOSScheduler(
            SimulatedCostModel(v100), SchedulerConfig(pruning=PruningStrategy(1, 2))
        ).optimize_graph(fig2)
        assert pruned.total_transitions < unpruned.total_transitions
        # Pruning can only make the schedule worse or equal.
        assert pruned.predicted_latency_ms >= unpruned.predicted_latency_ms - 1e-9

    def test_stats_fields(self, fig2, v100):
        result = IOSScheduler(SimulatedCostModel(v100)).optimize_graph(fig2)
        stats = result.block_stats[0]
        assert stats.num_operators == 5
        assert stats.width == 3
        transitions, states = count_transitions_and_states(
            fig2, fig2.schedulable_names(), PruningStrategy(3, 8)
        )
        assert stats.num_transitions == transitions
        assert stats.num_states == states - 1  # the oracle counts the empty state
        assert stats.num_measurements > 0
        assert stats.elapsed_s >= 0
        assert result.total_measurements == sum(s.num_measurements for s in result.block_stats)

    def test_schedule_is_valid(self, v100):
        graph = load("squeezenet")
        result = IOSScheduler(SimulatedCostModel(v100)).optimize_graph(graph)
        result.schedule.validate(graph)
        assert result.schedule.origin.startswith("ios-both")


class TestCountersMatchTheTable1Oracle:
    def test_every_squeezenet_and_inception_block(self, v100):
        # The branch-and-bound skips pricing endings, never visiting them:
        # the DP's transitions and states are exactly Table 1's counts.
        checked = 0
        for model in ("squeezenet", "inception_v3"):
            graph = load(model)
            config = SchedulerConfig(reuse_identical_blocks=False)
            scheduler = IOSScheduler(SimulatedCostModel(v100), config)
            for block in graph.blocks:
                _, stats = scheduler.optimize_block(graph, block, use_memo=False)
                transitions, states = count_transitions_and_states(
                    graph, graph.schedulable_names(block), config.pruning
                )
                assert (stats.num_transitions, stats.num_states) == (transitions, states - 1)
                checked += 1
        assert checked == 23


def repeated_blocks_graph(num_blocks: int = 3):
    """A graph of ``num_blocks`` structurally identical two-branch blocks."""
    from repro.ir import GraphBuilder, TensorShape

    builder = GraphBuilder("repeated", TensorShape(1, 64, 14, 14))
    x = builder.input_name
    for i in range(num_blocks):
        with builder.block(f"block_{i}"):
            left = builder.conv2d(f"b{i}_left", x, out_channels=32, kernel=3)
            right = builder.conv2d(f"b{i}_right", x, out_channels=32, kernel=3)
            x = builder.concat(f"b{i}_concat", [left, right])
    return builder.build()


class TestBlockReuse:
    def test_identical_blocks_share_one_search(self, v100):
        graph = repeated_blocks_graph(4)
        scheduler = IOSScheduler(SimulatedCostModel(v100))
        result = scheduler.optimize_graph(graph)
        reused = [s for s in result.block_stats if s.reused_from is not None]
        # block_0 consumes the 64-channel input, blocks 1..3 the 64-channel
        # concat: blocks 2 and 3 must reuse block 1's search.
        assert len(reused) >= 2
        for stats in reused:
            assert stats.num_measurements == 0

    def test_reuse_can_be_disabled(self, v100):
        graph = repeated_blocks_graph(3)
        config = SchedulerConfig(reuse_identical_blocks=False)
        result = IOSScheduler(SimulatedCostModel(v100), config).optimize_graph(graph)
        assert all(s.reused_from is None for s in result.block_stats)

    def test_reused_schedule_is_still_valid_and_equal_quality(self, v100):
        graph = repeated_blocks_graph(3)
        with_reuse = IOSScheduler(SimulatedCostModel(v100)).optimize_graph(graph)
        without = IOSScheduler(
            SimulatedCostModel(v100), SchedulerConfig(reuse_identical_blocks=False)
        ).optimize_graph(graph)
        with_reuse.schedule.validate(graph)
        assert schedule_latency_ms(graph, with_reuse.schedule, v100) == pytest.approx(
            schedule_latency_ms(graph, without.schedule, v100), rel=0.02
        )
