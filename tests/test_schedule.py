"""Unit tests for repro.core.schedule and repro.core.baselines."""

from __future__ import annotations

import json

import pytest

from repro.core import (
    ParallelizationStrategy,
    Schedule,
    ScheduleValidationError,
    Stage,
    connected_groups,
    greedy_schedule,
    sequential_schedule,
)
from repro.frontend import load
from repro.models import figure2_block


class TestStage:
    def test_basic_properties(self):
        stage = Stage(("a", "b"), ParallelizationStrategy.CONCURRENT)
        assert len(stage) == 2
        assert "a" in stage and "c" not in stage

    def test_rejects_empty_and_duplicates(self):
        with pytest.raises(ValueError):
            Stage(())
        with pytest.raises(ValueError):
            Stage(("a", "a"))

    def test_dict_roundtrip(self):
        stage = Stage(("x", "y"), ParallelizationStrategy.MERGE)
        rebuilt = Stage.from_dict(stage.to_dict())
        assert rebuilt == stage

    def test_groups_follow_edges(self, fig3):
        # {conv_c, conv_d, matmul_e}: c-d are chained (same group), e is alone.
        stage = Stage(("conv_c", "conv_d", "matmul_e"))
        groups = stage.groups(fig3)
        assert sorted(map(tuple, groups)) == [("conv_c", "conv_d"), ("matmul_e",)]

    def test_groups_are_topologically_ordered(self, fig3):
        stage = Stage(("conv_d", "conv_c"))
        assert stage.groups(fig3) == [["conv_c", "conv_d"]]


class TestConnectedGroups:
    def test_independent_ops_form_singletons(self, fig2):
        groups = connected_groups(fig2, ["conv_a", "conv_c", "conv_d"])
        assert sorted(map(tuple, groups)) == [("conv_a",), ("conv_c",), ("conv_d",)]

    def test_chain_is_one_group(self, fig2):
        assert connected_groups(fig2, ["conv_b", "conv_a"]) == [["conv_a", "conv_b"]]

    def test_concat_joins_branches(self, fig2):
        groups = connected_groups(fig2, ["conv_c", "conv_d", "concat"])
        assert len(groups) == 1


class TestScheduleValidation:
    def test_sequential_schedule_valid(self, fig2):
        schedule = sequential_schedule(fig2)
        schedule.validate(fig2)
        assert schedule.num_stages() == 5
        assert schedule.max_stage_size() == 1

    def test_missing_operator_rejected(self, fig2):
        schedule = Schedule(graph_name=fig2.name, stages=[Stage(("conv_a",))])
        with pytest.raises(ScheduleValidationError):
            schedule.validate(fig2)

    def test_duplicate_operator_rejected(self, fig2):
        schedule = sequential_schedule(fig2)
        schedule.append(Stage(("conv_a",)))
        with pytest.raises(ScheduleValidationError):
            schedule.validate(fig2)

    def test_unknown_operator_rejected(self, fig2):
        schedule = sequential_schedule(fig2)
        schedule.stages[0] = Stage(("made_up",))
        with pytest.raises(ScheduleValidationError):
            schedule.validate(fig2)

    def test_dependency_violation_rejected(self, fig2):
        # conv_b scheduled before its producer conv_a.
        schedule = Schedule(
            graph_name=fig2.name,
            stages=[
                Stage(("conv_b",)),
                Stage(("conv_a", "conv_c", "conv_d")),
                Stage(("concat",)),
            ],
        )
        with pytest.raises(ScheduleValidationError):
            schedule.validate(fig2)

    def test_same_stage_dependency_allowed(self, fig2):
        # Producer and consumer may share a stage (they land in the same group).
        schedule = Schedule(
            graph_name=fig2.name,
            stages=[Stage(("conv_a", "conv_b")), Stage(("conv_c", "conv_d")), Stage(("concat",))],
        )
        schedule.validate(fig2)


class TestScheduleUtilities:
    def test_operators_and_stage_of(self, fig2):
        schedule = sequential_schedule(fig2)
        assert set(schedule.operators()) == set(fig2.schedulable_names())
        assert schedule.stage_of("concat") == 4
        with pytest.raises(KeyError):
            schedule.stage_of("nope")

    def test_strategy_counts(self, fig2):
        schedule = sequential_schedule(fig2)
        assert schedule.strategy_counts() == {"concurrent execution": 5}

    def test_describe_mentions_groups(self, fig2):
        schedule = greedy_schedule(fig2)
        text = schedule.describe(fig2)
        assert "groups" in text
        assert "stage" in text

    def test_serialization_roundtrip(self, fig2):
        schedule = greedy_schedule(fig2)
        loaded = Schedule.from_dict(json.loads(json.dumps(schedule.to_dict())))
        assert loaded.to_dict() == schedule.to_dict()
        loaded.validate(fig2)


class TestBaselines:
    def test_sequential_is_topological(self, fig3):
        schedule = sequential_schedule(fig3)
        order = [stage.operators[0] for stage in schedule.stages]
        assert order.index("conv_a") < order.index("conv_c") < order.index("conv_d")

    def test_greedy_first_stage_holds_all_ready_ops(self, fig2):
        schedule = greedy_schedule(fig2)
        assert set(schedule.stages[0].operators) == {"conv_a", "conv_c", "conv_d"}
        assert set(schedule.stages[1].operators) == {"conv_b"}
        assert schedule.num_stages() == 3

    def test_greedy_max_stage_size_cap(self, fig2):
        schedule = greedy_schedule(fig2, max_stage_size=2)
        assert schedule.max_stage_size() <= 2
        schedule.validate(fig2)

    def test_greedy_on_full_network(self):
        graph = load("squeezenet")
        schedule = greedy_schedule(graph)
        schedule.validate(graph)
        assert schedule.num_stages() < len(graph.operators())

    def test_baselines_cover_whole_graph(self):
        graph = figure2_block()
        for schedule in (sequential_schedule(graph), greedy_schedule(graph)):
            assert set(schedule.operators()) == set(graph.schedulable_names())
