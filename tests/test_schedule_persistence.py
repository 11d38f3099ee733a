"""Round-trip persistence tests for schedules produced by real IOS searches.

Every persisted compiled-model artifact (``repro.engine``) rests on
``Schedule.to_dict/from_dict`` faithfully reproducing scheduler output through
JSON, including merge stages whose operators only exist after re-lowering — so
these tests exercise the full dump → parse → validate → lower → execute path,
plus the error behaviour on corrupted documents.
"""

from __future__ import annotations

import json

import pytest

from repro.core import (
    IOSScheduler,
    ParallelizationStrategy,
    Schedule,
    SchedulerConfig,
    SimulatedCostModel,
    Stage,
    schedule_latency_ms,
)
from repro.frontend import load


def round_trip(schedule):
    """The schedule after a trip through JSON text, as an artifact stores it."""
    return Schedule.from_dict(json.loads(json.dumps(schedule.to_dict())))


def optimize(graph, device, variant="ios-both"):
    scheduler = IOSScheduler(SimulatedCostModel(device), SchedulerConfig.variant(variant))
    return scheduler.optimize_graph(graph).schedule


class TestScheduleRoundTrip:
    def test_dict_round_trip_preserves_everything(self, v100, fig2):
        schedule = optimize(fig2, v100)
        restored = Schedule.from_dict(schedule.to_dict())
        assert restored.graph_name == schedule.graph_name
        assert restored.origin == schedule.origin
        assert restored.stages == schedule.stages

    def test_json_round_trip_on_scheduler_output(self, v100, fig2):
        schedule = optimize(fig2, v100)
        assert round_trip(schedule) == schedule

    def test_merge_stages_survive_round_trip(self, v100, fig2):
        # ios-merge only uses the merge strategy, so merge stages are
        # guaranteed to appear in the persisted schedule.
        schedule = optimize(fig2, v100, variant="ios-merge")
        merge_stages = [
            stage for stage in schedule.stages
            if stage.strategy is ParallelizationStrategy.MERGE
        ]
        assert merge_stages, "ios-merge should produce at least one merge stage"
        restored = round_trip(schedule)
        assert restored.stages == schedule.stages
        assert any(
            stage.strategy is ParallelizationStrategy.MERGE for stage in restored.stages
        )

    def test_restored_schedule_executes_identically(self, v100):
        graph = load("squeezenet", batch_size=2)
        schedule = optimize(graph, v100)
        restored = round_trip(schedule)
        restored.validate(graph)
        assert schedule_latency_ms(graph, restored, v100) == pytest.approx(
            schedule_latency_ms(graph, schedule, v100)
        )

    def test_stage_dict_round_trip(self, v100, fig2):
        schedule = optimize(fig2, v100)
        for stage in schedule.stages:
            data = stage.to_dict()
            # The dict form must be JSON-clean (what the registry writes).
            json.dumps(data)
            restored = Stage.from_dict(data)
            assert restored == stage
            assert restored.strategy is stage.strategy


class TestCorruptedDocuments:
    def test_truncated_json_raises(self, v100, fig2):
        text = json.dumps(optimize(fig2, v100).to_dict())
        with pytest.raises(json.JSONDecodeError):
            Schedule.from_dict(json.loads(text[: len(text) // 2]))

    def test_wrong_document_shape_raises(self):
        with pytest.raises((KeyError, ValueError)):
            Schedule.from_dict({"graph_name": "x", "stages": [{"operators": []}]})
