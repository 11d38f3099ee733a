"""Round-trip persistence tests for schedules produced by real IOS searches.

The serving registry (``repro.serve.registry``) rests entirely on
``Schedule.save/load`` faithfully reproducing scheduler output, including
merge stages whose operators only exist after re-lowering — so these tests
exercise the full save → load → validate → lower → execute path, plus the
error behaviour on corrupted files.
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

    def test_file_round_trip_on_scheduler_output(self, tmp_path, v100, fig2):
        schedule = optimize(fig2, v100)
        path = schedule.save(tmp_path / "nested" / "fig2.json")
        assert path.exists()
        restored = Schedule.load(path)
        assert restored == schedule

    def test_merge_stages_survive_round_trip(self, tmp_path, v100, fig2):
        # ios-merge only uses the merge strategy, so merge stages are
        # guaranteed to appear in the persisted schedule.
        schedule = optimize(fig2, v100, variant="ios-merge")
        merge_stages = [
            stage for stage in schedule.stages
            if stage.strategy is ParallelizationStrategy.MERGE
        ]
        assert merge_stages, "ios-merge should produce at least one merge stage"
        restored = Schedule.load(schedule.save(tmp_path / "merge.json"))
        assert restored.stages == schedule.stages
        assert any(
            stage.strategy is ParallelizationStrategy.MERGE for stage in restored.stages
        )

    def test_restored_schedule_executes_identically(self, tmp_path, v100):
        graph = load("squeezenet", batch_size=2)
        schedule = optimize(graph, v100)
        restored = Schedule.load(schedule.save(tmp_path / "sq.json"))
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


class TestCorruptedFiles:
    def test_truncated_json_raises(self, tmp_path, v100, fig2):
        schedule = optimize(fig2, v100)
        path = schedule.save(tmp_path / "schedule.json")
        path.write_text(path.read_text()[: len(path.read_text()) // 2])
        with pytest.raises(json.JSONDecodeError):
            Schedule.load(path)

    def test_wrong_document_shape_raises(self, tmp_path):
        path = tmp_path / "schedule.json"
        path.write_text(json.dumps({"graph_name": "x", "stages": [{"operators": []}]}))
        with pytest.raises((KeyError, ValueError)):
            Schedule.load(path)

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            Schedule.load(tmp_path / "does_not_exist.json")
