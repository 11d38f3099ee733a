"""Unit tests for schedule specialisation (Table 3 machinery)."""

from __future__ import annotations

import pytest

from repro.core import specialize_for_batch_sizes, specialize_for_devices
from repro.core.specialization import SpecializationMatrix
from repro.engine import Engine
from repro.models import figure2_block


class TestSpecializationMatrix:
    def test_diagonal_is_best_detection(self):
        matrix = SpecializationMatrix(
            execute_labels=["1", "32"],
            optimize_labels=["1", "32"],
            latency_ms=[[1.0, 1.2], [5.5, 5.0]],
        )
        assert matrix.diagonal_is_best()
        matrix.latency_ms[0] = [1.2, 1.0]
        assert not matrix.diagonal_is_best()

    def test_row_and_rows_export(self):
        matrix = SpecializationMatrix(
            execute_labels=["a", "b"],
            optimize_labels=["a", "b"],
            latency_ms=[[1.0, 2.0], [3.0, 4.0]],
        )
        assert matrix.row("b") == [3.0, 4.0]
        rows = matrix.as_rows()
        assert rows[0]["execute_on"] == "a"
        assert rows[1]["optimized_for_b"] == 4.0


class TestBatchSpecialization:
    def test_cross_matrix_shape_and_schedules(self, v100):
        graph = figure2_block()
        schedules, matrix = specialize_for_batch_sizes(graph, [1, 16], Engine(v100))
        assert set(schedules) == {1, 16}
        assert len(matrix.latency_ms) == 2 and len(matrix.latency_ms[0]) == 2
        # Larger batch always takes longer regardless of which schedule is used.
        assert matrix.latency_ms[1][0] > matrix.latency_ms[0][0]
        for bs, schedule in schedules.items():
            schedule.validate(graph.with_batch_size(bs))

    def test_specialized_schedule_never_loses_on_its_own_batch(self, v100):
        graph = figure2_block()
        _, matrix = specialize_for_batch_sizes(graph, [1, 32], Engine(v100))
        for i in range(2):
            assert matrix.latency_ms[i][i] == pytest.approx(min(matrix.latency_ms[i]), rel=1e-6)


class TestDeviceSpecialization:
    def test_cross_matrix_devices(self, v100, k80):
        graph = figure2_block()
        schedules, matrix = specialize_for_devices(graph, [Engine(k80), Engine(v100)])
        assert set(schedules) == {"k80", "v100"}
        # The K80 row is slower than the V100 row under every schedule.
        assert min(matrix.latency_ms[0]) > max(matrix.latency_ms[1])
        # Diagonal (specialised) entries are the best of their rows.
        for i in range(2):
            assert matrix.latency_ms[i][i] == pytest.approx(min(matrix.latency_ms[i]), rel=1e-6)
