"""Coverage for the heavier experiment-harness modules using tiny workloads.

The full experiments sweep the paper's benchmark networks (minutes of DP
search); these tests exercise the exact same code paths on the Figure-2 block
and SqueezeNet so the whole harness stays covered by the fast test suite.
"""

from __future__ import annotations

import pytest

from repro.experiments import (
    default_context,
    last_block_subgraph,
    run_blockwise_ablation,
    run_cost_model_ablation,
    run_figure6,
    run_figure7,
    run_figure9,
    run_figure10,
    run_figure11,
    run_figure12,
    run_figure14,
    run_figure15,
    run_figure16,
    run_resnet_note,
    run_table1,
    run_table3_batch,
)

TINY = ["figure2_block"]


@pytest.fixture(scope="module")
def ctx():
    # One shared context so the Figure-2-block IOS search is reused by every test.
    return default_context("v100")


class TestScheduleAndFrameworkFigures:
    def test_figure6_on_tiny_model(self, ctx):
        table = run_figure6(models=TINY, context=ctx)
        row = table.row_by("network", "figure2_block")
        assert row["ios-both"] == 1.0
        assert row["sequential"] < row["greedy"] <= 1.0
        assert row["ios_speedup_vs_sequential"] > 1.5
        geomean = table.row_by("network", "geomean")
        assert geomean["ios-both"] == pytest.approx(1.0)

    def test_figure7_on_tiny_model(self, ctx):
        table = run_figure7(models=TINY, context=ctx)
        row = table.row_by("network", "figure2_block")
        assert row["ios"] == 1.0
        assert row["ios_speedup_vs_best_baseline"] > 1.0
        assert 0 < row["tensorflow"] < row["tensorrt"] <= 1.0

    def test_figure14_and_15_use_2080ti(self):
        table14 = run_figure14(models=TINY)
        table15 = run_figure15(models=TINY)
        assert "rtx2080ti" in table14.title
        assert "rtx2080ti" in table15.title
        assert table14.row_by("network", "figure2_block")["ios-both"] == 1.0
        assert table15.row_by("network", "figure2_block")["ios"] == 1.0

    def test_figure12_costs_and_winner(self, ctx):
        table = run_figure12(models=TINY, context=ctx)
        row = table.row_by("network", "figure2_block")
        assert row["ios"] == 1.0  # dense convolutions: IOS beats TVM-AutoTune
        totals = table.row_by("network", "geomean/total")
        assert totals["tvm_optimization_gpu_hours"] > 100 * totals["ios_optimization_gpu_hours"]


class TestSweepsAndCaseStudies:
    def test_figure9_pruning_grid_on_tiny_model(self, ctx):
        table = run_figure9(models=TINY, grid=[(3, 8), (1, 2)], context=ctx)
        loose = next(r for r in table.rows if r["r"] == 3)
        tight = next(r for r in table.rows if r["r"] == 1)
        assert tight["stage_measurements"] <= loose["stage_measurements"]
        assert tight["latency_ms"] >= loose["latency_ms"] - 1e-9
        assert loose["optimization_gpu_s"] > 0

    def test_figure9_cost_does_not_depend_on_earlier_compiles(self):
        # A context engine's block cache keeps mixed_7c from figure 10; the
        # reported search cost must still be that of a cold search.
        def row(context):
            table = run_figure9(models=["inception_v3"], grid=[(3, 8)], context=context)
            return table.rows[0]

        alone = row(default_context("v100"))
        warmed = default_context("v100")
        warmed.engine().compile(last_block_subgraph(1, context=warmed))
        after = row(warmed)
        columns = ("latency_ms", "optimization_gpu_s", "stage_measurements")
        assert [after[c] for c in columns] == [alone[c] for c in columns]
        assert alone["stage_measurements"] == 1897

    def test_figure11_small_sweep(self, ctx):
        table = run_figure11(model="figure2_block", batch_sizes=(1, 8), context=ctx)
        assert table.rows[1]["ios"] > table.rows[0]["ios"]  # throughput grows with batch
        for row in table.rows:
            assert row["ios"] >= row["sequential"]

    def test_figure10_case_study_small_batches(self):
        table = run_figure10(batch_sizes=(1, 4))
        small = table.row_by("optimized_for_batch", 1)
        large = table.row_by("optimized_for_batch", 4)
        assert small["latency_on_bs1_ms"] <= large["latency_on_bs1_ms"] + 1e-9
        assert large["latency_on_bs4_ms"] <= small["latency_on_bs4_ms"] + 1e-9
        assert small["num_stages"] >= 1

    def test_table3_batch_on_tiny_model(self):
        table = run_table3_batch(model="figure2_block", batch_sizes=(1, 8))
        assert all(row["diagonal_is_best"] for row in table.rows)

    def test_table1_on_small_networks(self):
        table = run_table1(models=["squeezenet"])
        row = table.row_by("network", "squeezenet")
        assert row["transitions"] <= row["transition_bound"]
        assert row["num_schedules"] >= row["transitions"]

    def test_figure16_subset_of_blocks(self, ctx):
        table = run_figure16(block_names=["mixed_5b", "mixed_7c"], context=ctx)
        block_rows = [r for r in table.rows if r["block"] != "all_blocks_total"]
        assert len(block_rows) == 2
        assert all(r["speedup"] >= 1.0 - 1e-9 for r in block_rows)

    def test_resnet_note_small(self, ctx):
        table = run_resnet_note(models=("resnet_18",), context=ctx)
        row = table.row_by("network", "resnet_18")
        assert 0.0 <= row["speedup_percent"] < 20.0


class TestAblations:
    def test_cost_model_ablation_on_tiny_models(self, ctx):
        table = run_cost_model_ablation(models=("figure2_block", "squeezenet"), context=ctx)
        for row in table.rows:
            assert row["flops_cost_model_ms"] >= row["simulated_cost_model_ms"] - 1e-9
            assert row["quality_gap_percent"] >= -1e-6

    def test_blockwise_ablation_on_tiny_models(self, ctx):
        table = run_blockwise_ablation(models=("figure2_block",), context=ctx)
        row = table.row_by("network", "figure2_block")
        # A single-block graph: whole-graph and block-wise searches coincide.
        assert row["whole_graph_ms"] == pytest.approx(row["blockwise_ms"], rel=1e-6)
        assert row["whole_graph_transitions"] == row["blockwise_transitions"]
