"""Integration of the pass pipeline with the scheduler path (repro.core)."""

from __future__ import annotations

import pytest

from repro.core import IOSScheduler, SimulatedCostModel, measure_schedule
from repro.engine import Engine, apply_passes
from repro.experiments import default_context
from repro.frontend import load
from repro.ir import graph_fingerprint
from repro.passes import PassManager, optimize_graph, unfuse_activations


@pytest.fixture(scope="module")
def raw_squeezenet():
    return unfuse_activations(load("squeezenet"))


class TestSchedulerPassesEntryPoint:
    def test_default_path_does_not_rewrite(self, raw_squeezenet, v100):
        result = IOSScheduler(SimulatedCostModel(v100)).optimize_graph(raw_squeezenet)
        assert result.graph is raw_squeezenet
        assert result.pass_stats is None

    def test_passes_true_runs_default_pipeline(self, raw_squeezenet, v100):
        result = Engine(v100, passes=True).compile(raw_squeezenet).search
        assert result.graph is not raw_squeezenet
        assert len(result.graph.schedulable_names()) < len(
            raw_squeezenet.schedulable_names()
        )
        assert result.pass_stats is not None
        assert sum(s.rewrites for s in result.pass_stats) > 0
        # The schedule refers to (and validates against) the rewritten graph.
        result.schedule.validate(result.graph)
        assert measure_schedule(result.graph, result.schedule, v100).latency_ms > 0

    def test_custom_pipeline_instance(self, raw_squeezenet, v100):
        manager = PassManager(["fuse-activation"])
        result = Engine(v100, passes=manager).compile(raw_squeezenet).search
        assert [s.name for s in result.pass_stats] == ["fuse-activation"]

    def test_optimized_schedule_is_no_slower(self, raw_squeezenet, v100):
        optimized = Engine("v100", passes=True).compile(raw_squeezenet).search
        plain = Engine(v100).compile(raw_squeezenet).search
        assert plain.graph is raw_squeezenet
        assert len(optimized.graph.schedulable_names()) < len(
            plain.graph.schedulable_names()
        )
        # Fewer kernels => the optimised schedule cannot be slower.
        opt_ms = measure_schedule(optimized.graph, optimized.schedule, v100).latency_ms
        raw_ms = measure_schedule(plain.graph, plain.schedule, v100).latency_ms
        assert opt_ms <= raw_ms + 1e-9

    def test_engine_pass_stage_is_optimize_graph(self, raw_squeezenet, v100):
        # The engine's pass stage runs the same pipeline as optimize_graph.
        search = Engine(v100, passes=True).compile(raw_squeezenet).search
        expected = optimize_graph(raw_squeezenet)
        assert graph_fingerprint(search.graph) == graph_fingerprint(expected.graph)
        assert [(s.name, s.rewrites) for s in search.pass_stats] == [
            (s.name, s.rewrites) for s in expected.stats
        ]


class TestContextPasses:
    def test_context_graphs_are_rewritten(self):
        raw = load("nasnet_a")
        optimized = default_context(passes=True).graph("nasnet_a")
        assert len(optimized.schedulable_names()) < len(raw.schedulable_names())

    def test_context_runs_the_engine_pass_stage(self):
        implicit = default_context(passes=True).graph("nasnet_a")
        explicit, _ = apply_passes(load("nasnet_a"), True)
        assert list(implicit.nodes) == list(explicit.nodes)

    def test_cli_flag_rewrites_the_reported_graphs(self, capsys):
        from repro.experiments.cli import main

        def nasnet_operators(argv):
            assert main(argv) == 0
            row = next(
                line for line in capsys.readouterr().out.splitlines()
                if line.startswith("nasnet_a ")
            )
            return int(row.split()[2])

        raw = nasnet_operators(["table2"])
        assert nasnet_operators(["table2", "--passes"]) < raw
        assert raw == len(load("nasnet_a").schedulable_names())
