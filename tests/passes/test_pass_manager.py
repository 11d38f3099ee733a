"""Tests for the Pass protocol, registry and PassManager pipeline driver."""

from __future__ import annotations

import pytest

from repro.ir import GraphBuilder, TensorShape, graph_fingerprint
from repro.passes import (
    DEFAULT_PASSES,
    GraphPass,
    PASS_REGISTRY,
    PassError,
    PassManager,
    default_pipeline,
    make_pass,
    optimize_graph,
    register_pass,
)
from repro.passes.rewriter import GraphRewriter


def relu_chain_graph():
    """conv (unfused) -> relu -> relu: two fusion opportunities."""
    b = GraphBuilder("relu_chain", TensorShape(1, 3, 8, 8))
    x = b.conv2d("conv", b.input_name, out_channels=4, kernel=3, activation=None)
    x = b.relu("act1", x)
    b.relu("act2", x)
    return b.build()


class CountingPass(GraphPass):
    """Test double: reports one rewrite for the first ``budget`` invocations."""

    name = "counting"

    def __init__(self, budget: int = 0):
        self.budget = budget
        self.calls = 0

    def run(self, graph):
        self.calls += 1
        if self.budget > 0:
            self.budget -= 1
            return GraphRewriter(graph).rebuild(), 1
        return graph, 0


class TestPassRegistry:
    def test_builtin_passes_are_registered(self):
        for name in DEFAULT_PASSES:
            assert name in PASS_REGISTRY
            assert make_pass(name).name == name

    def test_unknown_pass_name(self):
        with pytest.raises(KeyError, match="registered pass names"):
            make_pass("no-such-pass")

    def test_custom_pass_registration_and_use_by_name(self):
        @register_pass
        class NopPass(GraphPass):
            name = "test-nop"

            def run(self, graph):
                return graph, 0

        try:
            manager = PassManager(["test-nop"])
            result = manager.run(relu_chain_graph())
            assert result.total_rewrites == 0
            assert result.iterations == 1
        finally:
            del PASS_REGISTRY["test-nop"]

    def test_duplicate_name_rejected(self):
        with pytest.raises(ValueError, match="duplicate pass name"):
            @register_pass
            class Clash(GraphPass):
                name = DEFAULT_PASSES[0]

                def run(self, graph):
                    return graph, 0

    def test_unnamed_pass_rejected(self):
        with pytest.raises(ValueError, match="must define a unique 'name'"):
            @register_pass
            class Unnamed(GraphPass):
                def run(self, graph):
                    return graph, 0


class TestPassManager:
    def test_needs_at_least_one_pass(self):
        with pytest.raises(ValueError):
            PassManager([])

    def test_single_iteration_without_fixed_point(self):
        pass_ = CountingPass(budget=5)
        manager = PassManager([pass_], fixed_point=False)
        result = manager.run(relu_chain_graph())
        assert pass_.calls == 1
        assert result.iterations == 1
        assert result.total_rewrites == 1

    def test_fixed_point_iterates_until_quiescence(self):
        pass_ = CountingPass(budget=3)
        manager = PassManager([pass_])
        result = manager.run(relu_chain_graph())
        # 3 rewriting iterations + 1 quiescent iteration.
        assert pass_.calls == 4
        assert result.iterations == 4
        assert result.total_rewrites == 3

    def test_non_convergence_raises(self):
        pass_ = CountingPass(budget=10_000)
        with pytest.raises(PassError, match="did not converge"):
            PassManager([pass_], max_iterations=3).run(relu_chain_graph())

    def test_stats_per_pass(self):
        graph = relu_chain_graph()
        result = default_pipeline().run(graph)
        by_name = result.stats_by_name()
        assert set(by_name) == set(DEFAULT_PASSES)
        assert by_name["fuse-activation"].rewrites == 2  # relu∘relu fold + fuse
        for stat in result.stats:
            assert stat.runs == result.iterations
            assert stat.elapsed_s >= 0
        assert "fuse-activation" in result.describe()

    def test_invalid_rewrite_is_caught(self):
        class BreakingPass(GraphPass):
            name = "breaking"

            def run(self, graph):
                rw = GraphRewriter(graph)
                # Detach an operator from its block: validation must fail.
                victim = next(n for n in rw.block_of if rw.kind(n) != "placeholder")
                del rw.block_of[victim]
                return rw.rebuild(), 1

        with pytest.raises(PassError, match="produced an invalid graph"):
            PassManager([BreakingPass()]).run(relu_chain_graph())

    def test_input_graph_is_never_mutated(self):
        graph = relu_chain_graph()
        before = list(graph.nodes)
        result = default_pipeline().run(graph)
        assert list(graph.nodes) == before
        assert result.graph is not graph
        assert "act1" in graph.nodes  # original still has its standalone ReLUs


class TestOptimizeGraph:
    def test_every_call_runs_the_pipeline(self):
        # optimize_graph keeps no memo: a repeated call runs every pass again
        # and hands back a fresh, equal result.
        graph = relu_chain_graph()
        first = optimize_graph(graph)
        second = optimize_graph(graph)
        assert second is not first
        assert second.graph is not first.graph
        assert all(stats.runs >= 1 for stats in second.stats)
        assert [s.rewrites for s in second.stats] == [s.rewrites for s in first.stats]
        assert graph_fingerprint(second.graph) == graph_fingerprint(first.graph)

    def test_structurally_equal_graphs_optimize_to_the_same_graph(self):
        a = optimize_graph(relu_chain_graph())
        b = optimize_graph(relu_chain_graph())
        assert a.total_rewrites == b.total_rewrites > 0
        assert graph_fingerprint(a.graph) == graph_fingerprint(b.graph)

    def test_pass_configuration_changes_the_result(self):
        from repro.passes import CommonSubexpressionPass

        def duplicate_convs():
            b = GraphBuilder("dups", TensorShape(1, 3, 8, 8))
            with b.block("blk"):
                left = b.conv2d("conv_a", b.input_name, out_channels=4, kernel=3)
                r = b.conv2d("conv_b", b.input_name, out_channels=4, kernel=3)
                b.concat("cat", [left, r])
            return b.build()

        conservative = optimize_graph(duplicate_convs(), [CommonSubexpressionPass()])
        aggressive = optimize_graph(
            duplicate_convs(), [CommonSubexpressionPass(include_weighted=True)]
        )
        # include_weighted merges the twin convs.
        assert conservative.total_rewrites == 0
        assert aggressive.total_rewrites == 1
        assert "conv_b" not in aggressive.graph.nodes
