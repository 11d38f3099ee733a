"""Pass-pipeline behaviour on imported graphs: the compile-time fusion the
importer deliberately leaves on the table, and confluence of the pipeline."""

from __future__ import annotations

from pathlib import Path

from repro.frontend import load
from repro.ir import graph_fingerprint
from repro.passes import PassManager, optimize_graph, unfuse_activations

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"


def _transformer():
    return load(EXAMPLES / "transformer_block.json")


def test_fuse_epilogue_folds_the_standalone_gelu():
    result = optimize_graph(_transformer())
    rewrites = {stats.name: stats.rewrites for stats in result.stats}
    assert rewrites["fuse-epilogue"] >= 1
    optimized = result.graph
    assert "ffn_act" not in optimized.nodes
    assert optimized.nodes["ffn_up"].attrs()["activation"] == "gelu"


def test_pipeline_is_idempotent_on_the_imported_transformer():
    once = optimize_graph(_transformer()).graph
    twice = optimize_graph(once).graph
    assert graph_fingerprint(twice) == graph_fingerprint(once)


def test_fusion_order_does_not_change_the_result():
    forward = PassManager(["fuse-activation", "fuse-epilogue", "eliminate-dead",
                           "canonicalize"]).run(_transformer()).graph
    backward = PassManager(["fuse-epilogue", "fuse-activation", "eliminate-dead",
                            "canonicalize"]).run(_transformer()).graph
    assert graph_fingerprint(forward) == graph_fingerprint(backward)


def test_unfuse_then_optimize_round_trips():
    optimized = optimize_graph(_transformer()).graph
    refused = optimize_graph(unfuse_activations(optimized)).graph
    assert graph_fingerprint(refused) == graph_fingerprint(optimized)


def test_shared_weight_cse_merges_tied_projections():
    doc = {
        "ir": "onnx-subset",
        "name": "tied",
        "inputs": [{"name": "x", "shape": [8, 32]}],
        "initializers": [{"name": "w", "shape": [32, 32]}],
        "nodes": [
            {"name": "p1", "op_type": "MatMul", "inputs": ["x", "w"]},
            {"name": "p2", "op_type": "MatMul", "inputs": ["x", "w"]},
            {"name": "both", "op_type": "Add", "inputs": ["p1", "p2"]},
        ],
    }
    result = optimize_graph(load(doc))
    rewrites = {stats.name: stats.rewrites for stats in result.stats}
    assert rewrites["cse-shared-weights"] >= 1
    survivors = [n for n in result.graph.nodes.values() if n.kind == "matmul"]
    assert len(survivors) == 1
