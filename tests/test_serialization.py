"""Tests for ir/serialization.py: JSON round-trips of computation graphs."""

from __future__ import annotations

import json

import pytest

from repro.ir import (
    Conv2d,
    GraphBuilder,
    SeparableConv2d,
    TensorShape,
    graph_fingerprint,
    graph_from_dict,
    graph_to_dict,
    load_graph,
    save_graph,
)
from repro.ir.serialization import FORMAT_VERSION
from repro.frontend import load
from repro.passes import unfuse_activations


def fused_blocks_graph():
    """Two explicit blocks exercising every fused-activation field."""
    b = GraphBuilder("fused", TensorShape(2, 3, 16, 16))
    with b.block("features"):
        x = b.conv2d("conv", b.input_name, out_channels=8, kernel=3)  # fused relu
        x = b.sep_conv2d("sep", x, out_channels=8, kernel=3, pre_activation=True)
        x = b.max_pool("pool", x, kernel=2)
    with b.block("classifier"):
        x = b.flatten("flat", x)
        b.linear("fc", x, out_features=10, activation="relu")
    return b.build()


class TestRoundTrip:
    def test_dict_round_trip_preserves_structure(self):
        graph = fused_blocks_graph()
        rebuilt = graph_from_dict(graph_to_dict(graph))
        assert rebuilt.name == graph.name
        assert list(rebuilt.nodes) == list(graph.nodes)
        assert [b.name for b in rebuilt.blocks] == [b.name for b in graph.blocks]
        assert [list(b) for b in rebuilt.blocks] == [list(b) for b in graph.blocks]
        assert rebuilt.edges() == graph.edges()
        assert graph_fingerprint(rebuilt) == graph_fingerprint(graph)

    def test_round_trip_preserves_fused_activations(self):
        rebuilt = graph_from_dict(graph_to_dict(fused_blocks_graph()))
        conv = rebuilt.nodes["conv"]
        assert isinstance(conv, Conv2d) and conv.activation == "relu"
        sep = rebuilt.nodes["sep"]
        assert isinstance(sep, SeparableConv2d) and sep.pre_activation
        assert rebuilt.nodes["fc"].activation == "relu"

    def test_round_trip_preserves_unfused_form(self):
        # The raw (standalone-Relu) form must round-trip too — fusion is the
        # pass pipeline's job, never the serialiser's.
        raw = unfuse_activations(fused_blocks_graph())
        rebuilt = graph_from_dict(graph_to_dict(raw))
        assert rebuilt.nodes["conv"].activation is None
        assert rebuilt.nodes["conv__act"].kind == "relu"
        assert not rebuilt.nodes["sep"].pre_activation
        assert graph_fingerprint(rebuilt) == graph_fingerprint(raw)

    def test_round_trip_rebinds_shapes(self):
        graph = fused_blocks_graph()
        rebuilt = graph_from_dict(graph_to_dict(graph))
        for name, op in graph.nodes.items():
            assert rebuilt.nodes[name].output_shape == op.output_shape
        assert rebuilt.total_flops() == graph.total_flops()
        assert rebuilt.total_params() == graph.total_params()

    def test_file_round_trip(self, tmp_path):
        graph = fused_blocks_graph()
        path = save_graph(graph, tmp_path / "nested" / "graph.json")
        assert path.exists()
        loaded = load_graph(path)
        assert graph_fingerprint(loaded) == graph_fingerprint(graph)
        # The file is plain, diffable JSON with the version stamped.
        data = json.loads(path.read_text())
        assert data["format_version"] == FORMAT_VERSION

    def test_model_zoo_round_trip(self):
        graph = load("squeezenet")
        rebuilt = graph_from_dict(graph_to_dict(graph))
        assert graph_fingerprint(rebuilt) == graph_fingerprint(graph)
        assert len(rebuilt.schedulable_names()) == len(graph.schedulable_names())


class TestFailureModes:
    def test_unsupported_format_version(self):
        data = graph_to_dict(fused_blocks_graph())
        data["format_version"] = FORMAT_VERSION + 1
        with pytest.raises(ValueError, match="unsupported graph format version"):
            graph_from_dict(data)

    def test_unknown_operator_kind_lists_known_kinds(self):
        data = graph_to_dict(fused_blocks_graph())
        data["nodes"][1]["kind"] = "conv3d"
        with pytest.raises(KeyError) as excinfo:
            graph_from_dict(data)
        message = str(excinfo.value)
        assert "conv3d" in message
        assert "known kinds" in message
        assert "conv2d" in message and "sep_conv2d" in message
        assert "register_operator" in message

    def test_invalid_graph_is_rejected_on_load(self):
        data = graph_to_dict(fused_blocks_graph())
        # Drop a node from its block: the deserialiser must re-validate.
        data["blocks"][0]["nodes"].remove("pool")
        from repro.ir import GraphValidationError

        with pytest.raises(GraphValidationError, match="does not belong to any block"):
            graph_from_dict(data)
