"""The unified model-source API: load(), format detection and the
third-party operator extension path."""

from __future__ import annotations

import json
from pathlib import Path
from typing import Sequence

import pytest

from repro.frontend import FrontendError, detect_format, import_onnx, load
from repro.ir import (
    OP_REGISTRY,
    Graph,
    Operator,
    graph_fingerprint,
    register_operator,
)
from repro.ir.serialization import graph_from_dict, graph_to_dict
from repro.models import resolve_zoo_builder

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"


class TestDetectFormat:
    def test_declared_keys_win(self):
        assert detect_format({"ir": "onnx-subset"}) == "onnx-subset"
        assert detect_format({"format": "layer-config"}) == "layer-config"
        assert detect_format({"format": "ir-graph"}) == "ir-graph"

    def test_structural_detection(self):
        assert detect_format({"layers": []}) == "layer-config"
        assert detect_format({"nodes": [{"op_type": "Relu"}]}) == "onnx-subset"
        assert detect_format({"nodes": [{"kind": "relu"}]}) == "ir-graph"

    def test_undetectable_dict_is_rejected(self):
        with pytest.raises(FrontendError, match="cannot detect"):
            detect_format({"weights": []})


class TestLoad:
    def test_zoo_name_builds_the_model(self):
        graph = load("squeezenet", batch_size=2)
        assert graph.name == "squeezenet"
        assert graph.input_shape.batch == 2

    def test_zoo_aliases_and_spellings_resolve(self):
        base = graph_fingerprint(load("resnet_18"))
        assert graph_fingerprint(load("ResNet-18")) == base
        assert graph_fingerprint(load("resnet18")) == base

    def test_unknown_zoo_name_lists_the_registry(self):
        with pytest.raises(KeyError, match="squeezenet"):
            resolve_zoo_builder("no_such_model")

    def test_graph_passthrough_returns_the_same_object(self):
        graph = load("squeezenet")
        assert load(graph) is graph

    def test_graph_passthrough_rebatches_when_asked(self):
        graph = load("squeezenet", batch_size=1)
        rebatched = load(graph, batch_size=4)
        assert rebatched.input_shape.batch == 4

    def test_path_and_str_path_load_the_same_file(self):
        path = EXAMPLES / "transformer_block.json"
        assert graph_fingerprint(load(path)) == graph_fingerprint(load(str(path)))

    def test_missing_file_raises_frontend_error(self):
        with pytest.raises(FrontendError, match="does not exist"):
            load("no/such/model.json")

    def test_invalid_json_raises_frontend_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(FrontendError, match="not valid JSON"):
            load(bad)

    def test_serialised_ir_graph_files_load(self, tmp_path):
        graph = load("transformer_block")
        path = tmp_path / "saved.json"
        path.write_text(json.dumps(graph_to_dict(graph)))
        assert graph_fingerprint(load(path)) == graph_fingerprint(graph)

    def test_unsupported_source_type_raises(self):
        with pytest.raises(TypeError, match="cannot load"):
            load(42)

    def test_load_returns_the_graph_as_built(self):
        # Passes run in the engine and the experiment context, never here:
        # fuse-epilogue would fold the standalone GELU into its projection.
        from repro.engine import apply_passes

        raw = load("transformer_block")
        assert "ffn_act" in raw.nodes
        assert "ffn_act" not in apply_passes(raw, True)[0].nodes


class _Quantize(Operator):
    """A third-party shape-preserving operator used by the extension tests."""

    kind = "test_quantize"

    def __init__(self, name: str, inputs: Sequence[str], bits: int = 8):
        super().__init__(name, inputs)
        self.bits = int(bits)

    def infer_shape(self, input_shapes):
        return input_shapes[0]

    def flops(self) -> int:
        shapes = self._require_bound()
        return shapes[0].numel()

    def attrs(self):
        return {"bits": self.bits}


@pytest.fixture
def quantize_registered():
    register_operator(_Quantize)
    try:
        yield
    finally:
        OP_REGISTRY.pop("test_quantize", None)


class TestThirdPartyOperators:
    def _doc(self):
        return {
            "ir": "onnx-subset",
            "name": "quantized",
            "inputs": [{"name": "x", "shape": [4, 32]}],
            "initializers": [{"name": "w", "shape": [32, 16]}],
            "nodes": [
                {"name": "fc", "op_type": "MatMul", "inputs": ["x", "w"]},
                {"name": "q", "op_type": "test_quantize", "inputs": ["fc"],
                 "attrs": {"bits": 4}},
            ],
        }

    def test_registered_kind_imports_with_verbatim_attrs(self, quantize_registered):
        graph = import_onnx(self._doc())
        q = graph.nodes["q"]
        assert isinstance(q, _Quantize)
        assert q.bits == 4

    def test_round_trips_through_serialisation(self, quantize_registered):
        graph = import_onnx(self._doc())
        reloaded = graph_from_dict(graph_to_dict(graph))
        assert isinstance(reloaded.nodes["q"], _Quantize)
        assert graph_fingerprint(reloaded) == graph_fingerprint(graph)

    def test_unregistered_kind_degrades_to_opaque_instead(self):
        graph = import_onnx(self._doc())
        assert graph.nodes["q"].kind == "opaque"
        assert graph.nodes["q"].attrs()["op_type"] == "test_quantize"

    def test_layer_config_resolves_through_the_registry_too(self, quantize_registered):
        doc = {
            "format": "layer-config",
            "input": [4, 32],
            "layers": [{"type": "linear", "out_features": 16},
                       {"type": "test_quantize", "bits": 2}],
        }
        graph = load(doc)
        assert graph.nodes["l1_test_quantize"].bits == 2
