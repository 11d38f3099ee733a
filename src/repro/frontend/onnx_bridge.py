"""ONNX-subset importer: per-op-kind bridges from foreign nodes to IR configs.

The format is a JSON dictionary::

    {
      "ir": "onnx-subset",
      "name": "transformer_block",
      "inputs": [{"name": "tokens", "shape": [64, 256]}],
      "initializers": [{"name": "wq", "shape": [256, 256]}, ...],
      "nodes": [
        {"name": "q", "op_type": "MatMul", "inputs": ["tokens", "wq"]},
        {"name": "scores", "op_type": "MatMul", "inputs": ["q", "kt"]},
        ...
      ],
      "blocks": [{"name": "attention", "nodes": ["q", "scores", ...]}]
    }

``inputs`` must name exactly one graph input (the IR allows one placeholder);
``initializers`` declare weight tensors by shape only — the scheduler never
needs values.  ``blocks`` is optional; without it every operator lands in a
single schedule block.

Each supported ``op_type`` has a *bridge function* in :data:`ONNX_BRIDGES`
that translates one foreign node into an operator config dictionary
(``{"kind", "name", "inputs", "attrs"}``).  The config is materialised
through :func:`repro.ir.operator_from_config` — resolution goes through the
operator registry only, so a third-party operator registered at runtime with
:func:`repro.ir.register_operator` imports exactly like a built-in.  A bridge
may instead return an existing IR node name to *alias* the foreign node away
(how inference no-ops like Dropout and initializer-bias Adds are folded).

Unknown ``op_type`` tags do not fail the import: the node degrades to an
:class:`repro.ir.Opaque` operator whose latency comes from the kernel profile
table and whose attribute digest keeps the block cache honest.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from ..ir.graph import Graph
from ..ir.ops import OP_REGISTRY, operator_from_config
from ..ir.tensor import TensorShape
from ..ir.validate import validate_graph

__all__ = [
    "FrontendError",
    "ForeignNode",
    "ImportContext",
    "ONNX_BRIDGES",
    "register_onnx_bridge",
    "import_onnx",
]


class FrontendError(ValueError):
    """Raised when an external model description cannot be imported."""


@dataclass(frozen=True)
class ForeignNode:
    """One node of the foreign graph, as declared in the JSON."""

    name: str
    op_type: str
    inputs: tuple[str, ...]
    attrs: dict[str, Any] = field(default_factory=dict)


@dataclass
class ImportContext:
    """Import-time state a bridge can consult.

    ``initializers`` maps weight names to their declared dimensions;
    ``alias`` maps foreign value names to the IR node that now produces them
    (folded nodes alias to their surviving producer).
    """

    graph: Graph
    initializers: dict[str, tuple[int, ...]]
    alias: dict[str, str]

    def is_initializer(self, value: str) -> bool:
        return value in self.initializers

    def initializer_dims(self, value: str) -> tuple[int, ...]:
        return self.initializers[value]

    def resolve(self, value: str) -> str:
        """IR node name currently producing the foreign value ``value``."""
        if value not in self.alias:
            raise FrontendError(
                f"value {value!r} is not produced by any earlier node, graph "
                "input or initializer (nodes must be listed in topological order)"
            )
        return self.alias[value]

    def shape_of(self, value: str) -> TensorShape:
        shape = self.graph.nodes[self.resolve(value)].output_shape
        assert shape is not None
        return shape

    def activation_inputs(self, node: ForeignNode) -> list[str]:
        """The node's non-initializer inputs, resolved to IR node names."""
        return [self.resolve(v) for v in node.inputs if not self.is_initializer(v)]


#: Bridge registry: ONNX ``op_type`` -> bridge function.  A bridge returns an
#: operator config dict to materialise, or an IR node name (str) to alias the
#: foreign node's output to.
BridgeFn = Callable[[ForeignNode, ImportContext], "dict[str, Any] | str"]
ONNX_BRIDGES: dict[str, BridgeFn] = {}


def register_onnx_bridge(*op_types: str) -> Callable[[BridgeFn], BridgeFn]:
    """Register a bridge for one or more ONNX ``op_type`` tags."""

    def decorate(fn: BridgeFn) -> BridgeFn:
        for op_type in op_types:
            ONNX_BRIDGES[op_type] = fn
        return fn

    return decorate


def _config(node: ForeignNode, kind: str, inputs: Sequence[str], **attrs: Any) -> dict[str, Any]:
    return {"kind": kind, "name": node.name, "inputs": list(inputs), "attrs": attrs}


def _sole_activation(node: ForeignNode, ctx: ImportContext) -> str:
    acts = ctx.activation_inputs(node)
    if len(acts) != 1:
        raise FrontendError(
            f"node {node.name!r} ({node.op_type}) expects exactly one "
            f"non-initializer input, got {len(acts)}"
        )
    return acts[0]


# --------------------------------------------------------------------------- #
# Bridges                                                                      #
# --------------------------------------------------------------------------- #
@register_onnx_bridge("MatMul")
def _bridge_matmul(node: ForeignNode, ctx: ImportContext):
    if len(node.inputs) != 2:
        raise FrontendError(f"MatMul {node.name!r} expects two inputs")
    a, b = node.inputs
    if ctx.is_initializer(b):
        dims = ctx.initializer_dims(b)
        if len(dims) != 2:
            raise FrontendError(
                f"MatMul {node.name!r}: weight {b!r} must be 2-D, got {list(dims)}"
            )
        return _config(
            node, "matmul", [ctx.resolve(a)], out_features=dims[1], weight_id=b
        )
    if ctx.is_initializer(a):
        raise FrontendError(
            f"MatMul {node.name!r}: weight-first matmuls are not supported; "
            "put the activation operand first"
        )
    return _config(node, "matmul", [ctx.resolve(a), ctx.resolve(b)])


@register_onnx_bridge("Gemm")
def _bridge_gemm(node: ForeignNode, ctx: ImportContext):
    if len(node.inputs) < 2:
        raise FrontendError(f"Gemm {node.name!r} expects at least X and W inputs")
    x, w = node.inputs[0], node.inputs[1]
    if not ctx.is_initializer(w):
        raise FrontendError(f"Gemm {node.name!r}: second input {w!r} must be an initializer")
    dims = ctx.initializer_dims(w)
    if len(dims) != 2:
        raise FrontendError(f"Gemm {node.name!r}: weight {w!r} must be 2-D")
    trans_b = bool(node.attrs.get("transB", 0))
    out_features = dims[0] if trans_b else dims[1]
    # Bias (third input) is an initializer whose cost the projection already
    # prices (weight_count includes out_features bias terms).
    return _config(
        node, "matmul", [ctx.resolve(x)], out_features=out_features, weight_id=w
    )


@register_onnx_bridge("Conv")
def _bridge_conv(node: ForeignNode, ctx: ImportContext):
    if len(node.inputs) < 2 or not ctx.is_initializer(node.inputs[1]):
        raise FrontendError(f"Conv {node.name!r} expects a weight initializer as input 2")
    dims = ctx.initializer_dims(node.inputs[1])
    if len(dims) != 4:
        raise FrontendError(f"Conv {node.name!r}: weight must be 4-D (O, I/g, kh, kw)")
    kernel = node.attrs.get("kernel_shape", [dims[2], dims[3]])
    pads = node.attrs.get("pads", [0, 0, 0, 0])
    if len(pads) == 2:
        pads = [pads[0], pads[1], pads[0], pads[1]]
    if len(pads) != 4 or pads[0] != pads[2] or pads[1] != pads[3]:
        raise FrontendError(f"Conv {node.name!r}: only symmetric padding is supported")
    return _config(
        node,
        "conv2d",
        [ctx.resolve(node.inputs[0])],
        out_channels=dims[0],
        kernel=[int(k) for k in kernel],
        stride=[int(s) for s in node.attrs.get("strides", [1, 1])],
        padding=[int(pads[0]), int(pads[1])],
        groups=int(node.attrs.get("group", 1)),
        activation=None,
    )


@register_onnx_bridge("Add", "Sum")
def _bridge_add(node: ForeignNode, ctx: ImportContext):
    biases = [v for v in node.inputs if ctx.is_initializer(v)]
    acts = ctx.activation_inputs(node)
    if not biases:
        return _config(node, "add", acts)
    if len(biases) == 1 and len(acts) == 1:
        dims = ctx.initializer_dims(biases[0])
        producer = ctx.graph.nodes[acts[0]]
        if len(dims) == 1 and producer.kind in ("matmul", "linear", "conv2d"):
            # Bias epilogue: the projection's weight_count already includes
            # the bias vector, so the Add folds into its producer.
            return acts[0]
    raise FrontendError(
        f"Add {node.name!r}: unsupported operand mix (initializer inputs "
        "are only folded as 1-D biases of a preceding projection)"
    )


@register_onnx_bridge("Relu")
def _bridge_relu(node: ForeignNode, ctx: ImportContext):
    return _config(node, "relu", [_sole_activation(node, ctx)])


@register_onnx_bridge("Gelu")
def _bridge_gelu(node: ForeignNode, ctx: ImportContext):
    return _config(node, "gelu", [_sole_activation(node, ctx)])


@register_onnx_bridge("Softmax")
def _bridge_softmax(node: ForeignNode, ctx: ImportContext):
    return _config(node, "softmax", [_sole_activation(node, ctx)])


@register_onnx_bridge("LayerNormalization")
def _bridge_layer_norm(node: ForeignNode, ctx: ImportContext):
    # Scale/bias initializer inputs are dropped: LayerNorm.weight_count
    # prices the gain and bias vectors from the bound feature dimension.
    return _config(
        node,
        "layer_norm",
        [_sole_activation(node, ctx)],
        epsilon=float(node.attrs.get("epsilon", 1e-5)),
    )


@register_onnx_bridge("Transpose")
def _bridge_transpose(node: ForeignNode, ctx: ImportContext):
    x = _sole_activation(node, ctx)
    rank = ctx.shape_of(node.inputs[0]).rank
    perm = node.attrs.get("perm")
    swap_trailing = [1, 0] if rank == 2 else [0, 1, 3, 2]
    if perm is not None and list(perm) != swap_trailing:
        return _opaque_config(node, ctx)
    return _config(node, "transpose", [x])


@register_onnx_bridge("Reshape", "Flatten")
def _bridge_reshape(node: ForeignNode, ctx: ImportContext):
    x = _sole_activation(node, ctx)
    if node.op_type == "Flatten" or node.attrs.get("shape") is None:
        return _config(node, "flatten", [x])
    target = [int(d) for d in node.attrs["shape"]]
    if len(target) not in (2, 4):
        raise FrontendError(
            f"Reshape {node.name!r}: target must be 2-D or 4-D, got {target}"
        )
    # The leading dimension is the batch axis (commonly -1); the IR reshape
    # keeps it implicit so re-batching the graph stays valid.
    return _config(node, "reshape", [x], dims=target[1:])


@register_onnx_bridge("Concat")
def _bridge_concat(node: ForeignNode, ctx: ImportContext):
    if int(node.attrs.get("axis", 1)) != 1:
        return _opaque_config(node, ctx)
    return _config(node, "concat", ctx.activation_inputs(node))


@register_onnx_bridge("MaxPool", "AveragePool")
def _bridge_pool(node: ForeignNode, ctx: ImportContext):
    kernel = node.attrs.get("kernel_shape")
    if kernel is None:
        raise FrontendError(f"{node.op_type} {node.name!r} requires kernel_shape")
    pads = node.attrs.get("pads", [0, 0, 0, 0])
    if len(pads) == 2:
        pads = [pads[0], pads[1], pads[0], pads[1]]
    if len(pads) != 4 or pads[0] != pads[2] or pads[1] != pads[3]:
        raise FrontendError(f"{node.op_type} {node.name!r}: only symmetric padding")
    return _config(
        node,
        "pool2d",
        [_sole_activation(node, ctx)],
        pool_type="max" if node.op_type == "MaxPool" else "avg",
        kernel=[int(k) for k in kernel],
        stride=[int(s) for s in node.attrs.get("strides", kernel)],
        padding=[int(pads[0]), int(pads[1])],
        ceil_mode=bool(node.attrs.get("ceil_mode", 0)),
    )


@register_onnx_bridge("GlobalAveragePool")
def _bridge_global_pool(node: ForeignNode, ctx: ImportContext):
    return _config(node, "global_avg_pool", [_sole_activation(node, ctx)])


@register_onnx_bridge("Identity", "Dropout")
def _bridge_noop(node: ForeignNode, ctx: ImportContext):
    # Inference no-ops: alias the output straight to the producer.
    return _sole_activation(node, ctx)


# --------------------------------------------------------------------------- #
# Opaque degradation and generic registry dispatch                             #
# --------------------------------------------------------------------------- #
def _opaque_config(node: ForeignNode, ctx: ImportContext) -> dict[str, Any]:
    """Degrade a foreign node to an Opaque profiled operator.

    The declared ``shape`` attribute wins; otherwise the output is assumed
    shape-preserving over the first activation input.  The digest hashes the
    foreign attributes and initializer shapes so two opaque nodes that share
    an ``op_type`` but differ in configuration stay distinct to the block
    cache and the graph fingerprint.
    """
    acts = ctx.activation_inputs(node)
    if not acts:
        raise FrontendError(
            f"node {node.name!r} ({node.op_type}) has no activation inputs to anchor "
            "an opaque placeholder to"
        )
    declared = node.attrs.get("shape")
    if declared is not None:
        shape = TensorShape(*[int(d) for d in declared])
    else:
        shape = ctx.shape_of(node.inputs[0]) if node.inputs else ctx.shape_of(acts[0])
    weight_dims = [list(ctx.initializer_dims(v)) for v in node.inputs if ctx.is_initializer(v)]
    payload = json.dumps(
        {"op_type": node.op_type, "attrs": node.attrs, "weights": weight_dims},
        sort_keys=True,
        default=str,
    )
    digest = hashlib.sha256(payload.encode()).hexdigest()[:16]
    return _config(
        node,
        "opaque",
        acts,
        op_type=node.op_type,
        shape=str(shape),
        digest=digest,
        flops=node.attrs.get("flops"),
    )


def _dispatch(node: ForeignNode, ctx: ImportContext) -> dict[str, Any] | str:
    bridge = ONNX_BRIDGES.get(node.op_type)
    if bridge is not None:
        return bridge(node, ctx)
    if node.op_type in OP_REGISTRY:
        # A kind registered with repro.ir.register_operator (built-in or
        # third-party) can be named directly: attrs pass through verbatim.
        return _config(node, node.op_type, ctx.activation_inputs(node), **node.attrs)
    return _opaque_config(node, ctx)


# --------------------------------------------------------------------------- #
# Importer core                                                                #
# --------------------------------------------------------------------------- #
def _parse_foreign_nodes(data: dict[str, Any]) -> list[ForeignNode]:
    nodes = []
    for raw in data.get("nodes", []):
        try:
            name = raw["name"]
            op_type = raw["op_type"]
        except KeyError as exc:
            raise FrontendError(f"node {raw!r} is missing required key {exc}") from exc
        nodes.append(
            ForeignNode(
                name=str(name),
                op_type=str(op_type),
                inputs=tuple(str(v) for v in raw.get("inputs", [])),
                attrs=dict(raw.get("attrs", {})),
            )
        )
    if not nodes:
        raise FrontendError("model description contains no nodes")
    return nodes


def import_onnx(data: dict[str, Any], name: str | None = None) -> Graph:
    """Import an ONNX-subset JSON dictionary into a validated IR graph."""
    inputs = data.get("inputs", [])
    if len(inputs) != 1:
        raise FrontendError(
            f"the IR supports exactly one graph input, got {len(inputs)}"
        )
    graph = Graph(str(name or data.get("name", "imported")))
    input_name = str(inputs[0]["name"])
    input_dims = [int(d) for d in inputs[0]["shape"]]
    if len(input_dims) not in (2, 4):
        raise FrontendError(
            f"graph input {input_name!r} must be 2-D (rows, features) or 4-D "
            f"(NCHW), got {input_dims}"
        )
    from ..ir.ops import Placeholder

    graph.add_node(Placeholder(input_name, TensorShape(*input_dims)))

    ctx = ImportContext(
        graph=graph,
        initializers={
            str(init["name"]): tuple(int(d) for d in init["shape"])
            for init in data.get("initializers", [])
        },
        alias={input_name: input_name},
    )

    nodes = _parse_foreign_nodes(data)
    block_of = {}
    declared_blocks = data.get("blocks") or [{"name": "main", "nodes": None}]
    for spec in declared_blocks:
        # An explicitly empty member list means "no nodes" (the block is
        # pruned below); only a missing/None list defaults to every node.
        members = spec["nodes"] if spec.get("nodes") is not None else [n.name for n in nodes]
        for node_name in members:
            block_of[node_name] = spec["name"]
    blocks = {spec["name"]: graph.add_block(str(spec["name"])) for spec in declared_blocks}

    for node in nodes:
        result = _dispatch(node, ctx)
        if isinstance(result, str):
            ctx.alias[node.name] = result
            continue
        if node.name not in block_of:
            raise FrontendError(f"node {node.name!r} is not assigned to any block")
        try:
            op = operator_from_config(result)
            graph.add_node(op, blocks[block_of[node.name]])
        except (ValueError, KeyError) as exc:
            raise FrontendError(
                f"cannot import node {node.name!r} ({node.op_type}): {exc}"
            ) from exc
        ctx.alias[node.name] = node.name

    # Blocks declared but fully folded away would fail validation.
    graph.blocks[:] = [b for b in graph.blocks if b.node_names]
    validate_graph(graph)
    return graph
