"""Computation graph container and builder.

A :class:`Graph` is a directed acyclic graph of :class:`~repro.ir.ops.Operator`
nodes.  Edges are implied by each operator's ``inputs`` list (an edge ``u -> v``
exists iff ``u`` appears in ``v.inputs``).

Graphs are *block structured*: modern CNNs stack blocks (Inception blocks,
NasNet cells, fire modules, ...), and — as described in Section 4.2 of the
paper — IOS optimises each block independently, which keeps ``n`` (operators
per block) and ``d`` (block width) small.  Every operator belongs to exactly
one :class:`Block`; blocks execute in their definition order.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

from .ops import (
    Add,
    Concat,
    Conv2d,
    Flatten,
    Gelu,
    GlobalAvgPool,
    Identity,
    LayerNorm,
    Linear,
    Matmul,
    Operator,
    Placeholder,
    Pool2d,
    Relu,
    Reshape,
    SeparableConv2d,
    Softmax,
    Split,
    Transpose,
)
from .tensor import TensorShape

__all__ = ["Block", "Graph", "GraphBuilder"]


@dataclass
class Block:
    """A named, ordered group of operators optimised as one scheduling unit."""

    name: str
    node_names: list[str] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.node_names)

    def __iter__(self) -> Iterator[str]:
        return iter(self.node_names)

    def __contains__(self, name: str) -> bool:
        return name in self.node_names


class Graph:
    """A block-structured CNN computation graph.

    Use :class:`GraphBuilder` to construct graphs; the raw constructor is used
    by deserialisation and graph-rewriting code that already has bound
    operators.
    """

    def __init__(self, name: str):
        self.name = name
        self.nodes: dict[str, Operator] = {}
        self.blocks: list[Block] = []
        self._consumers: dict[str, list[str]] = {}
        # Cached input shape: ``input_shape``/``batch_size`` sit on the cost
        # model's per-measurement path, where scanning every node for the
        # placeholder dominated profiles.  Invalidated when a placeholder is
        # added (the only mutation that can change it).
        self._input_shape_cache: TensorShape | None = None
        # Cached full topological order; every subset order is its restriction
        # (see :meth:`topological_order`).  Invalidated on ``add_node``.
        self._topo_cache: list[str] | None = None
        # Cached structural fingerprint and node-name digest (see
        # :meth:`fingerprint` / :meth:`node_digest`); invalidated on ``add_node``.
        self._fingerprint_cache: str | None = None
        self._node_digest_cache: str | None = None

    # ---------------------------------------------------------------- mutation
    def add_node(self, op: Operator, block: Block | None = None) -> Operator:
        """Add a bound operator to the graph (and optionally to a block)."""
        if op.name in self.nodes:
            raise ValueError(f"duplicate node name {op.name!r} in graph {self.name!r}")
        for parent in op.inputs:
            if parent not in self.nodes:
                raise ValueError(
                    f"node {op.name!r} references unknown input {parent!r}; "
                    "operators must be added in topological order"
                )
        if op.output_shape is None and not isinstance(op, Placeholder):
            op.bind([self.nodes[p].output_shape for p in op.inputs])  # type: ignore[list-item]
        self.nodes[op.name] = op
        if isinstance(op, Placeholder):
            self._input_shape_cache = None
        self._topo_cache = None
        self._fingerprint_cache = None
        self._node_digest_cache = None
        self._consumers.setdefault(op.name, [])
        for parent in op.inputs:
            self._consumers[parent].append(op.name)
        if block is not None:
            block.node_names.append(op.name)
        return op

    def add_block(self, name: str) -> Block:
        block = Block(name)
        self.blocks.append(block)
        return block

    def invalidate_caches(self) -> None:
        """Drop every derived cache (topological order, fingerprint, input shape).

        ``add_node`` invalidates these automatically; call this after any
        *in-place* mutation of existing operators (rewired ``inputs``,
        changed attributes) so stale derived state can never be observed.
        """
        self._input_shape_cache = None
        self._topo_cache = None
        self._fingerprint_cache = None
        self._node_digest_cache = None

    # ----------------------------------------------------------------- queries
    def __contains__(self, name: str) -> bool:
        return name in self.nodes

    def __getitem__(self, name: str) -> Operator:
        return self.nodes[name]

    def __len__(self) -> int:
        return len(self.nodes)

    @property
    def placeholders(self) -> list[Placeholder]:
        return [op for op in self.nodes.values() if isinstance(op, Placeholder)]

    @property
    def input_shape(self) -> TensorShape:
        """Shape of the (single) graph input."""
        cached = self._input_shape_cache
        if cached is not None:
            return cached
        phs = self.placeholders
        if len(phs) != 1:
            raise ValueError(f"graph {self.name!r} has {len(phs)} placeholders, expected 1")
        assert phs[0].output_shape is not None
        self._input_shape_cache = phs[0].output_shape
        return phs[0].output_shape

    @property
    def batch_size(self) -> int:
        return self.input_shape.batch

    def fingerprint(self) -> str:
        """Cached structural fingerprint of this graph.

        The canonical content identity from
        :func:`repro.ir.fingerprint.graph_fingerprint`, computed once per
        graph instance and invalidated on mutation.  Anything that caches
        measurements or compile results *across* graph instances must key on
        this (not on the graph name): two graphs can share a name and even
        operator names while computing different things.
        """
        if self._fingerprint_cache is None:
            from .fingerprint import graph_fingerprint

            self._fingerprint_cache = graph_fingerprint(self)
        return self._fingerprint_cache

    def node_digest(self) -> str:
        """Cached stable short digest of the node names (insertion order).

        :meth:`fingerprint` is deliberately rename-invariant, but schedules
        reference operators *by name* — so a compile cache (or a persisted
        artifact) must also key on the names.  Stable across processes,
        unlike ``hash()``.
        """
        if self._node_digest_cache is None:
            payload = "\n".join(self.nodes).encode("utf-8")
            self._node_digest_cache = hashlib.sha256(payload).hexdigest()[:16]
        return self._node_digest_cache

    def predecessors(self, name: str) -> tuple[str, ...]:
        return self.nodes[name].inputs

    def successors(self, name: str) -> tuple[str, ...]:
        return tuple(self._consumers.get(name, ()))

    def output_names(self) -> list[str]:
        """Names of nodes whose output is not consumed by any other node."""
        return [n for n in self.nodes if not self._consumers.get(n)]

    def operators(self, include_placeholders: bool = False) -> list[Operator]:
        """All operators, optionally excluding graph inputs."""
        ops = list(self.nodes.values())
        if include_placeholders:
            return ops
        return [op for op in ops if not isinstance(op, Placeholder)]

    def schedulable_names(self, block: Block | None = None) -> list[str]:
        """Names of operators that the scheduler treats as schedule units.

        Placeholders are never scheduled.  If ``block`` is given, only that
        block's operators are returned (in insertion order).
        """
        names: Iterable[str] = block.node_names if block is not None else self.nodes.keys()
        return [n for n in names if not isinstance(self.nodes[n], Placeholder)]

    def block_of(self, name: str) -> Block | None:
        for block in self.blocks:
            if name in block.node_names:
                return block
        return None

    # ------------------------------------------------------------ graph algos
    def topological_order(self, subset: Sequence[str] | None = None) -> list[str]:
        """Topological order of the whole graph or of an induced subgraph.

        The full order is a Kahn sort, computed once and cached.  A subset
        order is the restriction of the full order to the subset — so every
        subset sees the *same* relative ordering of its members, no matter
        which other operators accompany them.  The scheduler relies on this
        consistency: the operator order a stage is priced with during the
        search is exactly the order the lowered stage executes with.
        """
        order = self._topo_cache
        if order is None:
            names = list(self.nodes.keys())
            indegree = {n: len(self.nodes[n].inputs) for n in names}
            ready = [n for n in names if indegree[n] == 0]
            order = []
            while ready:
                node = ready.pop(0)
                order.append(node)
                for succ in self.successors(node):
                    indegree[succ] -= 1
                    if indegree[succ] == 0:
                        ready.append(succ)
            if len(order) != len(names):
                raise ValueError(f"graph {self.name!r} contains a cycle")
            self._topo_cache = order
        if subset is None:
            return list(order)
        name_set = set(subset)
        return [n for n in order if n in name_set]

    def edges(self) -> list[tuple[str, str]]:
        """All edges of the graph as (producer, consumer) pairs."""
        result = []
        for v, op in self.nodes.items():
            for u in op.inputs:
                result.append((u, v))
        return result

    # ---------------------------------------------------------------- metrics
    def total_flops(self) -> int:
        return sum(op.flops() for op in self.operators())

    def total_params(self) -> int:
        return sum(op.weight_count() for op in self.operators())

    def total_weight_bytes(self) -> int:
        return sum(op.weight_bytes() for op in self.operators())

    def conv_operators(self) -> list[Operator]:
        """All convolution-like operators (Conv2d and SeparableConv2d)."""
        return [op for op in self.operators() if isinstance(op, (Conv2d, SeparableConv2d))]

    # ------------------------------------------------------------- re-batching
    def with_batch_size(self, batch: int) -> "Graph":
        """Clone this graph with a different batch size.

        All operator attributes are preserved; shapes are re-inferred.  Used by
        the batch-size specialisation experiments (Table 3, Figure 11).
        """
        if batch <= 0:
            raise ValueError(f"batch must be positive, got {batch}")
        clone = Graph(self.name)
        block_map = {id(b): clone.add_block(b.name) for b in self.blocks}
        for name, op in self.nodes.items():
            config = op.to_config()
            if isinstance(op, Placeholder):
                assert op.output_shape is not None
                new_op: Operator = Placeholder(name, op.output_shape.with_batch(batch))
            else:
                from .ops import operator_from_config

                new_op = operator_from_config(config)
            src_block = self.block_of(name)
            clone.add_node(new_op, block_map[id(src_block)] if src_block is not None else None)
        return clone

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"<Graph {self.name!r}: {len(self.operators())} operators, "
            f"{len(self.blocks)} blocks, input {self.input_shape}>"
        )


class GraphBuilder:
    """Fluent builder for :class:`Graph` objects.

    Each ``conv2d`` / ``pool2d`` / ... call adds one operator and returns its
    node name, which is then passed as the input of downstream operators::

        b = GraphBuilder("toy", TensorShape(1, 384, 15, 15))
        x = b.input_name
        a = b.conv2d("a", x, out_channels=384, kernel=3)
        c = b.concat("cat", [a, ...])
        graph = b.build()

    Blocks are opened with :meth:`block`; operators created outside any explicit
    block are collected into automatically named blocks (``stem``, ``head`` ...).
    """

    def __init__(self, name: str, input_shape: TensorShape, input_name: str = "input"):
        self.graph = Graph(name)
        self._current_block: Block | None = None
        self._implicit_block: Block | None = None
        self._implicit_counter = 0
        self.input_name = input_name
        self.graph.add_node(Placeholder(input_name, input_shape))

    # -------------------------------------------------------------- block mgmt
    def block(self, name: str) -> "_BlockContext":
        """Open a named block; usable as a context manager."""
        return _BlockContext(self, name)

    def _begin_block(self, name: str) -> Block:
        if self._current_block is not None:
            raise RuntimeError(f"cannot nest block {name!r} inside {self._current_block.name!r}")
        self._implicit_block = None
        self._current_block = self.graph.add_block(name)
        return self._current_block

    def _end_block(self) -> None:
        self._current_block = None

    def _target_block(self) -> Block:
        if self._current_block is not None:
            return self._current_block
        if self._implicit_block is None:
            self._implicit_counter += 1
            self._implicit_block = self.graph.add_block(f"auto_block_{self._implicit_counter}")
        return self._implicit_block

    # ----------------------------------------------------------- op factories
    def _add(self, op: Operator) -> str:
        self.graph.add_node(op, self._target_block())
        return op.name

    def conv2d(
        self,
        name: str,
        x: str,
        out_channels: int,
        kernel: int | tuple[int, int],
        stride: int | tuple[int, int] = 1,
        padding: int | tuple[int, int] | str = "same",
        groups: int = 1,
        activation: str | None = "relu",
    ) -> str:
        return self._add(
            Conv2d(name, [x], out_channels, kernel, stride, padding, groups, activation)
        )

    def sep_conv2d(
        self,
        name: str,
        x: str,
        out_channels: int,
        kernel: int | tuple[int, int],
        stride: int | tuple[int, int] = 1,
        padding: int | tuple[int, int] | str = "same",
        pre_activation: bool = True,
    ) -> str:
        return self._add(
            SeparableConv2d(name, [x], out_channels, kernel, stride, padding, pre_activation)
        )

    def pool2d(
        self,
        name: str,
        x: str,
        pool_type: str,
        kernel: int | tuple[int, int],
        stride: int | tuple[int, int] | None = None,
        padding: int | tuple[int, int] | str = 0,
        ceil_mode: bool = False,
    ) -> str:
        return self._add(Pool2d(name, [x], pool_type, kernel, stride, padding, ceil_mode))

    def max_pool(self, name, x, kernel, stride=None, padding=0):
        return self.pool2d(name, x, "max", kernel, stride, padding)

    def avg_pool(self, name, x, kernel, stride=None, padding=0):
        return self.pool2d(name, x, "avg", kernel, stride, padding)

    def global_avg_pool(self, name: str, x: str) -> str:
        return self._add(GlobalAvgPool(name, [x]))

    def relu(self, name: str, x: str) -> str:
        return self._add(Relu(name, [x]))

    def identity(self, name: str, x: str) -> str:
        return self._add(Identity(name, [x]))

    def add(self, name: str, xs: Sequence[str]) -> str:
        return self._add(Add(name, list(xs)))

    def concat(self, name: str, xs: Sequence[str]) -> str:
        return self._add(Concat(name, list(xs)))

    def split(self, name: str, x: str, sections: Sequence[int], index: int) -> str:
        return self._add(Split(name, [x], sections, index))

    def flatten(self, name: str, x: str) -> str:
        return self._add(Flatten(name, [x]))

    def linear(self, name: str, x: str, out_features: int, activation: str | None = None) -> str:
        return self._add(Linear(name, [x], out_features, activation))

    def matmul(
        self,
        name: str,
        x: str | Sequence[str],
        out_features: int | None = None,
        activation: str | None = None,
    ) -> str:
        """Weighted projection (``x, out_features``) or, when ``x`` is a pair
        of node names and ``out_features`` is omitted, a weightless batched
        matmul of two activation matrices."""
        inputs = [x] if isinstance(x, str) else list(x)
        return self._add(Matmul(name, inputs, out_features, activation))

    def layer_norm(self, name: str, x: str, epsilon: float = 1e-5) -> str:
        return self._add(LayerNorm(name, [x], epsilon))

    def gelu(self, name: str, x: str) -> str:
        return self._add(Gelu(name, [x]))

    def transpose(self, name: str, x: str) -> str:
        return self._add(Transpose(name, [x]))

    def reshape(self, name: str, x: str, dims: Sequence[int]) -> str:
        return self._add(Reshape(name, [x], dims))

    def softmax(self, name: str, x: str) -> str:
        return self._add(Softmax(name, [x]))

    # ---------------------------------------------------------------- finalise
    def build(self) -> Graph:
        """Validate the constructed graph and return it."""
        from .validate import validate_graph

        validate_graph(self.graph)
        return self.graph


class _BlockContext:
    """Context manager returned by :meth:`GraphBuilder.block`."""

    def __init__(self, builder: GraphBuilder, name: str):
        self.builder = builder
        self.name = name
        self.block: Block | None = None

    def __enter__(self) -> Block:
        self.block = self.builder._begin_block(self.name)
        return self.block

    def __exit__(self, exc_type, exc, tb) -> None:
        self.builder._end_block()
