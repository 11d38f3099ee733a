"""RandWire (Xie et al., 2019): randomly wired neural networks.

RandWire generates its wiring with a random graph generator; following the
original paper we use the Watts-Strogatz small-world generator ``WS(n, k, p)``
with ``k = 4`` and ``p = 0.75`` and convert the undirected graph to a DAG by
orienting every edge from the lower-indexed to the higher-indexed node.  Each
node is a "Relu-SepConv" unit (Table 2); a node with several incoming edges
aggregates them with an element-wise addition first.  The network has three
randomly wired stages (blocks), each halving the spatial resolution and
doubling the channel count.

The wiring is fully determined by the ``seed`` argument, so experiments are
reproducible; the default configuration yields roughly 110 operators across
3 blocks with a largest-block width comparable to the paper's Table 1 (d = 8).
"""

from __future__ import annotations

import random

from ..ir.graph import Graph, GraphBuilder
from ..ir.tensor import TensorShape
from .common import ModelSpec, register_model

__all__ = ["randwire", "random_dag_edges"]

#: Graphs :func:`random_dag_edges` draws before giving up on a connected one.
_TRIES = 200


def random_dag_edges(num_nodes: int, k: int, p: float, seed: int) -> list[tuple[int, int]]:
    """Generate the DAG edge list of one randomly wired stage.

    A connected Watts-Strogatz graph is generated and each undirected edge
    ``{u, v}`` becomes the directed edge ``(min, max)``, which guarantees
    acyclicity.  The generator draws from ``random.Random(seed)`` in exactly
    the order of networkx's ``connected_watts_strogatz_graph(num_nodes, k, p,
    tries=200, seed=seed)``, so the sorted edge list is the one networkx
    builds (a test checks this against networkx).  Raises :class:`ValueError`
    when ``k > num_nodes`` or no connected graph turns up in 200 tries.
    """
    if num_nodes < 3:
        raise ValueError("a randomly wired stage needs at least 3 nodes")
    if k > num_nodes:
        raise ValueError(
            f"a Watts-Strogatz graph needs k <= n; got n={num_nodes}, k={k}, p={p}, seed={seed}"
        )
    rng = random.Random(seed)
    for _ in range(_TRIES):
        adjacency = _watts_strogatz(num_nodes, k, p, rng)
        if _is_connected(adjacency):
            return sorted(
                (u, v) for u, neighbours in enumerate(adjacency) for v in neighbours if u < v
            )
    raise ValueError(
        f"no connected Watts-Strogatz graph in {_TRIES} tries for "
        f"n={num_nodes}, k={k}, p={p}, seed={seed}"
    )


def _watts_strogatz(n: int, k: int, p: float, rng: random.Random) -> list[set[int]]:
    """One ``WS(n, k, p)`` graph as adjacency sets (networkx's draw order)."""
    if k == n:
        return [set(range(n)) - {u} for u in range(n)]
    adjacency: list[set[int]] = [set() for _ in range(n)]
    nodes = list(range(n))
    # Ring lattice: each node joins its k // 2 nearest neighbours on each side.
    for j in range(1, k // 2 + 1):
        for u in nodes:
            v = (u + j) % n
            adjacency[u].add(v)
            adjacency[v].add(u)
    # Rewire each lattice edge (u, u + j) with probability p to (u, w): w is
    # redrawn while it is u or already a neighbour, and the rewiring is
    # skipped once u neighbours every other node.
    for j in range(1, k // 2 + 1):
        for u in nodes:
            if rng.random() < p:
                w = rng.choice(nodes)
                while w == u or w in adjacency[u]:
                    w = rng.choice(nodes)
                    if len(adjacency[u]) >= n - 1:
                        break
                else:
                    v = (u + j) % n
                    adjacency[u].remove(v)
                    adjacency[v].remove(u)
                    adjacency[u].add(w)
                    adjacency[w].add(u)
    return adjacency


def _is_connected(adjacency: list[set[int]]) -> bool:
    """Whether the undirected graph reaches every node from node 0."""
    seen = {0}
    stack = [0]
    while stack:
        for v in adjacency[stack.pop()]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return len(seen) == len(adjacency)


def _wire_stage(
    builder: GraphBuilder,
    x: str,
    name: str,
    num_nodes: int,
    channels: int,
    stride: int,
    k: int,
    p: float,
    seed: int,
) -> str:
    """Build one randomly wired stage as a single scheduler block."""
    edges = random_dag_edges(num_nodes, k, p, seed)
    predecessors: dict[int, list[int]] = {i: [] for i in range(num_nodes)}
    for u, v in edges:
        predecessors[v].append(u)

    with builder.block(name):
        outputs: dict[int, str] = {}
        for node in range(num_nodes):
            preds = predecessors[node]
            if not preds:
                # Input nodes of the random graph read the stage input and
                # apply the stage's stride (spatial reduction happens here).
                source = x
                node_stride = stride
            elif len(preds) == 1:
                source = outputs[preds[0]]
                node_stride = 1
            else:
                source = builder.add(
                    f"{name}_n{node}_sum", [outputs[p_] for p_ in preds]
                )
                node_stride = 1
            outputs[node] = builder.sep_conv2d(
                f"{name}_n{node}_sepconv",
                source,
                out_channels=channels,
                kernel=3,
                stride=node_stride,
            )
        # Nodes without successors are averaged into the stage output.
        sinks = [n for n in range(num_nodes) if all(u != n for u, _ in edges)]
        sink_outputs = [outputs[n] for n in sinks]
        if len(sink_outputs) == 1:
            return sink_outputs[0]
        return builder.add(f"{name}_output_sum", sink_outputs)


def randwire(
    batch_size: int = 1,
    image_size: int = 224,
    num_classes: int = 1000,
    nodes_per_stage: int = 20,
    base_channels: int = 109,
    k: int = 4,
    p: float = 0.75,
    seed: int = 1,
) -> Graph:
    """Build a RandWire network with three randomly wired stages."""
    builder = GraphBuilder("randwire", TensorShape(batch_size, 3, image_size, image_size))
    x = builder.input_name

    with builder.block("stem"):
        x = builder.conv2d("stem_conv1", x, out_channels=base_channels // 2, kernel=3, stride=2)
        x = builder.conv2d("stem_conv2", x, out_channels=base_channels, kernel=3, stride=2)

    x = _wire_stage(
        builder, x, "stage1", nodes_per_stage, base_channels, stride=2, k=k, p=p, seed=seed
    )
    x = _wire_stage(
        builder, x, "stage2", nodes_per_stage, base_channels * 2, stride=2, k=k, p=p, seed=seed + 1
    )
    x = _wire_stage(
        builder, x, "stage3", nodes_per_stage, base_channels * 4, stride=2, k=k, p=p, seed=seed + 2
    )

    with builder.block("head"):
        x = builder.conv2d("head_conv", x, out_channels=1280, kernel=1)
        x = builder.global_avg_pool("head_pool", x)
        x = builder.flatten("head_flatten", x)
        builder.linear("head_fc", x, out_features=num_classes)

    return builder.build()


register_model(
    ModelSpec(
        name="randwire",
        builder=randwire,
        description="RandWire (Xie et al. 2019) with three WS(20, 4, 0.75) stages",
        default_image_size=224,
        paper_blocks=3,
        paper_operators=120,
        operator_type="Relu-SepConv",
    )
)
