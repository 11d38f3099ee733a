"""Canonical structural fingerprints of computation graphs.

A fingerprint is a short stable hash of a graph's *structure*: operator kinds,
attributes, wiring, block boundaries and shapes — everything scheduling
depends on — but **not** node names or insertion order.  Two graphs that are
isomorphic up to operator renaming and topologically-equivalent node order
fingerprint identically; any structural difference (an extra operator, a
different batch size, a rewired edge, a moved block boundary) changes the
fingerprint.

Fingerprints give the rest of the system a cheap identity for "this exact
computation":

* the engine's compile cache (:func:`repro.engine.graph_identity`) keys
  compiled models by it, so a compile of an unchanged structure is free;
* the schedule registry (:mod:`repro.serve.registry`) embeds the fingerprint
  in persisted keys, so schedules searched for a rewritten graph can never be
  served for the raw one (or vice versa);
* the canonicalization pass reorders nodes into :func:`canonical_order`,
  making serialised graphs byte-stable across construction orders.
"""

from __future__ import annotations

import hashlib
import json

from .graph import Graph

__all__ = ["canonical_order", "graph_fingerprint", "FINGERPRINT_LENGTH"]

#: Hex digits kept from the SHA-256 digest (64 bits — plenty for a registry).
FINGERPRINT_LENGTH = 16


def canonical_order(graph: Graph) -> list[str]:
    """A deterministic topological order independent of insertion order.

    Kahn's algorithm where the ready set is kept sorted by a structural key
    (block position, kind, serialised attributes, canonical indices of the
    already-ordered inputs) with the node name as the final tie-break.  The
    name only decides between nodes that are structurally interchangeable, so
    renaming nodes cannot change which *structure* occupies each position.
    """
    block_position = {
        name: idx for idx, block in enumerate(graph.blocks) for name in block.node_names
    }
    position: dict[str, int] = {}

    def sort_key(name: str):
        op = graph.nodes[name]
        # Inputs outside the graph (tolerated below) sort as -1.
        inputs = tuple(position.get(p, -1) for p in op.inputs)
        attrs = json.dumps(op.attrs(), sort_keys=True, default=str)
        return (block_position.get(name, -1), op.kind, attrs, inputs, name)

    # Successors derived from ``inputs`` (not the graph's consumer cache) so
    # indegrees and decrements always agree, edge for edge.
    successors: dict[str, list[str]] = {name: [] for name in graph.nodes}
    remaining = {}
    for name, op in graph.nodes.items():
        in_graph = [p for p in op.inputs if p in graph.nodes]
        remaining[name] = len(in_graph)
        for p in in_graph:
            successors[p].append(name)
    ready = [name for name, degree in remaining.items() if degree == 0]
    order: list[str] = []
    while ready:
        ready.sort(key=sort_key)
        name = ready.pop(0)
        position[name] = len(order)
        order.append(name)
        for succ in successors[name]:
            remaining[succ] -= 1
            if remaining[succ] == 0:
                ready.append(succ)
    if len(order) != len(graph.nodes):
        raise ValueError(f"graph {graph.name!r} contains a cycle")
    return order


def graph_fingerprint(graph: Graph, length: int = FINGERPRINT_LENGTH) -> str:
    """Hex fingerprint of the graph's canonical structural form.

    The graph name is deliberately excluded (callers key on it separately);
    node names only appear as canonical indices, so a renamed but otherwise
    identical graph keeps its fingerprint.
    """
    order = canonical_order(graph)
    position = {name: idx for idx, name in enumerate(order)}
    block_position = {
        name: idx for idx, block in enumerate(graph.blocks) for name in block.node_names
    }
    entries = []
    for name in order:
        op = graph.nodes[name]
        entries.append(
            [
                block_position.get(name, -1),
                op.kind,
                json.dumps(op.attrs(), sort_keys=True, default=str),
                [position.get(p, -1) for p in op.inputs],
                str(op.output_shape),
            ]
        )
    payload = json.dumps(entries, separators=(",", ":"))
    digest = hashlib.sha256(payload.encode("utf-8")).hexdigest()
    return digest[:length]
