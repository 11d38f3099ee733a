"""JSON (de)serialisation of computation graphs.

Graphs (and the schedules the core package produces for them) are plain data,
so round-tripping through JSON lets users persist optimised models, ship them
between machines, or diff two schedules.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from .graph import Graph
from .ops import operator_from_config
from .validate import validate_graph

__all__ = ["graph_to_dict", "graph_from_dict", "save_graph", "load_graph"]

FORMAT_VERSION = 1


def graph_to_dict(graph: Graph) -> dict[str, Any]:
    """Serialise a graph (structure + blocks, no tensor data) to a dict."""
    return {
        "format_version": FORMAT_VERSION,
        "name": graph.name,
        "nodes": [op.to_config() for op in graph.nodes.values()],
        "blocks": [
            {"name": block.name, "nodes": list(block.node_names)} for block in graph.blocks
        ],
    }


def graph_from_dict(data: dict[str, Any]) -> Graph:
    """Reconstruct a graph from :func:`graph_to_dict` output and validate it."""
    version = data.get("format_version", FORMAT_VERSION)
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported graph format version {version}")
    graph = Graph(data["name"])
    for block_data in data.get("blocks", []):
        graph.add_block(block_data["name"]).node_names.extend(block_data["nodes"])
    for node_config in data["nodes"]:
        graph.add_node(operator_from_config(node_config))
    validate_graph(graph)
    return graph


def save_graph(graph: Graph, path: str | Path) -> Path:
    """Write a graph to a JSON file and return the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(graph_to_dict(graph), indent=2))
    return path


def load_graph(path: str | Path) -> Graph:
    """Load a graph previously written by :func:`save_graph`."""
    data = json.loads(Path(path).read_text())
    return graph_from_dict(data)
