"""DAG width (Definition 1) via Dilworth's theorem.

The *width* ``d`` of a DAG is the size of its largest antichain — the largest
set of operators no two of which are connected by a path.  It governs the
complexity of IOS (Theorem in Section 4.2).  By Dilworth's theorem the largest
antichain equals the minimum number of chains needed to cover the DAG, and the
minimum chain cover of a DAG with ``n`` vertices equals ``n - M`` where ``M``
is a maximum matching of the bipartite graph whose edges are the pairs
``(u, v)`` with a path from ``u`` to ``v`` (the transitive closure).  The
matching grows along augmenting paths until none is left, which makes it
maximum (Berge's lemma).
"""

from __future__ import annotations

from typing import Sequence

from ..ir.graph import Block, Graph

__all__ = ["dag_width", "block_width", "transitive_closure_masks", "maximum_antichain_size"]


def transitive_closure_masks(graph: Graph, op_names: Sequence[str]) -> dict[str, set[str]]:
    """Reachability sets (descendants) of each operator within ``op_names``."""
    names = graph.topological_order(list(op_names))
    name_set = set(names)
    reachable: dict[str, set[str]] = {name: set() for name in names}
    # Walk in reverse topological order so successors' reachability is complete.
    for name in reversed(names):
        for succ in graph.successors(name):
            if succ in name_set:
                reachable[name].add(succ)
                reachable[name] |= reachable[succ]
    return reachable


def _maximum_matching_size(adjacency: Sequence[Sequence[int]]) -> int:
    """Size of a maximum matching of a bipartite graph.

    ``adjacency[u]`` lists the right vertices (``0..len(adjacency)-1``) the
    left vertex ``u`` connects to.  Each left vertex in turn searches for an
    augmenting path with an explicit depth-first stack, so deep graphs need
    no recursion.
    """
    match = [-1] * len(adjacency)  # right vertex -> its matched left vertex
    matched = 0
    for root in range(len(adjacency)):
        visited = [False] * len(adjacency)
        #: Left vertices on the current alternating path, each with the
        #: iterator over its untried neighbours; ``path[i]`` is the right
        #: vertex ``stack[i]`` reaches the next left vertex through.
        stack = [(root, iter(adjacency[root]))]
        path: list[int] = []
        while stack:
            for v in stack[-1][1]:
                if visited[v]:
                    continue
                visited[v] = True
                path.append(v)
                if match[v] == -1:
                    for (u, _), right in zip(stack, path):
                        match[right] = u
                    matched += 1
                    stack = []
                else:
                    stack.append((match[v], iter(adjacency[match[v]])))
                break
            else:
                stack.pop()
                if path:
                    path.pop()
    return matched


def maximum_antichain_size(graph: Graph, op_names: Sequence[str]) -> int:
    """Size of the largest antichain of the subgraph induced by ``op_names``."""
    names = graph.topological_order(list(op_names))
    if not names:
        return 0
    reachable = transitive_closure_masks(graph, names)
    # Minimum chain cover via König: the left copy of u connects to the
    # right copy of v iff v is reachable from u.
    index = {name: i for i, name in enumerate(names)}
    adjacency = [sorted(index[v] for v in reachable[name]) for name in names]
    return len(names) - _maximum_matching_size(adjacency)


def dag_width(graph: Graph, op_names: Sequence[str] | None = None) -> int:
    """Width of the whole graph or of the subgraph induced by ``op_names``."""
    names = op_names if op_names is not None else graph.schedulable_names()
    return maximum_antichain_size(graph, list(names))


def block_width(graph: Graph, block: Block) -> int:
    """Width of one block (the ``d`` reported per network in Table 1)."""
    return maximum_antichain_size(graph, graph.schedulable_names(block))
