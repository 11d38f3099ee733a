"""Individual stages of the compile pipeline.

The engine turns a graph into a running model in explicit stages::

    Graph --[passes]--> optimized Graph --[schedule]--> Schedule
          --[lower]--> ExecutionPlan

Each helper here implements one stage as a plain function so the stages are
individually reusable: the experiment runner and the serving registry run the
pass stage on its own, and :class:`repro.engine.Engine` chains all of them
with per-stage timing.
"""

from __future__ import annotations

from ..ir.graph import Graph
from ..obs.trace import NULL_TRACER

__all__ = ["apply_passes", "graph_identity"]


def apply_passes(graph: Graph, passes, *, tracer=NULL_TRACER) -> tuple[Graph, list | None]:
    """The pass stage: optionally rewrite ``graph`` before scheduling.

    ``passes`` follows the convention used everywhere in the system: ``False``
    / ``None`` skips rewriting (the graph is returned unchanged), ``True``
    runs :func:`repro.passes.default_pipeline`, and a
    :class:`~repro.passes.PassManager` (or list of pass names) runs that
    pipeline instead.  Returns ``(graph, pass_stats)`` where ``pass_stats`` is
    ``None`` when no pipeline ran.  A truthy ``tracer`` records one span per
    pipeline iteration on the ``compile/passes`` track.

    Every call runs the pipeline: the pass stage keeps no cache of its own.
    An engine runs it once per compile-cache miss.
    """
    if passes is None or passes is False:
        return graph, None
    # Imported lazily so the engine stays importable without repro.passes.
    from ..passes import optimize_graph

    result = optimize_graph(graph, None if passes is True else passes, tracer=tracer)
    return result.graph, result.stats


def graph_identity(graph: Graph) -> tuple[str, str, str]:
    """Cache identity of a graph: ``(name, node digest, structural fingerprint)``.

    Two graphs with equal identity have the same name, the same operator
    names in the same order, and isomorphic structure — a compiled model for
    one is valid verbatim for the other.  Both digests are cached on the
    graph, so this is cheap enough for a per-dispatch cache lookup.
    """
    return (graph.name, graph.node_digest(), graph.fingerprint())
