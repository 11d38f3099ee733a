"""Default optimization pipeline.

:func:`optimize_graph` is the one-call entry point the rest of the system
uses: the engine's pass stage (:func:`repro.engine.stages.apply_passes` — and
through it ``Engine(passes=...)``, the experiment runner's
``ExperimentContext(passes=True)`` and the serving registry's
``ScheduleRegistry(passes=True)``) funnels through it.  It keeps no state
between calls: every call runs the pipeline, and reuse of a compiled graph
comes from the engine's compile cache.
"""

from __future__ import annotations

from ..ir.graph import Graph
from ..obs.trace import NULL_TRACER
from .base import GraphPass, PassManager, PassResult
from . import rewrites as _rewrites  # noqa: F401  (registers the built-in passes)

__all__ = [
    "DEFAULT_PASSES",
    "default_pipeline",
    "optimize_graph",
]

#: Names of the default pipeline, in execution order.  Fusion first (it shrinks
#: the graph the most), then CSE (merged duplicates expose split/concat
#: cancellations), then structural simplification, then dead-code cleanup of
#: whatever the earlier passes orphaned, then canonicalization so the final
#: graph has a stable serialised form.
DEFAULT_PASSES = (
    "fuse-activation",
    "fuse-epilogue",
    "cse",
    "cse-shared-weights",
    "simplify-split-concat",
    "eliminate-dead",
    "canonicalize",
)


def default_pipeline() -> PassManager:
    """The default :class:`PassManager` over :data:`DEFAULT_PASSES`."""
    return PassManager(list(DEFAULT_PASSES))


def optimize_graph(
    graph: Graph,
    passes: PassManager | list[GraphPass | str] | None = None,
    *,
    tracer=NULL_TRACER,
) -> PassResult:
    """Run a pass pipeline (default: :func:`default_pipeline`) on ``graph``.

    Returns the full :class:`~repro.passes.base.PassResult`; use
    ``optimize_graph(g).graph`` for just the rewritten graph.
    """
    if passes is None:
        manager = default_pipeline()
    elif isinstance(passes, PassManager):
        manager = passes
    else:
        manager = PassManager(list(passes))
    return manager.run(graph, tracer=tracer)
