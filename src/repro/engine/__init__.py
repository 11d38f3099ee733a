"""repro.engine — one compile pipeline (Engine → CompiledModel) behind every entry point.

One explicit staged pipeline turns a graph into a measured schedule::

    Graph --[passes]--> optimized Graph --[schedule]--> Schedule
          --[lower]--> ExecutionPlan

* :mod:`repro.engine.engine` — :class:`Engine` (the pipeline driver with a
  fingerprint-keyed compile cache; :meth:`Engine.load` is the one artifact
  reader);
* :mod:`repro.engine.compiled` — :class:`CompiledModel` (all artifacts of one
  compilation: graph, schedule, execution plan, per-stage
  :class:`CompileStats`) with a full-artifact ``save()`` so warm starts
  perform **zero** scheduler searches;
* :mod:`repro.engine.stages` — the individual stage helpers
  (:func:`apply_passes` is also what ``ExperimentContext(passes=True)`` and
  the serving registry run).

Quick start::

    from repro.engine import Engine
    from repro.frontend import load

    engine = Engine("v100", passes=True)            # fix the environment once
    compiled = engine.compile(load("inception_v3"))
    print(compiled.latency_ms(), compiled.throughput())
    print(compiled.stats.describe())                # per-stage timing
    compiled.save("inception.compiled.json")        # warm-start artifact

    warm = Engine("v100", passes=True)
    warm.load("inception.compiled.json")            # zero scheduler searches

Every runtime path — CLI figure runs, ``ios-bench serve``, the frameworks
comparison, the registry's compile-on-miss — goes through
:meth:`Engine.compile`.
"""

from ..core.dp_scheduler import (
    VALID_VARIANTS,
    normalize_variant,
    variant_label,
)
from .compiled import (
    ARTIFACT_FORMAT,
    ArtifactMismatchError,
    CompiledModel,
    CompileStats,
    StageTiming,
)
from .engine import Engine, EngineStats
from .stages import apply_passes, graph_identity

__all__ = [
    "Engine",
    "EngineStats",
    "CompiledModel",
    "CompileStats",
    "StageTiming",
    "ARTIFACT_FORMAT",
    "ArtifactMismatchError",
    "apply_passes",
    "graph_identity",
    "normalize_variant",
    "variant_label",
    "VALID_VARIANTS",
]
