"""Persistent compiled-model registry: a disk tier over one engine per device.

The IOS search is far too expensive to run on the request path (seconds per
network), while the artifacts it produces are small JSON documents.  The
registry bridges the two.  It holds one :class:`repro.engine.Engine` per
device, all compiling in one environment (kernel profile and variant), and
adds only a disk tier beneath their compile caches.  A lookup is, in order:

1. the engine's compile cache (:meth:`~repro.engine.Engine.cached`) — a
   memory hit;
2. the persisted artifact, loaded by :meth:`~repro.engine.Engine.load` —
   a disk hit, with **zero** scheduler searches (loading re-lowers the
   schedule; it never re-searches);
3. :meth:`~repro.engine.Engine.compile`, whose
   :class:`~repro.engine.CompiledModel` is then persisted — the only path
   that searches.

A warm registry turns serving start-up into pure artifact loads: the second
run of any serving experiment performs **zero** scheduler searches (see
:class:`RegistryStats`, which the end-to-end tests assert on).

Layout on disk::

    <root>/<model>/<device>__<profile>__<variant>__bs<batch_size>__<fingerprint>.json

where ``<model>`` is the model string passed through :func:`model_dirname`
(model-file paths like ``examples/transformer_block.json`` collapse to one
directory level), ``<profile>`` is the kernel profile's name and
``<fingerprint>`` is the canonical structural fingerprint
(:meth:`repro.ir.Graph.fingerprint`) of the exact graph the schedule was
searched for.  The fingerprint is part of the name: a schedule compiled for a
pass-optimised graph can never be served for the raw graph (or vice versa),
and entries persisted before a model definition changed simply miss instead of
silently replaying stale stages.

Each file is a full :meth:`CompiledModel.to_dict` artifact.  A file that does
not load as one is a corrupt entry: it is deleted and the key recompiled.  An
artifact of another format version misses and stays on disk.  A well-formed
artifact of another environment or graph (which the name cannot cover, e.g.
another pruning strategy) is never served: the loader raises
:class:`~repro.engine.ArtifactMismatchError` naming the field.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable

from ..core.dp_scheduler import normalize_variant
from ..core.schedule import Schedule
from ..engine import ArtifactMismatchError, CompiledModel, Engine, apply_passes
from ..hardware.device import DeviceSpec
from ..hardware.kernel import CUDNN_PROFILE, KernelProfile
from ..ir.graph import Graph
from ..frontend import load
from ..obs.trace import NULL_TRACER, Tracer

__all__ = ["RegistryStats", "ScheduleRegistry", "model_dirname"]


def model_dirname(model: str) -> str:
    """Filesystem-safe directory name for a model source string.

    ``model`` may be a zoo name *or* a model-file path (the registry's
    default ``graph_builder`` is :func:`repro.frontend.load`, which accepts
    both).  A path such as ``examples/transformer_block.json`` must not turn
    the single ``<root>/<model>/`` directory level into a nested tree — or
    escape the root entirely via ``..`` — so every run of characters outside
    ``[A-Za-z0-9._-]`` collapses to one ``_`` and leading/trailing dots are
    stripped.  Zoo names are already safe and pass through unchanged.
    """
    safe = re.sub(r"[^A-Za-z0-9._-]+", "_", model).strip("._")
    return safe or "model"


@dataclass
class RegistryStats:
    """Where schedule lookups were satisfied.

    ``searches`` counts actual IOS scheduler runs — the expensive event the
    registry exists to avoid.  A warm second run must report ``searches == 0``.
    """

    memory_hits: int = 0
    disk_hits: int = 0
    searches: int = 0
    corrupt_entries: int = 0

    @property
    def lookups(self) -> int:
        """Total resolved lookups, however they were satisfied."""
        return self.memory_hits + self.disk_hits + self.searches

    def as_dict(self) -> dict[str, int]:
        """All counters as one flat dict (reports, CSV rows)."""
        return {
            "lookups": self.lookups,
            "memory_hits": self.memory_hits,
            "disk_hits": self.disk_hits,
            "searches": self.searches,
            "corrupt_entries": self.corrupt_entries,
        }


class ScheduleRegistry:
    """Disk tier over per-device engines: batch-size/device-specialised models.

    Parameters
    ----------
    root:
        Directory for persisted artifacts.  ``None`` keeps the registry purely
        in-memory (useful for unit tests); lookups then never touch disk.
    profile:
        Kernel-library profile the per-device engines compile with.
    variant:
        IOS variant compiled on a miss; any spelling accepted by
        :func:`repro.core.normalize_variant`.
    graph_builder:
        How to obtain the computation graph for ``(model, batch_size)``;
        defaults to :func:`repro.frontend.load`.  Override to serve
        graphs that are not in the model zoo.
    passes:
        Run the graph-rewriting pipeline of :mod:`repro.passes` on every
        built graph before scheduling/serving it.  ``True`` uses the default
        pipeline; a :class:`~repro.passes.PassManager` runs that one.  The
        persisted name fingerprints the *rewritten* graph, so optimised and
        raw schedules never collide.
    jobs:
        Worker processes each per-device engine searches with (see
        :class:`~repro.engine.Engine`); schedules are identical either way.
    tracer:
        Optional :class:`~repro.obs.Tracer` handed to every per-device
        compile engine, so misses record their compile stages on the trace's
        ``compile/stages`` track.  The attribute is mutable and re-applied on
        each :meth:`engine_for` call — a service may point a long-lived
        registry at the current run's tracer.
    """

    def __init__(
        self,
        root: str | Path | None = None,
        profile: KernelProfile = CUDNN_PROFILE,
        variant: str = "ios-both",
        graph_builder: Callable[[str, int], Graph] | None = None,
        passes=False,
        jobs: int = 1,
        tracer: Tracer | None = None,
    ):
        self.root = Path(root) if root is not None else None
        self.profile = profile
        self.variant = normalize_variant(variant)
        self.passes = passes
        self.jobs = jobs
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self._graph_builder = graph_builder or (
            lambda model, batch_size: load(model, batch_size=batch_size)
        )
        self._engines: dict[str, Engine] = {}
        self._graphs: dict[tuple[str, int], Graph] = {}
        #: ``(model, batch_size, device name)`` keys known to have their file.
        self._persisted: set[tuple[str, int, str]] = set()
        self.stats = RegistryStats()

    # ----------------------------------------------------------------- helpers
    def path_for(self, model: str, batch_size: int, device: DeviceSpec | str) -> Path | None:
        """Where ``(model, batch_size, device)`` persists (``None`` in memory)."""
        if self.root is None:
            return None
        device_name = device if isinstance(device, str) else device.name
        fingerprint = self.graph_for(model, batch_size).fingerprint()
        return self.root / model_dirname(model) / (
            f"{device_name}__{self.profile.name}__{self.variant}"
            f"__bs{batch_size}__{fingerprint}.json"
        )

    def engine_for(self, device: DeviceSpec) -> Engine:
        """The compile engine for ``device`` (one per device name).

        The served graphs are already pass-optimised by :meth:`graph_for`,
        hence ``passes`` stays off here.
        """
        engine = self._engines.get(device.name)
        if engine is None:
            engine = Engine(device, profile=self.profile, variant=self.variant, jobs=self.jobs)
            self._engines[device.name] = engine
        # Re-point on every call: the registry may outlive a traced run, and
        # the service re-targets self.tracer per run.
        engine.tracer = self.tracer
        return engine

    def graph_for(self, model: str, batch_size: int) -> Graph:
        """The (optionally pass-optimised) graph served for ``(model, batch)``."""
        graph = self._graphs.get((model, batch_size))
        if graph is None:
            graph = self._graph_builder(model, batch_size)
            if self.passes:
                graph, _ = apply_passes(graph, self.passes, tracer=self.tracer)
            self._graphs[(model, batch_size)] = graph
        return graph

    # ----------------------------------------------------------------- lookups
    def get_compiled(self, model: str, batch_size: int, device: DeviceSpec) -> CompiledModel:
        """Fetch the specialised compiled model, compiling/persisting on a miss.

        Resolution order: the engine's compile cache → persisted artifact
        (zero searches) → :meth:`Engine.compile` (the only path that searches).
        """
        graph = self.graph_for(model, batch_size)
        engine = self.engine_for(device)
        compiled = engine.cached(graph)
        if compiled is not None:
            self.stats.memory_hits += 1
            key = (model, batch_size, device.name)
            if self.root is not None and key not in self._persisted:
                # Another model name that builds the same graph filled the
                # engine's cache; this name still gets its own file.
                path = self.path_for(model, batch_size, device)
                if not path.exists():
                    compiled.save(path)
                self._persisted.add(key)
            return compiled

        path = self.path_for(model, batch_size, device)
        if path is not None and path.exists():
            compiled = self._load(engine, path, graph)
            if compiled is not None:
                self.stats.disk_hits += 1
                return compiled

        # A cache miss: the engine runs the DP search.
        compiled = engine.compile(graph)
        self.stats.searches += 1
        if path is not None:
            compiled.save(path)
        return compiled

    def get(self, model: str, batch_size: int, device: DeviceSpec) -> Schedule:
        """Fetch the specialised schedule (see :meth:`get_compiled`)."""
        return self.get_compiled(model, batch_size, device).schedule

    def warmup(self, model: str, batch_sizes: Iterable[int], device: DeviceSpec) -> None:
        """Eagerly resolve a set of batch sizes (start-up precompilation)."""
        for batch_size in batch_sizes:
            self.get_compiled(model, batch_size, device)

    # ------------------------------------------------------------ persistence
    def _load(self, engine: Engine, path: Path, graph: Graph) -> CompiledModel | None:
        try:
            return engine.load(path, graph)
        except ArtifactMismatchError as error:
            if error.field != "format_version":
                raise
            # A different (likely newer) artifact format: miss without
            # deleting, so a rollback or mixed-version deployment sharing
            # a registry dir cannot destroy the other version's entries.
            return None
        except ValueError:
            # A hand-edited, half-written or foreign file must not take the
            # service down: drop the entry and fall through to a compile.
            self.stats.corrupt_entries += 1
            path.unlink(missing_ok=True)
            return None
