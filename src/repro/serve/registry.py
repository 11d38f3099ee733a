"""Persistent compiled-model registry.

The IOS search is far too expensive to run on the request path (seconds per
network), while the artifacts it produces are small JSON documents.  The
registry bridges the two: misses are compiled through one
:class:`repro.engine.Engine` per device and the resulting
:class:`~repro.engine.CompiledModel` — graph, schedule, provenance
fingerprints, compile stats — is persisted to disk keyed by
``(model, batch_size, device, variant)``, loaded lazily, and rebuilt on a
warm start with **zero** scheduler searches (loading re-lowers the schedule;
it never re-searches).

A warm registry turns serving start-up into pure artifact loads: the second
run of any serving experiment performs **zero** scheduler searches (see
:class:`RegistryStats`, which the end-to-end tests assert on).

Layout on disk::

    <root>/<model>/<device>__<variant>__bs<batch_size>__<fingerprint>.json

where ``<model>`` is the registry key's model string passed through
:func:`model_dirname` (model-file paths like
``examples/transformer_block.json`` collapse to one directory level) and
``<fingerprint>`` is the canonical structural fingerprint
(:func:`repro.ir.graph_fingerprint`) of the exact graph the schedule was
searched for.  The fingerprint is part of the key: a schedule compiled for a
pass-optimised graph can never be served for the raw graph (or vice versa),
and entries persisted before a model definition changed simply miss instead of
silently replaying stale stages.

Each file is a full :meth:`CompiledModel.to_dict` artifact.  A file that does
not load as one is a corrupt entry: it is deleted and the key recompiled.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable

from ..core.cost_model import SimulatedCostModel
from ..core.dp_scheduler import IOSScheduler, SchedulerConfig, normalize_variant
from ..core.schedule import Schedule
from ..engine import CompiledModel, Engine
from ..engine.compiled import ARTIFACT_VERSION
from ..hardware.device import DeviceSpec, get_device
from ..hardware.kernel import CUDNN_PROFILE, KernelProfile
from ..ir.fingerprint import graph_fingerprint
from ..ir.graph import Graph
from ..frontend import load
from ..obs.trace import NULL_TRACER, Tracer

__all__ = ["RegistryKey", "RegistryStats", "RegistryError", "ScheduleRegistry",
           "model_dirname"]


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


@dataclass(frozen=True, order=True)
class RegistryKey:
    """Identity of one specialised schedule.

    ``fingerprint`` is the structural fingerprint of the graph the schedule
    belongs to.
    """

    model: str
    batch_size: int
    device: str
    variant: str
    fingerprint: str

    def filename(self) -> str:
        """The on-disk artifact name: ``device__variant__bsN__fingerprint.json``."""
        return f"{self.device}__{self.variant}__bs{self.batch_size}__{self.fingerprint}.json"

    @classmethod
    def from_path(cls, model: str, path: Path) -> "RegistryKey":
        """Parse a persisted :meth:`filename` back into a key (or raise)."""
        parts = path.stem.split("__")
        if len(parts) != 4 or not parts[2].startswith("bs"):
            raise ValueError(f"malformed registry filename: {path.name}")
        device, variant, batch, fingerprint = parts
        return cls(model=model, batch_size=int(batch[2:]), device=device,
                   variant=variant, fingerprint=fingerprint)


class RegistryError(RuntimeError):
    """Raised when a persisted registry entry cannot be used."""


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


def _default_scheduler(device: DeviceSpec, profile: KernelProfile,
                       variant: str) -> IOSScheduler:
    return IOSScheduler(SimulatedCostModel(device, profile), SchedulerConfig.variant(variant))


class ScheduleRegistry:
    """Disk-backed cache of batch-size/device-specialised compiled models.

    Parameters
    ----------
    root:
        Directory for persisted artifacts.  ``None`` keeps the registry purely
        in-memory (useful for unit tests); lookups then never touch disk.
    profile:
        Kernel-library profile used when a miss forces a compile.
    variant:
        IOS variant compiled on a miss; any spelling accepted by
        :func:`repro.core.normalize_variant`.
    graph_builder:
        How to obtain the computation graph for ``(model, batch_size)``;
        defaults to :func:`repro.frontend.load`.  Override to serve
        graphs that are not in the model zoo.
    scheduler_factory:
        Override the scheduler the per-device engines compile with (tests
        inject counting or failing schedulers here).
    passes:
        Run the graph-rewriting pipeline of :mod:`repro.passes` on every
        built graph before scheduling/serving it.  ``True`` uses the default
        pipeline; a :class:`~repro.passes.PassManager` runs that one.  The
        persisted key fingerprints the *rewritten* graph, so optimised and
        raw schedules never collide.
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
        scheduler_factory: Callable[[DeviceSpec, KernelProfile, str], IOSScheduler] | None = None,
        passes=False,
        tracer: Tracer | None = None,
    ):
        self.root = Path(root) if root is not None else None
        self.profile = profile
        self.variant = normalize_variant(variant)
        self.passes = passes
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self._graph_builder = graph_builder or (
            lambda model, batch_size: load(model, batch_size=batch_size)
        )
        self._scheduler_factory = scheduler_factory or _default_scheduler
        self._cache: dict[RegistryKey, CompiledModel] = {}
        self._engines: dict[str, Engine] = {}
        self._graphs: dict[tuple[str, int], Graph] = {}
        self._fingerprints: dict[tuple[str, int], str] = {}
        self.stats = RegistryStats()

    # ----------------------------------------------------------------- helpers
    def key(self, model: str, batch_size: int, device: DeviceSpec | str) -> RegistryKey:
        """The full registry key (variant + served-graph fingerprint included)."""
        device_name = device if isinstance(device, str) else device.name
        return RegistryKey(model=model, batch_size=batch_size, device=device_name,
                           variant=self.variant,
                           fingerprint=self.fingerprint_for(model, batch_size))

    def path_for(self, key: RegistryKey) -> Path | None:
        """Where ``key`` persists on disk (``None`` for in-memory registries)."""
        if self.root is None:
            return None
        return self.root / model_dirname(key.model) / key.filename()

    def engine_for(self, device: DeviceSpec) -> Engine:
        """The compile engine for ``device`` (one per device, shared cache).

        The engine wraps whatever scheduler ``scheduler_factory`` builds, so
        injected schedulers keep working; the served graphs are already
        pass-optimised by :meth:`graph_for`, hence ``passes`` stays off here.
        """
        if device.name not in self._engines:
            scheduler = self._scheduler_factory(device, self.profile, self.variant)
            self._engines[device.name] = Engine(
                device, profile=self.profile, scheduler=scheduler
            )
        engine = self._engines[device.name]
        # Re-point on every call: the registry may outlive a traced run, and
        # the service re-targets self.tracer per run.
        engine.tracer = self.tracer
        return engine

    def graph_for(self, model: str, batch_size: int) -> Graph:
        """The (optionally pass-optimised) graph served for ``(model, batch)``."""
        cache_key = (model, batch_size)
        if cache_key not in self._graphs:
            graph = self._graph_builder(model, batch_size)
            if self.passes:
                from ..engine.stages import apply_passes

                graph, _ = apply_passes(graph, self.passes, tracer=self.tracer)
            self._graphs[cache_key] = graph
        return self._graphs[cache_key]

    def fingerprint_for(self, model: str, batch_size: int) -> str:
        """Structural fingerprint of the graph served for ``(model, batch)``."""
        cache_key = (model, batch_size)
        if cache_key not in self._fingerprints:
            self._fingerprints[cache_key] = graph_fingerprint(
                self.graph_for(model, batch_size)
            )
        return self._fingerprints[cache_key]

    # ----------------------------------------------------------------- lookups
    def get_compiled(self, model: str, batch_size: int, device: DeviceSpec) -> CompiledModel:
        """Fetch the specialised compiled model, compiling/persisting on a miss.

        Resolution order: in-memory cache → persisted artifact (zero
        searches) → :meth:`engine_for` compile (the only path that searches).
        """
        key = self.key(model, batch_size, device)
        compiled = self._cache.get(key)
        if compiled is not None:
            self.stats.memory_hits += 1
            return compiled

        compiled = self._load(key, device)
        if compiled is not None:
            self.stats.disk_hits += 1
            self._cache[key] = compiled
            return compiled

        compiled = self._compile(key, device)
        self._cache[key] = compiled
        self._persist(key, compiled)
        return compiled

    def get(self, model: str, batch_size: int, device: DeviceSpec) -> Schedule:
        """Fetch the specialised schedule (see :meth:`get_compiled`)."""
        return self.get_compiled(model, batch_size, device).schedule

    def put(self, model: str, batch_size: int, device: DeviceSpec | str,
            schedule: Schedule) -> None:
        """Insert a schedule produced elsewhere (e.g. by an offline sweep).

        The schedule is lowered (and thereby validated) against the served
        graph so the registry still hands out full compiled models.
        """
        key = self.key(model, batch_size, device)
        spec = get_device(device) if isinstance(device, str) else device
        compiled = CompiledModel.from_schedule(
            self.graph_for(model, batch_size), schedule, spec,
            profile=self.profile, variant=self.variant,
        )
        self._cache[key] = compiled
        self._persist(key, compiled)

    def contains(self, model: str, batch_size: int, device: DeviceSpec | str) -> bool:
        """Whether a servable entry exists in memory or on disk (no compile)."""
        key = self.key(model, batch_size, device)
        if key in self._cache:
            return True
        path = self.path_for(key)
        return path is not None and path.exists()

    def warmup(self, model: str, batch_sizes: Iterable[int], device: DeviceSpec) -> None:
        """Eagerly resolve a set of batch sizes (start-up precompilation)."""
        for batch_size in batch_sizes:
            self.get_compiled(model, batch_size, device)

    def cached_batch_sizes(self, model: str, device: DeviceSpec | str) -> list[int]:
        """Batch sizes with a servable entry for ``(model, device)``.

        Disk entries only count when their fingerprint matches the graph this
        registry would serve today — stale files are not servable.
        """
        device_name = device if isinstance(device, str) else device.name
        sizes = {
            key.batch_size
            for key in self._cache
            if key.model == model and key.device == device_name and key.variant == self.variant
        }
        if self.root is not None:
            model_dir = self.root / model_dirname(model)
            if model_dir.is_dir():
                for path in model_dir.glob(f"{device_name}__{self.variant}__bs*.json"):
                    try:
                        key = RegistryKey.from_path(model, path)
                    except ValueError:
                        continue
                    if key.fingerprint == self.fingerprint_for(model, key.batch_size):
                        sizes.add(key.batch_size)
        return sorted(sizes)

    def keys(self) -> list[RegistryKey]:
        """Every key present in memory or on disk — a raw inventory.

        Unlike :meth:`cached_batch_sizes`, this does *not* filter by the
        currently-served graph: entries fingerprinted for an older model
        definition are listed too, even though :meth:`get` would treat them
        as misses and recompile.  Files whose names do not parse as a key are
        skipped.
        """
        found = set(self._cache)
        if self.root is not None and self.root.is_dir():
            for model_dir in self.root.iterdir():
                if not model_dir.is_dir():
                    continue
                for path in model_dir.glob("*.json"):
                    try:
                        found.add(RegistryKey.from_path(model_dir.name, path))
                    except ValueError:
                        continue
        return sorted(found)

    # ------------------------------------------------------------ persistence
    def _load(self, key: RegistryKey, device: DeviceSpec) -> CompiledModel | None:
        path = self.path_for(key)
        if path is None or not path.exists():
            return None
        try:
            data = json.loads(path.read_text())
        except json.JSONDecodeError:
            self._drop_corrupt(path)
            return None
        version = data.get("format_version") if CompiledModel.is_artifact(data) else None
        if isinstance(version, int) and version != ARTIFACT_VERSION:
            # A different (likely newer) artifact format: miss without
            # deleting, so a rollback or mixed-version deployment sharing
            # a registry dir cannot destroy the other version's entries.
            return None
        try:
            compiled = CompiledModel.from_dict(data, device=device, profile=self.profile)
        except ValueError:
            # A hand-edited, half-written or foreign file must not take the
            # service down: drop the entry and fall through to a compile.
            self._drop_corrupt(path)
            return None
        expected = self.graph_for(key.model, key.batch_size).name
        if compiled.schedule.graph_name != expected:
            raise RegistryError(
                f"registry entry {path} holds a schedule for graph "
                f"{compiled.schedule.graph_name!r}, expected {expected!r}"
            )
        return compiled

    def _drop_corrupt(self, path: Path) -> None:
        self.stats.corrupt_entries += 1
        path.unlink(missing_ok=True)

    def _persist(self, key: RegistryKey, compiled: CompiledModel) -> None:
        path = self.path_for(key)
        if path is not None:
            compiled.save(path)

    def _compile(self, key: RegistryKey, device: DeviceSpec) -> CompiledModel:
        graph = self.graph_for(key.model, key.batch_size)
        engine = self.engine_for(device)
        searches_before = engine.stats.searches
        compiled = engine.compile(graph)
        # Only count compiles that actually ran the DP search; the engine's
        # own fingerprint cache may have satisfied this miss for free.
        self.stats.searches += engine.stats.searches - searches_before
        return compiled
