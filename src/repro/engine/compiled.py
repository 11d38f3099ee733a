"""Compiled-model artifacts: what an :class:`~repro.engine.Engine` produces.

A :class:`CompiledModel` bundles every artifact of one staged compilation —
the (possibly pass-optimised) graph, the schedule the DP search found for it,
the lowered :class:`~repro.runtime.executor.ExecutionPlan`, and the per-stage
:class:`CompileStats` — bound to the device and kernel profile it was compiled
for.  It is the unit of reuse across the system: the engine caches them per
graph fingerprint, the serve registry persists them to disk, and experiments
measure them.

Serialisation (:meth:`CompiledModel.save`) writes a single JSON document
containing the *full* artifact set — graph structure, schedule, provenance
fingerprints and compile stats.  :meth:`repro.engine.Engine.load` reads it
back, checking its provenance against the engine's environment, so a warm
start rebuilds an executable model with **zero** scheduler searches: loading
re-lowers the schedule (cheap, deterministic) instead of re-searching it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from ..core.dp_scheduler import ScheduleResult
from ..core.lowering import lower_schedule
from ..core.schedule import Schedule
from ..hardware.device import DeviceSpec, get_device
from ..hardware.kernel import KERNEL_PROFILES, KernelProfile
from ..ir.graph import Graph
from ..ir.serialization import graph_from_dict, graph_to_dict
from ..runtime.executor import ExecutionPlan, ExecutionResult, Executor

__all__ = [
    "StageTiming", "CompileStats", "CompiledModel", "ARTIFACT_FORMAT", "ArtifactMismatchError",
]

#: Marker identifying a persisted compiled-model artifact (vs. a bare
#: schedule document, which has no ``format`` key).
ARTIFACT_FORMAT = "repro/compiled-model"
ARTIFACT_VERSION = 1


class ArtifactMismatchError(ValueError):
    """A well-formed artifact that belongs to another compile environment.

    Raised instead of serving it: a schedule is specialised to the device,
    kernel profile, variant, pruning and pass pipeline it was searched
    under, to the graph it was searched for and to its artifact format.
    ``field`` names the artifact field that differs (``"device"``,
    ``"profile"``, ``"variant"``, ``"schedule.origin"``, ``"passes"``,
    ``"source"`` or ``"format_version"``).
    """

    def __init__(self, field: str, message: str):
        super().__init__(message)
        self.field = field


@dataclass(frozen=True)
class StageTiming:
    """Wall-clock time and summary detail of one compile stage."""

    stage: str
    elapsed_s: float
    detail: dict[str, Any] = field(default_factory=dict)

    def as_dict(self) -> dict[str, Any]:
        """JSON-clean dict form (artifact serialisation)."""
        return {"stage": self.stage, "elapsed_s": self.elapsed_s, "detail": dict(self.detail)}

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "StageTiming":
        """Rebuild from :meth:`as_dict` output."""
        return cls(
            stage=data["stage"],
            elapsed_s=float(data["elapsed_s"]),
            detail=dict(data["detail"]),
        )


@dataclass
class CompileStats:
    """Per-stage statistics of one staged compilation.

    ``searched`` distinguishes a compile that actually ran the DP search from
    an artifact loaded off disk (where the recorded stages describe the
    *original* compile, not the load).
    """

    stages: list[StageTiming] = field(default_factory=list)
    source_fingerprint: str = ""
    optimized_fingerprint: str = ""
    operators_in: int = 0
    operators_out: int = 0
    num_measurements: int = 0
    #: DP transitions whose stage the cost model's floor spared pricing.
    num_pruned: int = 0
    profiling_gpu_ms: float = 0.0
    searched: bool = True

    @property
    def elapsed_s(self) -> float:
        """Total wall-clock time over all recorded stages."""
        return sum(stage.elapsed_s for stage in self.stages)

    def stage(self, name: str) -> StageTiming | None:
        """The recorded timing of the named stage, if present."""
        for stage in self.stages:
            if stage.stage == name:
                return stage
        return None

    def stage_elapsed_s(self, name: str) -> float:
        """Wall-clock seconds of the named stage (0.0 when not recorded)."""
        timing = self.stage(name)
        return timing.elapsed_s if timing is not None else 0.0

    def as_dict(self) -> dict[str, Any]:
        """JSON-clean dict form (artifact serialisation)."""
        return {
            "stages": [stage.as_dict() for stage in self.stages],
            "source_fingerprint": self.source_fingerprint,
            "optimized_fingerprint": self.optimized_fingerprint,
            "operators_in": self.operators_in,
            "operators_out": self.operators_out,
            "num_measurements": self.num_measurements,
            "num_pruned": self.num_pruned,
            "profiling_gpu_ms": self.profiling_gpu_ms,
            "searched": self.searched,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "CompileStats":
        """Rebuild from :meth:`as_dict` output."""
        return cls(
            stages=[StageTiming.from_dict(s) for s in data["stages"]],
            source_fingerprint=data["source_fingerprint"],
            optimized_fingerprint=data["optimized_fingerprint"],
            operators_in=int(data["operators_in"]),
            operators_out=int(data["operators_out"]),
            num_measurements=int(data["num_measurements"]),
            # Artifacts of releases whose DP pruned nothing lack the count.
            num_pruned=int(data.get("num_pruned", 0)),
            profiling_gpu_ms=float(data["profiling_gpu_ms"]),
            searched=bool(data["searched"]),
        )

    def describe(self) -> str:
        """Human-readable per-stage timing breakdown."""
        lines = [
            f"compile: {self.operators_in} -> {self.operators_out} operators, "
            f"{self.elapsed_s * 1e3:.2f} ms total"
            + ("" if self.searched else " (loaded from artifact)")
        ]
        for stage in self.stages:
            detail = ", ".join(f"{k}={v}" for k, v in stage.detail.items())
            lines.append(f"  {stage.stage:>8s}: {stage.elapsed_s * 1e3:8.2f} ms  {detail}")
        return "\n".join(lines)


@dataclass(eq=False)
class CompiledModel:
    """Every artifact of one compilation, ready to execute or persist.

    ``graph`` is the graph the schedule refers to — the *optimized* graph when
    the engine's pass stage ran, otherwise the input graph itself.  The
    ``source_*`` fields identify the graph that went *into* the pipeline, so
    caches and registries can look artifacts up by what the caller has in
    hand.
    """

    graph: Graph
    schedule: Schedule
    plan: ExecutionPlan
    device: DeviceSpec
    profile: KernelProfile
    variant: str
    stats: CompileStats
    source_graph_name: str
    source_node_digest: str
    source_fingerprint: str
    #: Structural fingerprint of ``graph`` (the compiled form).
    fingerprint: str
    #: Full DP-search result when this model was compiled in-process;
    #: ``None`` after :meth:`load` (searches are exactly what loading avoids).
    search: ScheduleResult | None = field(default=None, repr=False)
    _execution: ExecutionResult | None = field(default=None, init=False, repr=False)

    # ------------------------------------------------------------- identity
    @property
    def model(self) -> str:
        """Name of the compiled graph (the registry's model key)."""
        return self.graph.name

    @property
    def batch_size(self) -> int:
        """Batch size the graph (and hence the schedule) is specialised for."""
        return self.graph.batch_size

    # ------------------------------------------------------------ execution
    def execute(self, profile: bool = False) -> ExecutionResult:
        """Run one inference of the plan on the compiled-for device.

        With ``profile=True`` the executor records the per-interval occupancy
        timeline (kernel events, active warps) and a *fresh* result is
        returned each call; the default is the cached, trace-free execution —
        the simulation is deterministic, so it runs at most once.
        """
        if profile:
            return Executor(self.device, self.profile, record_trace=True).run(self.plan)
        if self._execution is None:
            self._execution = Executor(self.device, self.profile).run(self.plan)
        return self._execution

    def schedule_result(self) -> ScheduleResult:
        """The DP-search result, tolerant of warm-started artifacts.

        An artifact loaded off disk carries no in-process search
        (``self.search is None``); this returns an empty stand-in (zero
        block stats / transitions / elapsed time — exactly what the load
        cost) so result-consuming code works on both compile paths.
        """
        if self.search is None:
            return ScheduleResult(schedule=self.schedule, graph=self.graph)
        return self.search

    def latency_ms(self) -> float:
        """End-to-end latency (ms) of one inference (cached measurement)."""
        return self.execute().latency_ms

    def throughput(self) -> float:
        """Throughput in samples/s of one inference (cached measurement)."""
        return self.execute().throughput()

    # -------------------------------------------------------- serialisation
    @staticmethod
    def is_artifact(data: Any) -> bool:
        """Whether a decoded JSON document is a compiled-model artifact."""
        return isinstance(data, dict) and data.get("format") == ARTIFACT_FORMAT

    def to_dict(self) -> dict[str, Any]:
        """The full artifact as one JSON-clean dict."""
        return {
            "format": ARTIFACT_FORMAT,
            "format_version": ARTIFACT_VERSION,
            "device": self.device.name,
            "profile": self.profile.name,
            "variant": self.variant,
            "source": {
                "graph_name": self.source_graph_name,
                "node_digest": self.source_node_digest,
                "fingerprint": self.source_fingerprint,
            },
            "fingerprint": self.fingerprint,
            "graph": graph_to_dict(self.graph),
            "schedule": self.schedule.to_dict(),
            "stats": self.stats.as_dict(),
        }

    @classmethod
    def from_dict(
        cls,
        data: dict[str, Any],
        device: DeviceSpec | None = None,
        profile: KernelProfile | None = None,
    ) -> "CompiledModel":
        """Rebuild a compiled model from :meth:`to_dict` output.

        The graph is re-validated and the schedule re-lowered (deterministic,
        no searches).  ``device`` / ``profile`` override the persisted names —
        needed when the artifact was compiled for a device or kernel profile
        that is not in the built-in registries.  Every field :meth:`to_dict`
        writes is required: a missing or malformed one raises a
        :class:`ValueError` naming it.  Keys it does not write are ignored.
        Another artifact format version raises :class:`ArtifactMismatchError`.
        """
        if not cls.is_artifact(data):
            raise ValueError(
                f"not a compiled-model artifact (field 'format' must be {ARTIFACT_FORMAT!r})"
            )
        version = _field(data, "format_version", int)
        if version != ARTIFACT_VERSION:
            raise ArtifactMismatchError(
                "format_version",
                f"unsupported compiled-model artifact version {version!r} "
                "(field 'format_version')"
            )
        device_name = _field(data, "device", str)
        if device is None:
            device = _parse("device", get_device, device_name)
        profile_name = _field(data, "profile", str)
        if profile is None:
            if profile_name not in KERNEL_PROFILES:
                raise ValueError(
                    f"artifact field 'profile' names unknown kernel profile "
                    f"{profile_name!r}; pass profile= explicitly "
                    f"(known: {sorted(KERNEL_PROFILES)})"
                )
            profile = KERNEL_PROFILES[profile_name]
        source = _field(data, "source", dict)
        graph = _parse("graph", graph_from_dict, _field(data, "graph", dict))
        schedule = _parse("schedule", Schedule.from_dict, _field(data, "schedule", dict))
        plan = lower_schedule(graph, schedule)
        stats = _parse("stats", CompileStats.from_dict, _field(data, "stats", dict))
        # The recorded stage timings describe the original compile, but *this*
        # object was loaded, not searched — keep the flag honest per process.
        stats.searched = False
        return cls(
            graph=graph,
            schedule=schedule,
            plan=plan,
            device=device,
            profile=profile,
            variant=_field(data, "variant", str),
            stats=stats,
            source_graph_name=_field(source, "graph_name", str, "source."),
            source_node_digest=_field(source, "node_digest", str, "source."),
            source_fingerprint=_field(source, "fingerprint", str, "source."),
            fingerprint=_field(data, "fingerprint", str),
        )

    def save(self, path: str | Path) -> Path:
        """Persist the full artifact set as one JSON file."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.to_dict(), indent=2))
        return path

    # -------------------------------------------------------------- display
    def describe(self) -> str:
        """Human-readable summary of the artifact set."""
        header = (
            f"CompiledModel({self.model!r}, batch {self.batch_size}, "
            f"{self.device.name}, {self.variant}): "
            f"{len(self.schedule)} stages, fingerprint {self.fingerprint}"
        )
        return "\n".join([header, self.stats.describe()])


def _field(data: dict[str, Any], key: str, kind: type, prefix: str = "") -> Any:
    """``data[key]``, or a :class:`ValueError` naming the missing/mistyped field."""
    if key not in data:
        raise ValueError(f"compiled-model artifact is missing field {prefix + key!r}")
    value = data[key]
    if not isinstance(value, kind):
        raise ValueError(
            f"compiled-model artifact field {prefix + key!r} must be "
            f"{kind.__name__}, got {type(value).__name__}"
        )
    return value


def _parse(name: str, parse: Callable[[Any], Any], value: Any) -> Any:
    """``parse(value)``, with any decoding error re-raised as a :class:`ValueError`."""
    try:
        return parse(value)
    except (KeyError, TypeError, ValueError) as error:
        raise ValueError(
            f"compiled-model artifact field {name!r} is malformed: {error!r}"
        ) from error
