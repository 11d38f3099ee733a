"""Shared plumbing for the experiment modules.

Most experiments need the same ingredients: build a benchmark network, compute
its five schedules (sequential, greedy, IOS-Merge, IOS-Parallel, IOS-Both),
execute them on a simulated device and aggregate throughputs.  The helpers
here centralise that so the per-figure modules stay small.

An :class:`ExperimentContext` owns everything the experiments share: the
device, whether the pass pipeline rewrites each model graph, and one
:class:`~repro.engine.Engine` per (device, variant, pruning) on its
kernel profile.
``ios-bench`` builds one context and hands it to every experiment, so e.g.
Figure 6, Figure 16 and an ``ios-bench all`` run never repeat the same
optimisation.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Sequence

from ..core.baselines import greedy_schedule, sequential_schedule
from ..core.dp_scheduler import ScheduleResult, normalize_variant
from ..core.endings import PruningStrategy
from ..core.lowering import measure_schedule
from ..core.schedule import Schedule
from ..engine import Engine, apply_passes
from ..hardware.device import DeviceSpec, get_device
from ..hardware.kernel import CUDNN_PROFILE, KernelProfile
from ..ir.graph import Graph
from ..frontend import load

__all__ = ["ScheduleRun", "ExperimentContext", "SCHEDULE_LABELS", "default_context"]

#: Display order of the five schedules compared in Figures 6 and 14.
SCHEDULE_LABELS = ["sequential", "greedy", "ios-merge", "ios-parallel", "ios-both"]


@dataclass
class ScheduleRun:
    """One (schedule, measurement) pair."""

    label: str
    schedule: Schedule
    latency_ms: float
    throughput: float
    optimization_s: float = 0.0
    optimization_gpu_ms: float = 0.0
    num_measurements: int = 0


@dataclass
class ExperimentContext:
    """Shared state for experiment runs (device, kernel profile, engines, caches).

    ``passes=True`` runs the default pass pipeline on every graph
    :meth:`graph` builds.
    """

    device: DeviceSpec
    profile: KernelProfile = CUDNN_PROFILE
    pruning: PruningStrategy = field(default_factory=lambda: PruningStrategy(3, 8))
    passes: bool = False
    _graphs: dict[tuple[str, int], Graph] = field(default_factory=dict)
    _engines: dict[tuple, Engine] = field(default_factory=dict)
    #: Result tuples per compiled model, so repeated ios_result() calls
    #: return the identical object (CompiledModel hashes by identity).
    _ios_results: dict[object, tuple] = field(default_factory=dict)

    def for_device(self, device: str | DeviceSpec) -> "ExperimentContext":
        """This context on another device, sharing its graphs and engines."""
        return replace(self, device=get_device(device) if isinstance(device, str) else device)

    # ------------------------------------------------------------------ graphs
    def graph(self, model: str, batch_size: int = 1) -> Graph:
        key = (model, batch_size)
        if key not in self._graphs:
            graph, _ = apply_passes(load(model, batch_size=batch_size), self.passes)
            self._graphs[key] = graph
        return self._graphs[key]

    # ---------------------------------------------------------------- engines
    def engine(
        self,
        variant: str = "ios-both",
        pruning: PruningStrategy | None = None,
        device: DeviceSpec | None = None,
    ) -> Engine:
        """This context's compile engine for (device, variant, pruning)."""
        device = device or self.device
        variant = normalize_variant(variant)
        pruning = pruning or self.pruning
        # Key on the frozen DeviceSpec itself, not its name: a tweaked preset
        # (e.g. get_device("v100").scaled(num_sms=40)) must never alias the
        # real one.
        key = (device, variant, pruning)
        engine = self._engines.get(key)
        if engine is None:
            engine = Engine(device, variant=variant, pruning=pruning, profile=self.profile)
            self._engines[key] = engine
        return engine

    # --------------------------------------------------------------- schedules
    def ios_result(
        self,
        graph: Graph,
        variant: str = "ios-both",
        pruning: PruningStrategy | None = None,
        device: DeviceSpec | None = None,
    ) -> tuple[ScheduleResult, float, float, int]:
        """IOS search result for a graph, via the context engine's cache.

        Returns ``(result, elapsed_s, profiling_gpu_ms, num_measurements)``;
        the cost figures are the *compile-time* ones recorded in
        :class:`~repro.engine.CompileStats`, so a cache hit reports the cost
        of the original search rather than zero.
        """
        compiled = self.engine(variant, pruning, device).compile(graph)
        cached = self._ios_results.get(compiled)
        if cached is None:
            result = compiled.schedule_result()
            cached = (
                result,
                result.elapsed_s,
                compiled.stats.profiling_gpu_ms,
                compiled.stats.num_measurements,
            )
            self._ios_results[compiled] = cached
        return cached

    def search_cost(
        self, graph: Graph, pruning: PruningStrategy | None = None
    ) -> tuple[float, float, int]:
        """``(elapsed_s, profiling_gpu_ms, num_measurements)`` of a cold IOS-Both search.

        A context engine's block cache outlives the experiment that filled it,
        so its compile of ``graph`` skips every block an earlier experiment
        already searched.  Search-cost columns come from a fresh engine
        instead, and so do not depend on what else ran in the process.
        """
        compiled = Engine(
            self.device, pruning=pruning or self.pruning, profile=self.profile
        ).compile(graph)
        stats = compiled.stats
        return compiled.schedule_result().elapsed_s, stats.profiling_gpu_ms, stats.num_measurements

    def schedule(self, graph: Graph, label: str, device: DeviceSpec | None = None,
                 pruning: PruningStrategy | None = None) -> tuple[Schedule, float, float, int]:
        """Build the named schedule; returns (schedule, search_s, gpu_ms, measurements)."""
        if label == "sequential":
            return sequential_schedule(graph), 0.0, 0.0, 0
        if label == "greedy":
            return greedy_schedule(graph), 0.0, 0.0, 0
        if label in ("ios-merge", "ios-parallel", "ios-both"):
            result, elapsed, gpu_ms, measurements = self.ios_result(
                graph, variant=label, pruning=pruning, device=device
            )
            return result.schedule, elapsed, gpu_ms, measurements
        raise KeyError(f"unknown schedule label {label!r}; expected one of {SCHEDULE_LABELS}")

    def run_schedule(
        self,
        graph: Graph,
        label: str,
        device: DeviceSpec | None = None,
        pruning: PruningStrategy | None = None,
    ) -> ScheduleRun:
        """Build and execute one schedule on the context's device."""
        device = device or self.device
        schedule, elapsed, gpu_ms, measurements = self.schedule(graph, label, device, pruning)
        result = measure_schedule(graph, schedule, device, self.profile)
        return ScheduleRun(
            label=label,
            schedule=schedule,
            latency_ms=result.latency_ms,
            throughput=result.throughput(),
            optimization_s=elapsed,
            optimization_gpu_ms=gpu_ms,
            num_measurements=measurements,
        )

    def compare_schedules(
        self,
        model: str,
        labels: Sequence[str] = tuple(SCHEDULE_LABELS),
        batch_size: int = 1,
        device: DeviceSpec | None = None,
    ) -> dict[str, ScheduleRun]:
        """Run every requested schedule of one model and return them by label."""
        graph = self.graph(model, batch_size)
        return {label: self.run_schedule(graph, label, device) for label in labels}


def default_context(device: str | DeviceSpec = "v100",
                    pruning: PruningStrategy | None = None,
                    passes: bool = False) -> ExperimentContext:
    """Create an :class:`ExperimentContext` for the named device preset."""
    spec = device if isinstance(device, DeviceSpec) else get_device(device)
    return ExperimentContext(device=spec, pruning=pruning or PruningStrategy(3, 8),
                             passes=passes)
