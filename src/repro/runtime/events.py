"""Event records produced by the execution engine.

The executor reports what happened during a simulated inference as a list of
events; experiments (e.g. the active-warp study of Figure 8) and debugging
tools consume them.  :func:`add_execution_spans` replays a cached execution's
events into a :class:`~repro.obs.Tracer`, so a serving trace shows each
dispatched batch down to its kernel/stream placement.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping

__all__ = [
    "ExecutionSpan", "KernelEvent", "StageEvent", "add_execution_spans",
    "execution_spans",
]


@dataclass(frozen=True)
class KernelEvent:
    """One kernel execution within a stage, in network-global time."""

    kernel_name: str
    stage_index: int
    stream: int
    start_ms: float
    end_ms: float

    @property
    def duration_ms(self) -> float:
        return self.end_ms - self.start_ms


@dataclass(frozen=True)
class StageEvent:
    """One stage execution, in network-global time."""

    stage_index: int
    label: str
    strategy: str
    start_ms: float
    end_ms: float
    num_groups: int
    num_kernels: int
    flops: float

    @property
    def duration_ms(self) -> float:
        return self.end_ms - self.start_ms

    @property
    def gflops(self) -> float:
        return self.flops / 1e9

    def achieved_tflops(self) -> float:
        """TFLOPs/s achieved during this stage."""
        if self.duration_ms <= 0:
            return 0.0
        return (self.flops / (self.duration_ms / 1e3)) / 1e12


#: One replayable span of an execution: ``(name, track suffix, start_ms,
#: end_ms, category, args)`` with plan-local times.
ExecutionSpan = tuple[str, str, float, float, str, Mapping[str, object]]


def execution_spans(result) -> tuple[ExecutionSpan, ...]:
    """An execution's stage and kernel events as replayable spans.

    ``result`` is anything exposing ``stage_events()`` / ``kernel_events()``
    (an :class:`~repro.runtime.executor.ExecutionResult`; duck-typed to avoid
    an import cycle).  Stage spans come first, on the ``"/stages"`` suffix;
    kernels follow, one ``"/stream N"`` suffix per stream, where concurrent
    kernels of a stage overlap without colliding.  The args mappings are
    read-only views: every replay of the execution shares them.
    """
    stages = [
        (
            event.label, "/stages", event.start_ms, event.end_ms, "stage",
            MappingProxyType({
                "strategy": event.strategy,
                "groups": event.num_groups,
                "kernels": event.num_kernels,
                "gflops": event.gflops,
            }),
        )
        for event in result.stage_events()
    ]
    kernels = [
        (
            event.kernel_name, f"/stream {event.stream}", event.start_ms,
            event.end_ms, "kernel", MappingProxyType({"stage": event.stage_index}),
        )
        for event in result.kernel_events()
    ]
    return (*stages, *kernels)


def add_execution_spans(tracer, result, track_prefix: str, offset_ms: float) -> None:
    """Replay an execution's stage/kernel spans as child spans of a dispatch.

    ``result`` is an :class:`~repro.runtime.executor.ExecutionResult`, whose
    ``trace_spans`` renders :func:`execution_spans` once.  Span times are
    plan-local, so ``offset_ms`` — the dispatch's start on the virtual clock
    — re-bases them, and ``track_prefix`` (the worker) prefixes each track:
    every dispatch of a plan replays the same cached execution at its own
    start time.  Track names are interned, so the spans a traced replay
    retains share one string per worker track instead of one per span.
    """
    add_span = tracer.add_span
    for name, suffix, start_ms, end_ms, category, args in result.trace_spans:
        add_span(
            name, sys.intern(track_prefix + suffix), offset_ms + start_ms,
            offset_ms + end_ms, category=category, args=args,
        )
