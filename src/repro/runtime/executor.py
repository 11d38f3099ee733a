"""Simulated execution engine.

The paper implements its execution engine in C++ on top of cuDNN; here the
engine executes an :class:`ExecutionPlan` on a simulated device
(:mod:`repro.hardware`).  A plan is a list of stages; each stage holds one or
more *groups* of operators.  Groups are placed on distinct CUDA streams and run
concurrently; operators within a group run sequentially in the given order;
stages are separated by a stream synchronisation barrier — exactly the
execution model of Section 3 of the paper.

The executor is deliberately independent of the scheduler: the IOS core lowers
its :class:`~repro.core.schedule.Schedule` objects into plans, but baselines
(sequential, greedy, the simulated frameworks) construct plans directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable

from ..hardware.contention import SimulationResult, TimelineSegment, simulate_streams
from ..hardware.device import DeviceSpec
from ..hardware.kernel import CUDNN_PROFILE, KernelProfile, KernelSpec, build_kernel
from ..ir.graph import Graph
from ..ir.ops import Operator
from .events import ExecutionSpan, KernelEvent, StageEvent, execution_spans

__all__ = ["ExecutionStage", "ExecutionPlan", "StageResult", "ExecutionResult", "Executor",
           "sequential_plan", "plan_flops"]


@dataclass
class ExecutionStage:
    """One stage of an execution plan.

    ``groups`` is a list of operator groups; each group is an ordered list of
    operators executed back-to-back on one stream.  ``strategy`` is a label
    ("concurrent execution", "operator merge", "sequential") used for
    reporting only — by the time a plan exists, merged operators have already
    been constructed.
    """

    groups: list[list[Operator]]
    strategy: str = "concurrent execution"
    label: str = ""

    def operators(self) -> list[Operator]:
        return [op for group in self.groups for op in group]

    def flops(self) -> float:
        return float(sum(op.flops() for op in self.operators()))

    @property
    def num_groups(self) -> int:
        return len([g for g in self.groups if g])


@dataclass
class ExecutionPlan:
    """A fully lowered, executable description of one network inference."""

    name: str
    stages: list[ExecutionStage] = field(default_factory=list)
    batch_size: int = 1

    def num_stages(self) -> int:
        return len(self.stages)

    def num_kernel_operators(self) -> int:
        return sum(
            1 for stage in self.stages for op in stage.operators() if op.launches_kernel
        )

    def flops(self) -> float:
        return sum(stage.flops() for stage in self.stages)


@dataclass
class StageResult:
    """Result of executing one stage."""

    event: StageEvent
    kernel_events: list[KernelEvent] = field(default_factory=list)
    timeline: list[TimelineSegment] = field(default_factory=list)

    @property
    def latency_ms(self) -> float:
        return self.event.duration_ms


@dataclass
class ExecutionResult:
    """Result of executing a whole plan."""

    plan_name: str
    latency_ms: float
    batch_size: int
    stage_results: list[StageResult] = field(default_factory=list)

    def throughput(self) -> float:
        """Throughput in samples (images) per second."""
        if self.latency_ms <= 0:
            return 0.0
        return self.batch_size / (self.latency_ms / 1e3)

    def timeline(self) -> list[TimelineSegment]:
        """Concatenated, globally timed occupancy timeline across stages."""
        segments: list[TimelineSegment] = []
        for stage in self.stage_results:
            segments.extend(stage.timeline)
        return segments

    def stage_events(self) -> list[StageEvent]:
        return [stage.event for stage in self.stage_results]

    def kernel_events(self) -> list[KernelEvent]:
        return [event for stage in self.stage_results for event in stage.kernel_events]

    @cached_property
    def trace_spans(self) -> tuple[ExecutionSpan, ...]:
        """:func:`~repro.runtime.events.execution_spans`, rendered once.

        Serving replays one cached execution per plan for every dispatch, so
        the spans and their args are built on the first replay and shared.
        """
        return execution_spans(self)


class Executor:
    """Runs execution plans on a simulated device.

    Parameters
    ----------
    device:
        The simulated GPU.
    profile:
        Kernel-library profile used to lower operators into kernels.
    record_trace:
        Whether to keep the per-interval occupancy timeline (needed by the
        active-warp experiment; off by default because it allocates per
        interval).
    """

    def __init__(
        self,
        device: DeviceSpec,
        profile: KernelProfile = CUDNN_PROFILE,
        record_trace: bool = False,
    ):
        self.device = device
        self.profile = profile
        self.record_trace = record_trace
        # Operators are immutable once bound, so their kernels are too.  The
        # cache holds a strong reference to the operator, which pins its id()
        # — an id can never be recycled while its entry exists.  During a DP
        # search the same operators appear in thousands of candidate stages,
        # so this turns kernel lowering into a dict hit.
        self._kernel_cache: dict[int, tuple[Operator, KernelSpec | None]] = {}

    # ------------------------------------------------------------------ kernels
    def kernel(self, op: Operator) -> KernelSpec | None:
        """``op`` lowered to its kernel on this device (cached per op).

        ``None`` for an operator that launches no kernel.
        """
        entry = self._kernel_cache.get(id(op))
        if entry is None:
            kernel = build_kernel(op, self.device, self.profile)
            self._kernel_cache[id(op)] = (op, kernel)
            return kernel
        return entry[1]

    def _kernel_groups(self, stage: ExecutionStage) -> list[list[KernelSpec]]:
        """Lower a stage's operator groups to kernel groups (cached per op).

        Groups that launch no kernel are dropped, so every returned group
        occupies one stream.
        """
        kernel_groups = []
        for group in stage.groups:
            kernels = [kernel for kernel in map(self.kernel, group) if kernel is not None]
            if kernels:
                kernel_groups.append(kernels)
        return kernel_groups

    def _simulate(self, kernel_groups: list[list[KernelSpec]], record: bool) -> SimulationResult:
        """Price one stage: its streams run concurrently, then one barrier.

        Every stage latency in the repository comes from here — the kernel
        groups run on the contention simulator, one stream each, and the
        stage pays :meth:`DeviceSpec.stream_sync_ms` of its streams.
        ``record`` keeps per-kernel executions (and the timeline, when this
        executor records traces); the latency does not depend on it.
        """
        sim = simulate_streams(
            kernel_groups,
            self.device,
            record_trace=record and self.record_trace,
            record_executions=record,
        )
        sim.latency_ms += self.device.stream_sync_ms(len(kernel_groups))
        return sim

    # ------------------------------------------------------------------- stages
    def run_stage(self, stage: ExecutionStage, start_ms: float = 0.0, index: int = 0) -> StageResult:
        """Execute a single stage starting at ``start_ms`` global time."""
        kernel_groups = self._kernel_groups(stage)
        if kernel_groups:
            sim = self._simulate(kernel_groups, record=True)
        else:
            sim = SimulationResult(latency_ms=0.0)
        event = StageEvent(
            stage_index=index,
            label=stage.label,
            strategy=stage.strategy,
            start_ms=start_ms,
            end_ms=start_ms + sim.latency_ms,
            num_groups=len(kernel_groups),
            num_kernels=sum(len(kernels) for kernels in kernel_groups),
            flops=stage.flops(),
        )
        kernel_events = [
            KernelEvent(
                kernel_name=execution.kernel_name,
                stage_index=index,
                stream=execution.stream,
                start_ms=start_ms + execution.start_ms,
                end_ms=start_ms + execution.end_ms,
            )
            for execution in sim.executions
        ]
        timeline = [
            TimelineSegment(
                start_ms=start_ms + seg.start_ms,
                end_ms=start_ms + seg.end_ms,
                active_kernels=seg.active_kernels,
                active_warps=seg.active_warps,
            )
            for seg in sim.timeline
        ]
        return StageResult(event=event, kernel_events=kernel_events, timeline=timeline)

    def stage_latency_ms(self, stage: ExecutionStage) -> float:
        """Latency of one stage without materialising events or timelines.

        :meth:`run_stage` minus every piece of bookkeeping the DP search
        never reads.  Both go through :meth:`_simulate`, and this path only
        turns recording off (which lets the simulator answer from its latency
        cache), so the result equals ``run_stage(stage).latency_ms``
        bit-for-bit.
        """
        kernel_groups = self._kernel_groups(stage)
        if not kernel_groups:
            return 0.0
        return self._simulate(kernel_groups, record=False).latency_ms

    # -------------------------------------------------------------------- plans
    def run(self, plan: ExecutionPlan) -> ExecutionResult:
        """Execute every stage of ``plan`` sequentially and report the result."""
        now = 0.0
        stage_results: list[StageResult] = []
        for index, stage in enumerate(plan.stages):
            result = self.run_stage(stage, start_ms=now, index=index)
            stage_results.append(result)
            now = result.event.end_ms
        return ExecutionResult(
            plan_name=plan.name,
            latency_ms=now,
            batch_size=plan.batch_size,
            stage_results=stage_results,
        )

    def latency_ms(self, plan: ExecutionPlan) -> float:
        """Convenience wrapper returning only the end-to-end latency."""
        return self.run(plan).latency_ms


# --------------------------------------------------------------------------- #
# Plan construction helpers                                                    #
# --------------------------------------------------------------------------- #
def sequential_plan(graph: Graph, name: str | None = None) -> ExecutionPlan:
    """Build the sequential execution plan: one operator per stage.

    This is the "Sequential" baseline schedule of Section 6.1: operators are
    executed one by one in a topological order.
    """
    plan = ExecutionPlan(
        name=name or f"{graph.name}-sequential", batch_size=graph.batch_size
    )
    for op_name in graph.topological_order():
        op = graph.nodes[op_name]
        if not op.launches_kernel and op.kind == "placeholder":
            continue
        plan.stages.append(
            ExecutionStage(groups=[[op]], strategy="sequential", label=op_name)
        )
    return plan


def plan_flops(stages: Iterable[ExecutionStage]) -> float:
    """Total FLOPs over a collection of stages."""
    return float(sum(stage.flops() for stage in stages))
