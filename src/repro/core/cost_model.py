"""Stage-latency cost models.

IOS is *profile based*: ``GENERATE STAGE`` measures the latency of a candidate
stage under both parallelisation strategies directly on the hardware and keeps
the better one (Algorithm 1, L23-33).  The :class:`CostModel` interface below
is that latency oracle.  :class:`SimulatedCostModel` measures on the simulated
device: it lowers a stage and prices it through
:meth:`~repro.runtime.executor.Executor.stage_latency_ms`, the one path from a
stage to :func:`~repro.hardware.contention.simulate_streams`, and reports the
mean of :data:`REPEATS` runs after :data:`WARMUP` discarded ones, as the paper
profiles.  :class:`FlopsCostModel` is a cheap analytical stand-in used by tests
and by the contention-model ablation.

Every call measures: the DP prices each candidate stage of a block once and
keeps the price with the ending it belongs to, so the cost model keeps no
cache of its own.

A cost model may also supply :class:`StageFloors` — a first-principles lower
bound on every stage of a block that it can compute without measuring — which
lets the DP skip pricing candidates that provably cannot win.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Iterable, Sequence

from ..hardware.device import DeviceSpec
from ..hardware.kernel import CUDNN_PROFILE, KernelProfile
from ..ir.graph import Graph
from ..runtime.executor import ExecutionStage, Executor
from .merge import build_merged_operator, can_merge
from .schedule import ParallelizationStrategy, connected_groups

__all__ = ["StageChoice", "StageFloors", "CostModel", "SimulatedCostModel", "FlopsCostModel"]

#: Discarded warm-up runs per stage measurement.  They occupy the device, so
#: they count towards :attr:`SimulatedCostModel.profiling_ms`.
WARMUP = 1
#: Measured runs per stage measurement; the DP reads their mean.
REPEATS = 3

#: Relative slack on every floor.  A measurement is a mean of repeated
#: samples, which can round a few ulps below one sample, and a stream's
#: simulated time sums its kernels in another order than the floor does.
FLOOR_MARGIN = 1.0 - 1e-9


def _mean_of_repeats(value: float) -> float:
    """``float(np.mean(np.full(REPEATS, value)))``, without building the array.

    The simulated device is deterministic, so every run measures ``value`` —
    but their mean is *not* ``value`` (``(0.1 + 0.1 + 0.1) / 3`` rounds), and
    schedule choices can tie-break on a ulp.  For fewer than 8 samples numpy
    sums sequentially, which this loop reproduces bit-for-bit.
    """
    total = value
    for _ in range(REPEATS - 1):
        total += value
    return total / REPEATS


@dataclass(frozen=True)
class StageChoice:
    """Outcome of GENERATE STAGE for one candidate stage."""

    latency_ms: float
    strategy: ParallelizationStrategy


class StageFloors:
    """Roofline floors for the concurrent stages of one block.

    ``operator_ms[i]`` is the closed-form latency of operator ``i`` (a
    position in the block's operator list) running alone on the whole
    device: :meth:`~repro.hardware.kernel.KernelSpec.duration_alone_ms`, or
    ``0.0`` for an operator that launches no kernel.  A kernel that shares
    the device with other streams never gets more slots or bandwidth than it
    has alone, so a stream takes at least its kernels' summed floors, and a
    stage at least its slowest stream plus the stream-sync barrier.
    """

    def __init__(self, operator_ms: Sequence[float], device: DeviceSpec):
        self.operator_ms = tuple(operator_ms)
        self.device = device
        #: Summed floor of each group bitmask seen; groups recur across endings.
        self._stream_ms: dict[int, float] = {}

    def stage_ms(self, group_masks: Iterable[int]) -> float:
        """Lower bound on a concurrent stage, one stream per group bitmask.

        Groups whose operators launch no kernel put nothing on a stream.
        The bound does not hold for a *merged* stage: one merged kernel can
        beat the streams it replaces.
        """
        stream_of = self._stream_ms
        slowest = 0.0
        streams = 0
        for mask in group_masks:
            stream_ms = stream_of.get(mask)
            if stream_ms is None:
                stream_ms = stream_of[mask] = self._sum(mask)
            if stream_ms > 0.0:
                streams += 1
                if stream_ms > slowest:
                    slowest = stream_ms
        if not streams:
            return 0.0
        return (slowest + self.device.stream_sync_ms(streams)) * FLOOR_MARGIN

    def _sum(self, mask: int) -> float:
        operator_ms = self.operator_ms
        total = 0.0
        while mask:
            low = mask & -mask
            total += operator_ms[low.bit_length() - 1]
            mask ^= low
        return total


class CostModel(ABC):
    """Latency oracle used by the dynamic-programming scheduler."""

    def __init__(self) -> None:
        #: Number of stage latencies measured so far.
        self.num_measurements = 0

    # --------------------------------------------------------------- interface
    @abstractmethod
    def _measure_stage(
        self,
        graph: Graph,
        op_names: tuple[str, ...],
        strategy: ParallelizationStrategy,
        groups: Sequence[Sequence[str]] | None = None,
    ) -> float:
        """Measure (simulate) the latency of one stage.

        ``groups`` optionally carries the stage's connected-group
        decomposition when the caller already knows it (the DP enumerates
        endings *by* their groups); it must equal
        :func:`~repro.core.schedule.connected_groups` output exactly.
        """

    @property
    def profiling_ms(self) -> float:
        """Simulated device time spent measuring so far, in milliseconds."""
        return 0.0

    def signature(self) -> tuple | None:
        """Hashable identity of this model's latency function, or ``None``.

        Two cost models with equal signatures return identical latencies for
        every stage, so their block searches are interchangeable — this is the
        key the process-wide :class:`~repro.core.memo.ScheduleMemo` shares
        results under.  ``None`` (the default) means "not shareable": an
        unknown subclass must keep its searches private.
        """
        return None

    def stage_floors(self, graph: Graph, op_names: Sequence[str]) -> StageFloors | None:
        """Floors on the concurrent stages of ``op_names``, or ``None``.

        Every concurrent stage of these operators must price at or above its
        :meth:`StageFloors.stage_ms`; the DP skips measuring a candidate whose
        floor already loses.  ``None`` (the default) means no floor is known,
        so nothing is skipped.
        """
        return None

    def spawn(self) -> "CostModel | None":
        """A fresh, state-free clone for a worker process, or ``None``.

        Used by the multiprocessing search fan-out: each worker prices stages
        on its own clone (zero counters).  ``None`` (the default) means this
        model cannot be cloned deterministically and parallel search must
        fall back to serial.
        """
        return None

    # ----------------------------------------------------------------- public
    def stage_latency(
        self,
        graph: Graph,
        op_names: Sequence[str],
        strategy: ParallelizationStrategy,
        groups: Sequence[Sequence[str]] | None = None,
    ) -> float:
        """Measured latency of executing ``op_names`` as one stage."""
        self.num_measurements += 1
        return self._measure_stage(graph, tuple(op_names), strategy, groups)

    def generate_stage(self, graph: Graph, op_names: Sequence[str],
                       strategies: Sequence[ParallelizationStrategy] | None = None,
                       groups: Sequence[Sequence[str]] | None = None) -> StageChoice:
        """GENERATE STAGE: pick the better parallelisation strategy for a stage.

        ``strategies`` restricts the candidates (IOS-Parallel considers only
        concurrent execution, IOS-Merge only operator merge, IOS-Both both).
        If operator merge is requested but the operators cannot be merged its
        latency is infinite, forcing concurrent execution — and if *only*
        merge was requested, concurrent execution of a single sequential group
        is used as the fallback, mirroring how IOS-Merge degenerates to the
        sequential schedule on RandWire/NasNet (Section 6.1).
        """
        candidates = list(strategies) if strategies is not None else [
            ParallelizationStrategy.CONCURRENT,
            ParallelizationStrategy.MERGE,
        ]
        best: StageChoice | None = None
        for strategy in candidates:
            if strategy is ParallelizationStrategy.MERGE:
                if len(op_names) >= 2 and can_merge(graph, op_names):
                    latency = self.stage_latency(graph, op_names, strategy, groups)
                else:
                    continue
            else:
                latency = self.stage_latency(graph, op_names, strategy, groups)
            if best is None or latency < best.latency_ms:
                best = StageChoice(latency_ms=latency, strategy=strategy)
        if best is None:
            # Only MERGE was requested and the stage is not mergeable: fall
            # back to executing the operators sequentially in one group.
            latency = self.stage_latency(
                graph, op_names, ParallelizationStrategy.CONCURRENT, groups
            )
            best = StageChoice(latency_ms=latency, strategy=ParallelizationStrategy.CONCURRENT)
        return best


def stage_to_execution(graph: Graph, op_names: Sequence[str],
                       strategy: ParallelizationStrategy, label: str = "",
                       groups: Sequence[Sequence[str]] | None = None) -> ExecutionStage:
    """Lower one (operators, strategy) stage into an executable stage.

    Shared by the cost models and by :mod:`repro.core.lowering` so that the
    latency used during the search is exactly the latency of the executed
    schedule.  ``groups``, when given, must equal
    :func:`~repro.core.schedule.connected_groups` for ``op_names`` and lets
    callers that already know the decomposition skip recomputing it.
    """
    if strategy is ParallelizationStrategy.MERGE and len(op_names) >= 2:
        merged = build_merged_operator(graph, op_names)
        operators = [[merged.merged]]
        return ExecutionStage(groups=operators, strategy=strategy.value, label=label)
    if groups is None:
        groups = connected_groups(graph, op_names)
    operator_groups = [[graph.nodes[name] for name in group] for group in groups]
    return ExecutionStage(groups=operator_groups, strategy=strategy.value, label=label)


class SimulatedCostModel(CostModel):
    """Cost model that measures stages on the simulated GPU.

    This is the configuration used by every experiment: it mirrors the paper's
    methodology of profiling each candidate stage on the target device with the
    target batch size.  The simulator is deterministic, so the model is fully
    described by its device and kernel profile.
    """

    def __init__(self, device: DeviceSpec, profile: KernelProfile = CUDNN_PROFILE):
        super().__init__()
        self.device = device
        self.profile = profile
        self.executor = Executor(device, profile)
        #: Simulated device time spent measuring, in milliseconds: every
        #: measurement occupies the device for ``WARMUP + REPEATS`` runs of the
        #: stage.  This is the "optimization cost" axis of Figure 9 and the
        #: GPU-hours comparison of Figure 12.
        self._profiling_ms = 0.0

    def _measure_stage(
        self,
        graph: Graph,
        op_names: tuple[str, ...],
        strategy: ParallelizationStrategy,
        groups: Sequence[Sequence[str]] | None = None,
    ) -> float:
        stage = stage_to_execution(graph, op_names, strategy, groups=groups)
        latency = self.executor.stage_latency_ms(stage)
        self._profiling_ms += (WARMUP + REPEATS) * latency
        return _mean_of_repeats(latency)

    @property
    def profiling_ms(self) -> float:
        return self._profiling_ms

    def stage_floors(self, graph: Graph, op_names: Sequence[str]) -> StageFloors:
        """The closed-form roofline floor of each operator on this device."""
        device, kernel_of = self.device, self.executor.kernel
        operator_ms = []
        for name in op_names:
            kernel = kernel_of(graph.nodes[name])
            operator_ms.append(0.0 if kernel is None else kernel.duration_alone_ms(device))
        return StageFloors(operator_ms, device)

    def signature(self) -> tuple:
        """Shareable identity: the device and the kernel profile.

        The kernel profile is keyed structurally (name, efficiency table,
        launch-overhead scale), so two equal profiles share even when they are
        distinct objects.
        """
        profile = self.profile
        return (
            "simulated",
            self.device,
            (
                profile.name,
                tuple(sorted(profile.efficiency.items())),
                profile.default_efficiency,
                profile.launch_overhead_scale,
            ),
        )

    def spawn(self) -> "SimulatedCostModel":
        return SimulatedCostModel(self.device, self.profile)


class FlopsCostModel(CostModel):
    """Analytical cost model: latency proportional to FLOPs, with a fixed
    per-operator overhead and an idealised speed-up for concurrent groups.

    Useful for fast unit tests of the dynamic program (its optima are easy to
    compute by hand) and as the baseline of the contention-model ablation
    benchmark; not used for the paper-reproduction figures.
    """

    def __init__(self, flops_per_ms: float = 1e9, overhead_ms: float = 0.01):
        super().__init__()
        if flops_per_ms <= 0:
            raise ValueError("flops_per_ms must be positive")
        self.flops_per_ms = flops_per_ms
        self.overhead_ms = overhead_ms

    def signature(self) -> tuple | None:
        return ("flops", self.flops_per_ms, self.overhead_ms)

    def spawn(self) -> "FlopsCostModel":
        return FlopsCostModel(flops_per_ms=self.flops_per_ms, overhead_ms=self.overhead_ms)

    def _measure_stage(
        self,
        graph: Graph,
        op_names: tuple[str, ...],
        strategy: ParallelizationStrategy,
        groups: Sequence[Sequence[str]] | None = None,
    ) -> float:
        if strategy is ParallelizationStrategy.MERGE and len(op_names) >= 2:
            merged = build_merged_operator(graph, op_names)
            return self.overhead_ms + merged.merged.flops() / self.flops_per_ms
        if groups is None:
            groups = connected_groups(graph, op_names)
        group_latencies = []
        for group in groups:
            flops = sum(graph.nodes[name].flops() for name in group)
            group_latencies.append(len(group) * self.overhead_ms + flops / self.flops_per_ms)
        return max(group_latencies) if group_latencies else 0.0
