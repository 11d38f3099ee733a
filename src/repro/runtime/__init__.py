"""Simulated execution engine: executor, warp tracing, memory planner."""

from .events import KernelEvent, StageEvent
from .executor import (
    ExecutionPlan,
    ExecutionResult,
    ExecutionStage,
    Executor,
    StageResult,
    plan_flops,
    sequential_plan,
)
from .warp_trace import WarpTrace, compare_traces, trace_from_timeline
from .memory import MemoryPlan, MemoryPlanner, OutOfMemoryError

__all__ = [
    "KernelEvent",
    "StageEvent",
    "ExecutionStage",
    "ExecutionPlan",
    "StageResult",
    "ExecutionResult",
    "Executor",
    "sequential_plan",
    "plan_flops",
    "WarpTrace",
    "trace_from_timeline",
    "compare_traces",
    "MemoryPlan",
    "MemoryPlanner",
    "OutOfMemoryError",
]
