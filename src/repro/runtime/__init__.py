"""Simulated execution engine: executor and memory planner.

Warp tracing (Figure 8) lives in :mod:`repro.runtime.warp_trace`; it needs
numpy, so importing this package does not load it.
"""

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
    "MemoryPlan",
    "MemoryPlanner",
    "OutOfMemoryError",
]
