"""IOS core: the inter-operator scheduler and everything it needs.

This package holds the search *primitives* — the DP scheduler, cost models,
baselines, lowering.  For the one-call compile path use the engine, which
stages passes → search → lowering with caching and serializable artifacts::

    from repro.engine import Engine
    from repro.frontend import load

    engine = Engine("v100")                       # device, variant, profile
    compiled = engine.compile(load("inception_v3", batch_size=1))
    latency = compiled.latency_ms()

The engine builds on these primitives, which can also be driven directly::

    from repro.core import IOSScheduler, SimulatedCostModel, measure_schedule
    from repro.hardware import get_device

    device = get_device("v100")
    scheduler = IOSScheduler(SimulatedCostModel(device))
    result = scheduler.optimize_graph(graph)
    latency = measure_schedule(graph, result.schedule, device).latency_ms
"""

from .schedule import (
    ParallelizationStrategy,
    Schedule,
    ScheduleValidationError,
    Stage,
    connected_groups,
)
from .endings import BlockIndex, PruningStrategy, enumerate_endings, groups_of_mask, is_ending
from .merge import MergedStage, MergeError, build_merged_operator, can_merge, why_not_mergeable
from .width import block_width, dag_width, maximum_antichain_size
from .cost_model import (
    CostModel,
    FlopsCostModel,
    SimulatedCostModel,
    StageChoice,
    StageFloors,
    stage_to_execution,
)
from .dp_scheduler import (
    BlockStats,
    IOSScheduler,
    IOSVariant,
    ScheduleResult,
    SchedulerConfig,
    VALID_VARIANTS,
    normalize_variant,
    resolve_compile_jobs,
    variant_label,
)
from .baselines import greedy_schedule, sequential_schedule
from .lowering import lower_schedule, measure_schedule, schedule_latency_ms, schedule_throughput
from .complexity import (
    BlockComplexity,
    block_complexity,
    count_schedules,
    count_transitions_and_states,
    largest_block,
    relaxed_transition_bound,
    transition_upper_bound,
)
from .specialization import (
    SpecializationMatrix,
    specialize_for_batch_sizes,
    specialize_for_devices,
)

__all__ = [
    "ParallelizationStrategy",
    "Stage",
    "Schedule",
    "ScheduleValidationError",
    "connected_groups",
    "PruningStrategy",
    "BlockIndex",
    "enumerate_endings",
    "groups_of_mask",
    "is_ending",
    "MergeError",
    "MergedStage",
    "can_merge",
    "why_not_mergeable",
    "build_merged_operator",
    "dag_width",
    "block_width",
    "maximum_antichain_size",
    "CostModel",
    "SimulatedCostModel",
    "FlopsCostModel",
    "StageChoice",
    "StageFloors",
    "stage_to_execution",
    "IOSScheduler",
    "IOSVariant",
    "SchedulerConfig",
    "VALID_VARIANTS",
    "normalize_variant",
    "variant_label",
    "resolve_compile_jobs",
    "BlockStats",
    "ScheduleResult",
    "sequential_schedule",
    "greedy_schedule",
    "lower_schedule",
    "measure_schedule",
    "schedule_latency_ms",
    "schedule_throughput",
    "BlockComplexity",
    "block_complexity",
    "count_schedules",
    "count_transitions_and_states",
    "largest_block",
    "transition_upper_bound",
    "relaxed_transition_bound",
    "SpecializationMatrix",
    "specialize_for_batch_sizes",
    "specialize_for_devices",
]
