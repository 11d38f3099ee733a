"""Simulated baseline frameworks (TensorFlow, XLA, TASO, TVM, TensorRT).

IOS itself compiles through :class:`repro.engine.Engine`; the experiments
compare it against these baselines.
"""

from .base import FrameworkModel, FrameworkResult
from .transforms import (
    apply_elementwise_fusion_discount,
    count_fusable_elementwise,
    find_same_input_merge_sets,
    sequential_plan_with_merges,
)
from .baselines import (
    FRAMEWORK_REGISTRY,
    TASOModel,
    TensorFlowModel,
    TensorFlowXLAModel,
    TensorRTModel,
    TVMAutoTuneModel,
    TVMCudnnModel,
    get_framework,
    list_frameworks,
)

__all__ = [
    "FrameworkModel",
    "FrameworkResult",
    "find_same_input_merge_sets",
    "sequential_plan_with_merges",
    "count_fusable_elementwise",
    "apply_elementwise_fusion_discount",
    "TensorFlowModel",
    "TensorFlowXLAModel",
    "TASOModel",
    "TVMCudnnModel",
    "TVMAutoTuneModel",
    "TensorRTModel",
    "FRAMEWORK_REGISTRY",
    "get_framework",
    "list_frameworks",
]
