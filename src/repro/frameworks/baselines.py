"""The six simulated baseline frameworks of Figures 7, 11, 12, 15.

Each framework is a :class:`~repro.frameworks.base.FrameworkModel` configured
with the graph rewrites, kernel efficiencies, launch overheads and memory
policy that characterise the real system.  The constants below are not fitted
to the paper's numbers; they encode qualitative, publicly documented facts
(e.g. "TensorFlow's per-operator dispatch is much heavier than TensorRT's",
"cuDNN's depthwise convolutions are far from peak", "TASO retains intermediate
activations while verifying substitutions").  The resulting *ordering* of the
frameworks matches the paper; absolute gaps differ.
"""

from __future__ import annotations

from dataclasses import replace

from ..checks import Registry
from ..hardware.kernel import CUDNN_PROFILE, TENSORRT_PROFILE, TVM_AUTOTUNE_PROFILE
from ..ir.graph import Graph
from ..runtime.executor import ExecutionPlan
from .base import FrameworkModel
from .transforms import apply_elementwise_fusion_discount, sequential_plan_with_merges

__all__ = [
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


class TensorFlowModel(FrameworkModel):
    """TensorFlow 1.x/2.x with cuDNN kernels and a heavy per-op runtime."""

    name = "tensorflow"

    def __init__(self) -> None:
        super().__init__(
            profile=replace(CUDNN_PROFILE, name="cudnn-tf", launch_overhead_scale=3.0),
            per_inference_overhead_ms=0.9,
            activation_reuse=True,
            workspace_factor=1.5,
            framework_overhead_bytes=900 * 1024 * 1024,
        )


class TensorFlowXLAModel(FrameworkModel):
    """TensorFlow with XLA: pointwise fusion and a leaner dispatch path."""

    name = "tensorflow-xla"

    def __init__(self) -> None:
        super().__init__(
            profile=replace(CUDNN_PROFILE, name="cudnn-xla", launch_overhead_scale=1.8),
            per_inference_overhead_ms=0.45,
            activation_reuse=True,
            workspace_factor=1.5,
            framework_overhead_bytes=900 * 1024 * 1024,
        )

    def transform(self, graph: Graph) -> ExecutionPlan:
        plan = self._sequential_plan(graph)
        return apply_elementwise_fusion_discount(plan, graph)


class TASOModel(FrameworkModel):
    """TASO: automatically generated graph substitutions on cuDNN.

    TASO merges same-type convolutions that share an input (a substitution it
    discovers automatically) and fuses pointwise epilogues, then executes the
    optimised graph sequentially.  Verifying and holding the substituted graph
    keeps every intermediate activation resident, which is what makes it run
    out of memory on Inception V3 at batch size 128 on a 16 GiB V100
    (Figure 11) and on the 11 GiB RTX 2080Ti for larger models (Appendix B).
    """

    name = "taso"

    def __init__(self) -> None:
        super().__init__(
            profile=replace(CUDNN_PROFILE, name="cudnn-taso", launch_overhead_scale=1.1),
            per_inference_overhead_ms=0.15,
            activation_reuse=False,
            activation_copies=2,
            workspace_factor=2.0,
            framework_overhead_bytes=900 * 1024 * 1024,
        )

    def transform(self, graph: Graph) -> ExecutionPlan:
        plan = sequential_plan_with_merges(graph, self.name)
        return apply_elementwise_fusion_discount(plan, graph)


class TVMCudnnModel(FrameworkModel):
    """TVM compiling the network but calling cuDNN for convolutions."""

    name = "tvm-cudnn"

    def __init__(self) -> None:
        super().__init__(
            profile=replace(CUDNN_PROFILE, name="cudnn-tvm", launch_overhead_scale=1.3),
            per_inference_overhead_ms=0.2,
            activation_reuse=True,
            workspace_factor=1.2,
        )


class TVMAutoTuneModel(FrameworkModel):
    """TVM with auto-tuned kernels (AutoTVM / Ansor).

    Auto-tuning produces much better separable-convolution kernels than cuDNN
    (the reason it beats IOS on RandWire / NasNet in Figure 12) at the price of
    a very large search cost — the paper reports 208 GPU hours to tune the four
    benchmark networks versus 3 GPU hours for IOS.
    """

    name = "tvm-autotune"

    #: Simulated auto-tuning cost per operator in GPU hours; with the four
    #: benchmark networks (~480 operators) this lands near the paper's
    #: 208 GPU hours total.
    TUNING_COST_PER_OPERATOR_GPU_HOURS = 0.43

    def __init__(self) -> None:
        super().__init__(
            profile=TVM_AUTOTUNE_PROFILE,
            per_inference_overhead_ms=0.15,
            activation_reuse=True,
            workspace_factor=1.0,
        )

    def optimization_cost_gpu_hours(self, graph: Graph) -> float:
        tunable = sum(
            1 for op in graph.operators() if op.kind in ("conv2d", "sep_conv2d", "linear", "matmul")
        )
        return tunable * self.TUNING_COST_PER_OPERATOR_GPU_HOURS


class TensorRTModel(FrameworkModel):
    """NVIDIA TensorRT: aggressive fusion and the best single-kernel library."""

    name = "tensorrt"

    def __init__(self) -> None:
        super().__init__(
            profile=TENSORRT_PROFILE,
            per_inference_overhead_ms=0.08,
            activation_reuse=True,
            workspace_factor=1.5,
        )

    def transform(self, graph: Graph) -> ExecutionPlan:
        plan = self._sequential_plan(graph)
        return apply_elementwise_fusion_discount(plan, graph)


#: Factories for every simulated framework, keyed by the name used in figures.
FRAMEWORK_REGISTRY: Registry[type[FrameworkModel]] = Registry("framework", aliases={
    "tf": "tensorflow", "xla": "tensorflow-xla", "tf-xla": "tensorflow-xla",
    "tvm": "tvm-cudnn", "trt": "tensorrt",
})
FRAMEWORK_REGISTRY.update(
    (cls.name, cls)
    for cls in (
        TensorFlowModel,
        TensorFlowXLAModel,
        TASOModel,
        TVMCudnnModel,
        TVMAutoTuneModel,
        TensorRTModel,
    )
)

#: Instantiate a simulated framework by any spelling of its name or an alias.
get_framework = FRAMEWORK_REGISTRY.create
#: Names of all registered simulated frameworks, sorted.
list_frameworks = FRAMEWORK_REGISTRY.names
