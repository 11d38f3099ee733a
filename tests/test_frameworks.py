"""Unit tests for the simulated baseline frameworks, and IOS compiled next to them."""

from __future__ import annotations

import pytest

from repro.engine import Engine
from repro.frameworks import (
    FRAMEWORK_REGISTRY,
    TASOModel,
    TensorFlowModel,
    TensorRTModel,
    apply_elementwise_fusion_discount,
    count_fusable_elementwise,
    find_same_input_merge_sets,
    get_framework,
    list_frameworks,
    sequential_plan_with_merges,
)
from repro.frontend import load
from repro.models import figure2_block


class TestRegistry:
    def test_all_six_frameworks_registered(self):
        assert set(list_frameworks()) == {
            "tensorflow", "tensorflow-xla", "taso", "tvm-cudnn", "tvm-autotune", "tensorrt",
        }

    def test_aliases_and_errors(self):
        assert get_framework("TF").name == "tensorflow"
        assert get_framework("trt").name == "tensorrt"
        with pytest.raises(KeyError):
            get_framework("onnxruntime")

    def test_registry_classes_have_unique_names(self):
        assert len({cls.name for cls in FRAMEWORK_REGISTRY.values()}) == len(FRAMEWORK_REGISTRY)


class TestTransforms:
    def test_find_same_input_merge_sets_squeezenet(self):
        graph = load("squeezenet")
        merge_sets = find_same_input_merge_sets(graph)
        assert ["fire2_expand1x1", "fire2_expand3x3"] in merge_sets
        assert len(merge_sets) >= 8  # one per fire module

    def test_merge_plan_has_fewer_stages(self):
        graph = load("squeezenet")
        merged_plan = sequential_plan_with_merges(graph, "taso")
        assert merged_plan.num_stages() < len(graph.operators())
        assert any("merge(" in stage.label for stage in merged_plan.stages)

    def test_no_merges_on_figure2(self, fig2):
        # conv_a/c/d share the input but conv_b does not; only {a, c, d} subsets
        # with identical out-channel grouping qualify -- a and c do (384), d is 768
        # but still same merge key, so the whole triple merges.
        merge_sets = find_same_input_merge_sets(fig2)
        assert merge_sets == [["conv_a", "conv_c", "conv_d"]]

    def test_fusion_discount_removes_standalone_relu_add(self):
        graph = load("resnet_18")
        assert count_fusable_elementwise(graph) > 0
        from repro.frameworks.base import FrameworkModel
        from repro.hardware import CUDNN_PROFILE

        base = FrameworkModel(CUDNN_PROFILE)
        plan = base._sequential_plan(graph)
        fused = apply_elementwise_fusion_discount(plan, graph)
        assert fused.num_stages() < plan.num_stages()


class TestFrameworkOrdering:
    @pytest.fixture(scope="class")
    def inception_results(self, request):
        from repro.hardware import get_device

        device = get_device("v100")
        graph = load("inception_v3")
        return {name: get_framework(name).run(graph, device) for name in list_frameworks()}

    def test_all_frameworks_fit_in_memory_at_batch_one(self, inception_results):
        assert all(not r.out_of_memory for r in inception_results.values())

    def test_tensorflow_is_slowest_cudnn_framework(self, inception_results):
        tf = inception_results["tensorflow"].latency_ms
        for name in ("tensorflow-xla", "taso", "tvm-cudnn", "tensorrt"):
            assert tf > inception_results[name].latency_ms

    def test_xla_improves_on_plain_tensorflow(self, inception_results):
        assert inception_results["tensorflow-xla"].latency_ms < inception_results["tensorflow"].latency_ms

    def test_tensorrt_among_best_baselines(self, inception_results):
        trt = inception_results["tensorrt"].latency_ms
        assert trt < inception_results["tvm-cudnn"].latency_ms
        assert trt < inception_results["tensorflow-xla"].latency_ms

    def test_throughput_latency_consistency(self, inception_results):
        for result in inception_results.values():
            assert result.throughput == pytest.approx(1e3 / result.latency_ms)


class TestMemoryBehaviour:
    def test_taso_oom_at_batch_128_only(self, v100):
        graph = load("inception_v3")
        taso = TASOModel()
        assert not taso.run(graph.with_batch_size(64), v100).out_of_memory
        result128 = taso.run(graph.with_batch_size(128), v100)
        assert result128.out_of_memory
        assert result128.latency_ms == float("inf")
        assert result128.throughput == 0.0

    def test_other_frameworks_survive_batch_128(self, v100):
        graph = load("inception_v3").with_batch_size(128)
        for name in ("tensorrt", "tvm-cudnn", "tensorflow"):
            assert not get_framework(name).run(graph, v100).out_of_memory

    def test_latency_ms_raises_on_oom(self, v100):
        from repro.runtime import OutOfMemoryError

        graph = load("inception_v3").with_batch_size(128)
        with pytest.raises(OutOfMemoryError):
            TASOModel().latency_ms(graph, v100)


class TestOptimizationCost:
    def test_tvm_autotune_cost_scales_with_network(self):
        tvm = get_framework("tvm-autotune")
        small = tvm.optimization_cost_gpu_hours(load("squeezenet"))
        large = tvm.optimization_cost_gpu_hours(load("nasnet_a"))
        assert large > small > 0

    def test_other_frameworks_have_zero_cost(self):
        graph = load("squeezenet")
        assert TensorFlowModel().optimization_cost_gpu_hours(graph) == 0.0
        assert TensorRTModel().optimization_cost_gpu_hours(graph) == 0.0


class TestIOSEngine:
    """IOS runs through :class:`repro.engine.Engine`, next to the baselines."""

    def test_engine_beats_every_baseline_on_figure2_block(self, v100):
        graph = figure2_block()
        ios = Engine(v100).compile(graph).latency_ms()
        for name in list_frameworks():
            assert ios < get_framework(name).run(graph, v100).latency_ms

    def test_schedule_cache_reused(self, v100):
        graph = figure2_block()
        engine = Engine(v100)
        compiled = engine.compile(graph)
        assert engine.compile(graph) is compiled
        assert engine.stats.as_dict() == {
            "compiles": 1, "cache_hits": 1, "searches": 1, "loads": 0, "block_searches": 1,
        }
        assert compiled.stats.profiling_gpu_ms > 0

    def test_parallel_compile_reports_the_serial_search_cost(self, v100, monkeypatch):
        # Blocks searched in worker processes measure on the workers' own
        # cost-model clones; the compile's stats must still count them.
        graph = load("inception_v3")
        stats = {}
        for jobs in ("1", "2"):
            monkeypatch.setenv("REPRO_COMPILE_JOBS", jobs)
            stats[jobs] = Engine(v100).compile(graph).stats
        serial, fanout = stats["1"], stats["2"]
        assert serial.num_measurements == fanout.num_measurements == 1897
        assert fanout.profiling_gpu_ms == pytest.approx(serial.profiling_gpu_ms, rel=1e-12)
        assert serial.profiling_gpu_ms == pytest.approx(934.803, abs=1e-3)
