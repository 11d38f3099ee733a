"""Unit tests for repro.hardware: devices, kernels, closed-form latencies."""

from __future__ import annotations

import dataclasses
import math

import pytest
from hypothesis import given, strategies as st

from repro.checks import UnknownNameError
from repro.hardware import (
    CUDNN_PROFILE,
    KERNEL_PROFILES,
    TENSORRT_PROFILE,
    TVM_AUTOTUNE_PROFILE,
    DeviceSpec,
    KernelProfile,
    build_kernel,
    get_device,
    list_devices,
)
from repro.ir.ops import Concat, Conv2d, Identity, Linear, Pool2d, SeparableConv2d
from repro.ir.tensor import TensorShape
from repro.runtime import ExecutionStage, Executor

X = TensorShape(1, 384, 15, 15)


def _conv(out_channels=384, kernel=3, batch=1) -> Conv2d:
    conv = Conv2d("c", ["x"], out_channels=out_channels, kernel=kernel)
    conv.bind([TensorShape(batch, 384, 15, 15)])
    return conv


class TestDeviceSpecs:
    def test_presets_available(self):
        assert {"v100", "k80", "rtx2080ti", "gtx1080", "gtx980ti", "a100"} <= set(list_devices())

    def test_get_device_aliases(self):
        assert get_device("Tesla V100").name == "v100"
        assert get_device("2080Ti").name == "rtx2080ti"
        assert get_device("tesla-k80").name == "k80"

    def test_unknown_device(self):
        with pytest.raises(KeyError):
            get_device("tpu-v9000")

    @pytest.mark.parametrize("name", ["tpu-v9000", None, 3])
    def test_unknown_device_is_a_typed_value_error(self, name):
        with pytest.raises(UnknownNameError, match="registered device names") as info:
            get_device(name)
        assert isinstance(info.value, ValueError)

    def test_derived_units(self, v100):
        assert v100.peak_flops_per_ms == pytest.approx(15.7e9)
        assert v100.bandwidth_bytes_per_ms == pytest.approx(900e6)
        assert v100.total_block_slots == 160
        assert v100.flops_per_slot_ms == pytest.approx(15.7e9 / 160)
        assert v100.max_active_warps == 160 * 8

    def test_memory_bytes(self, v100):
        assert v100.memory_bytes == 16 * 1024**3

    def test_v100_stronger_than_k80(self, v100, k80):
        assert v100.peak_fp32_tflops > 3 * k80.peak_fp32_tflops
        assert v100.total_block_slots > k80.total_block_slots

    def test_scaled_override(self, v100):
        bigger = v100.scaled(num_sms=160)
        assert bigger.total_block_slots == 320
        assert v100.num_sms == 80  # original untouched

    def test_invalid_spec_rejected(self):
        with pytest.raises(ValueError):
            DeviceSpec(name="bad", num_sms=0, peak_fp32_tflops=1.0,
                       memory_bandwidth_gb_s=100, memory_gb=8)
        with pytest.raises(ValueError):
            DeviceSpec(name="bad", num_sms=10, peak_fp32_tflops=-1.0,
                       memory_bandwidth_gb_s=100, memory_gb=8)

    @pytest.mark.parametrize(
        "field, value",
        [
            *(
                (spec_field.name, value)
                for spec_field in dataclasses.fields(DeviceSpec)
                if spec_field.name != "name"
                for value in (math.nan, math.inf)
            ),
            ("kernel_launch_overhead_ms", -0.5),
            ("stream_sync_overhead_ms", -0.004),
        ],
    )
    def test_non_finite_field_or_negative_overhead_rejected(self, v100, field, value):
        with pytest.raises(ValueError, match=field):
            v100.scaled(**{field: value})

    def test_zero_overheads_accepted(self, v100):
        free = v100.scaled(kernel_launch_overhead_ms=0.0, stream_sync_overhead_ms=0.0)
        assert free.stream_sync_ms(3) == 0.0


class TestKernelProfiles:
    def test_registry(self):
        assert set(KERNEL_PROFILES) == {"cudnn", "tvm-autotune", "tensorrt"}

    def test_cudnn_sepconv_much_worse_than_conv(self):
        assert CUDNN_PROFILE.efficiency_for("sep_conv2d") < 0.5 * CUDNN_PROFILE.efficiency_for("conv2d")

    def test_tvm_autotune_beats_cudnn_on_sepconv(self):
        assert TVM_AUTOTUNE_PROFILE.efficiency_for("sep_conv2d") > 1.5 * CUDNN_PROFILE.efficiency_for("sep_conv2d")

    def test_tensorrt_best_dense_conv(self):
        assert TENSORRT_PROFILE.efficiency_for("conv2d") >= CUDNN_PROFILE.efficiency_for("conv2d")

    def test_default_efficiency_used_for_unknown_kind(self):
        assert CUDNN_PROFILE.efficiency_for("unknown_kind") == CUDNN_PROFILE.default_efficiency

    def test_invalid_efficiency_rejected(self):
        bad = KernelProfile(name="bad", efficiency={"conv2d": 1.5})
        with pytest.raises(ValueError):
            bad.efficiency_for("conv2d")

    def test_launch_overhead_scale(self, v100):
        slow = KernelProfile(name="slow", launch_overhead_scale=3.0)
        assert slow.launch_overhead_ms(v100) == pytest.approx(3 * v100.kernel_launch_overhead_ms)


class TestKernelLowering:
    def test_conv_block_geometry_matches_figure2(self, v100):
        # Conv [a] of Figure 2: 384 channels over 15x15 -> 12 x 4 x 1 = 48 blocks,
        # i.e. 30% occupancy on the V100 -- the under-utilisation the paper shows.
        kernel = build_kernel(_conv(384), v100)
        assert kernel.num_blocks == 48
        assert kernel.occupancy(v100) == pytest.approx(0.3)

    def test_wider_conv_has_more_blocks(self, v100):
        assert build_kernel(_conv(768), v100).num_blocks == 2 * build_kernel(_conv(384), v100).num_blocks

    def test_batch_scales_blocks(self, v100):
        assert build_kernel(_conv(batch=8), v100).num_blocks == 8 * build_kernel(_conv(), v100).num_blocks

    def test_identity_lowers_to_none(self, v100):
        op = Identity("i", ["x"])
        op.bind([X])
        assert build_kernel(op, v100) is None

    def test_unbound_operator_rejected(self, v100):
        with pytest.raises(ValueError):
            build_kernel(Conv2d("c", ["x"], 8, 3), v100)

    def test_elementwise_blocks(self, v100):
        concat = Concat("k", ["a", "b"])
        concat.bind([X, X])
        kernel = build_kernel(concat, v100)
        assert kernel.num_blocks == -(-concat.output_shape.numel() // 4096)

    def test_linear_blocks(self, v100):
        fc = Linear("fc", ["x"], out_features=1000)
        fc.bind([TensorShape(1, 2048)])
        assert build_kernel(fc, v100).num_blocks == 16

    def test_sepconv_uses_profile_efficiency(self, v100):
        sep = SeparableConv2d("s", ["x"], out_channels=384, kernel=3)
        sep.bind([X])
        kernel = build_kernel(sep, v100, CUDNN_PROFILE)
        assert kernel.efficiency == CUDNN_PROFILE.efficiency_for("sep_conv2d")

    def test_kernel_validation(self, v100):
        kernel = build_kernel(_conv(), v100)
        with pytest.raises(ValueError):
            type(kernel)(**{**kernel.__dict__, "num_blocks": 0})


class TestKernelSpecMath:
    def test_compute_time_single_wave(self, v100):
        kernel = build_kernel(_conv(384), v100)
        expected = kernel.flops / (48 * v100.flops_per_slot_ms * kernel.efficiency)
        assert kernel.compute_time_ms(v100) == pytest.approx(expected)

    def test_wave_quantization(self, v100):
        kernel = build_kernel(_conv(384), v100)
        # With only 24 slots the 48 blocks need 2 waves -> double the time.
        assert kernel.compute_time_ms(v100, slots=24) == pytest.approx(
            2 * kernel.compute_time_ms(v100, slots=48)
        )

    def test_memory_time_scales_with_bandwidth_fraction(self, v100):
        kernel = build_kernel(_conv(384), v100)
        assert kernel.memory_time_ms(v100, 0.5) == pytest.approx(2 * kernel.memory_time_ms(v100, 1.0))

    def test_duration_alone_is_roofline_plus_launch(self, v100):
        kernel = build_kernel(_conv(384), v100)
        busy = max(kernel.compute_time_ms(v100), kernel.memory_time_ms(v100))
        assert kernel.duration_alone_ms(v100) == pytest.approx(busy + kernel.launch_overhead_ms)

    def test_achieved_tflops_below_peak(self, v100):
        kernel = build_kernel(_conv(768), v100)
        assert 0 < kernel.achieved_tflops(v100) < v100.peak_fp32_tflops

    @given(out_channels=st.sampled_from([32, 64, 128, 256, 512, 1024]),
           kernel_size=st.sampled_from([1, 3, 5]))
    def test_more_work_never_faster_property(self, out_channels, kernel_size):
        device = get_device("v100")
        small = build_kernel(_conv(out_channels, kernel_size), device)
        big = build_kernel(_conv(out_channels * 2, kernel_size), device)
        assert big.duration_alone_ms(device) >= small.duration_alone_ms(device) - 1e-12


class TestClosedFormLatency:
    def test_closed_form_matches_figure2_annotations(self, v100):
        # Paper reports ~0.12 ms and 33% utilisation for conv [a]; the closed
        # form should land in the same neighbourhood (0.10 - 0.20 ms, 20 - 45 %).
        kernel = build_kernel(_conv(384), v100)
        assert 0.10 <= kernel.duration_alone_ms(v100) <= 0.20
        assert 0.20 <= kernel.achieved_tflops(v100) / v100.peak_fp32_tflops <= 0.45

    def test_bigger_device_is_faster(self, v100, k80):
        conv = _conv(768)
        assert build_kernel(conv, v100).duration_alone_ms(v100) < \
            build_kernel(conv, k80).duration_alone_ms(k80)

    def test_non_kernel_operator_costs_nothing(self, v100):
        op = Identity("i", ["x"])
        op.bind([X])
        assert build_kernel(op, v100) is None
        assert Executor(v100).stage_latency_ms(ExecutionStage(groups=[[op]])) == 0.0

    def test_pooling_is_memory_bound(self, v100):
        pool = Pool2d("p", ["x"], "max", kernel=3, stride=1, padding=1)
        pool.bind([X])
        kernel = build_kernel(pool, v100)
        assert kernel.memory_time_ms(v100) > kernel.compute_time_ms(v100)
