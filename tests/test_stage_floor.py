"""One stage-pricing path, and the DP's roofline floor beneath it.

Every stage latency comes from ``Executor._simulate``: the stage's kernel
groups on ``simulate_streams``, one stream each, plus the stream-sync barrier.
``SimulatedCostModel`` reads it through ``Executor.stage_latency_ms`` and
reports the mean of ``REPEATS`` equal runs.  So:

* over generated multi-stream stages of zoo operators on every device preset,
  ``Executor.stage_latency_ms`` (latency only, served from the simulator's
  cache), ``Executor.run_stage`` (per-kernel executions) and a tracing
  executor's ``run_stage`` (executions and timeline) agree to the last bit;
* the cost model's folded mean equals numpy's mean of ``REPEATS`` equal
  samples, bit for bit.

``SimulatedCostModel.stage_floors`` gives each operator its closed-form
alone-latency (``KernelSpec.duration_alone_ms``), and ``StageFloors.stage_ms``
turns a stage's streams into a floor: the slowest stream's summed floors plus
the stream-sync barrier, less a relative margin.  The branch-and-bound in
``IOSScheduler._search_block_dp`` is exact only if that floor never exceeds
the latency the cost model reports for the same stage, so:

* over the same generated stages, the floor is at most the measured mean;
* for every kernel of every zoo model and of ``examples/transformer_block.json``
  on every device preset, the closed form equals the simulator's single-stream
  latency to 1e-12 relative, and the cost model's per-operator floor *is* the
  closed form.
"""

from __future__ import annotations

import functools
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import FlopsCostModel, SimulatedCostModel
from repro.core.cost_model import REPEATS, _mean_of_repeats
from repro.frontend import load
from repro.hardware import build_kernel, get_device, list_devices, simulate_streams
from repro.models import list_models
from repro.runtime import ExecutionStage, Executor

TRANSFORMER_EXAMPLE = str(
    Path(__file__).resolve().parents[1] / "examples" / "transformer_block.json"
)
MODELS = [*list_models(), TRANSFORMER_EXAMPLE]
DEVICES = list_devices()


@functools.lru_cache(maxsize=None)
def _graph(model: str):
    graph = load(model)
    return graph, tuple(graph.schedulable_names())


@functools.lru_cache(maxsize=None)
def _floors(model: str, device_name: str):
    graph, names = _graph(model)
    return SimulatedCostModel(get_device(device_name)).stage_floors(graph, names)


@st.composite
def stages(draw):
    """A model, and one of its stages: 1-5 streams of distinct operators."""
    model = draw(st.sampled_from(MODELS))
    _, names = _graph(model)
    positions = draw(
        st.lists(st.integers(0, len(names) - 1), min_size=1, max_size=12, unique=True)
    )
    stream_of = draw(
        st.lists(st.integers(0, 4), min_size=len(positions), max_size=len(positions))
    )
    streams = [
        [position for position, stream in zip(positions, stream_of) if stream == s]
        for s in sorted(set(stream_of))
    ]
    return model, streams


def _execution(model: str, streams: list[list[int]]) -> ExecutionStage:
    graph, names = _graph(model)
    return ExecutionStage(
        groups=[[graph.nodes[names[position]] for position in stream] for stream in streams]
    )


@pytest.mark.parametrize("device_name", DEVICES)
@settings(max_examples=40, deadline=None)
@given(stage=stages())
def test_every_recording_mode_prices_a_stage_identically(device_name, stage):
    execution = _execution(*stage)
    device = get_device(device_name)
    latency_only = Executor(device).stage_latency_ms(execution)
    with_executions = Executor(device).run_stage(execution).latency_ms
    traced = Executor(device, record_trace=True).run_stage(execution).latency_ms
    assert repr(latency_only) == repr(with_executions) == repr(traced)


@given(value=st.floats(min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False))
def test_the_folded_mean_is_numpys_mean(value):
    assert repr(_mean_of_repeats(value)) == repr(float(np.mean(np.full(REPEATS, value))))


@settings(max_examples=200, deadline=None)
@given(stage=stages(), device_name=st.sampled_from(DEVICES))
def test_the_floor_never_exceeds_the_measured_stage(stage, device_name):
    model, streams = stage
    masks = [sum(1 << position for position in stream) for stream in streams]
    floor = _floors(model, device_name).stage_ms(masks)
    executor = Executor(get_device(device_name))
    measured = _mean_of_repeats(executor.stage_latency_ms(_execution(model, streams)))
    assert floor <= measured


@pytest.mark.parametrize("device_name", DEVICES)
def test_the_closed_form_is_the_single_kernel_simulation(device_name):
    device = get_device(device_name)
    checked = 0
    for model in MODELS:
        graph, names = _graph(model)
        floors = _floors(model, device_name).operator_ms
        for name, floor in zip(names, floors):
            op = graph.nodes[name]
            kernel = build_kernel(op, device)
            if kernel is None:
                assert floor == 0.0
                continue
            closed_form = kernel.duration_alone_ms(device)
            assert floor == closed_form
            simulated = simulate_streams(
                [[kernel]], device, record_executions=False
            ).latency_ms
            assert math.isclose(closed_form, simulated, rel_tol=1e-12, abs_tol=0.0), (
                model, name, closed_form, simulated
            )
            checked += 1
    assert checked > 500  # the zoo lowers to hundreds of kernels


def test_models_that_cannot_bound_a_stage_supply_no_floor(fig2, v100):
    names = fig2.schedulable_names()
    assert FlopsCostModel().stage_floors(fig2, names) is None
    assert SimulatedCostModel(v100).stage_floors(fig2, names) is not None
