"""The DP's roofline stage floor is a lower bound on what the DP reads.

``SimulatedCostModel.stage_floors`` gives each operator its closed-form
alone-latency (``KernelSpec.duration_alone_ms``), and ``StageFloors.stage_ms``
turns a stage's streams into a floor: the slowest stream's summed floors plus
the stream-sync barrier, less a relative margin.  The branch-and-bound in
``IOSScheduler._search_block_dp`` is exact only if that floor never exceeds
the latency the profiler reports for the same stage, so:

* over generated multi-stream stages of zoo operators on every device preset,
  the floor is at most ``Profiler.stage_latency_ms`` (the mean of repeated
  samples, which is what the DP consumes);
* for every kernel of every zoo model and of ``examples/transformer_block.json``
  on every device preset, the closed form equals the simulator's single-stream
  latency to 1e-12 relative, and the cost model's per-operator floor *is* the
  closed form.
"""

from __future__ import annotations

import functools
import math
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import FlopsCostModel, SimulatedCostModel
from repro.frontend import load
from repro.hardware import build_kernel, estimate_operator_latency, get_device, list_devices
from repro.hardware.contention import _simulate_single_stream
from repro.models import list_models
from repro.runtime import ExecutionStage, Profiler

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


@settings(max_examples=200, deadline=None)
@given(stage=stages(), device_name=st.sampled_from(DEVICES), repeats=st.integers(1, 9))
def test_the_floor_never_exceeds_the_profiled_stage(stage, device_name, repeats):
    model, streams = stage
    graph, names = _graph(model)
    device = get_device(device_name)
    masks = [sum(1 << position for position in stream) for stream in streams]
    floor = _floors(model, device_name).stage_ms(masks)

    execution = ExecutionStage(
        groups=[[graph.nodes[names[position]] for position in stream] for stream in streams]
    )
    profiled = Profiler(device, warmup=1, repeats=repeats).stage_latency_ms(execution)
    assert floor <= profiled


@pytest.mark.parametrize("device_name", DEVICES)
def test_the_closed_form_is_the_single_kernel_simulation(device_name):
    device = get_device(device_name)
    checked = 0
    for model in MODELS:
        graph, names = _graph(model)
        floors = _floors(model, device_name).operator_ms
        for name, floor in zip(names, floors):
            op = graph.nodes[name]
            closed_form = estimate_operator_latency(op, device).latency_ms
            assert floor == closed_form
            kernel = build_kernel(op, device)
            if kernel is None:
                assert floor == 0.0
                continue
            simulated = _simulate_single_stream([kernel], device)
            assert math.isclose(closed_form, simulated, rel_tol=1e-12, abs_tol=0.0), (
                model, name, closed_form, simulated
            )
            checked += 1
    assert checked > 500  # the zoo lowers to hundreds of kernels


def test_models_that_cannot_bound_a_stage_supply_no_floor(fig2, v100):
    names = fig2.schedulable_names()
    assert SimulatedCostModel(v100, noise_std=0.01).stage_floors(fig2, names) is None
    assert FlopsCostModel().stage_floors(fig2, names) is None
    assert SimulatedCostModel(v100).stage_floors(fig2, names) is not None
