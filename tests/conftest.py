"""Shared fixtures for the test suite.

Most tests operate on the small example graphs from the paper's figures
(diamond, Figure-2 block, Figure-5 graph) and the V100 device preset; the full
benchmark networks are only touched by a handful of model-zoo and integration
tests to keep the suite fast.
"""

from __future__ import annotations

import random

import pytest

from repro.core import FlopsCostModel, SimulatedCostModel, clear_schedule_memo
from repro.hardware import CUDNN_PROFILE, get_device
from repro.ir.graph import Graph, GraphBuilder
from repro.ir.tensor import TensorShape
from repro.models import (
    chain_graph,
    diamond_graph,
    figure2_block,
    figure3_graph,
    figure5_graph,
    parallel_chains_graph,
)


@pytest.fixture(autouse=True)
def _fresh_schedule_memo():
    """Isolate every test from the process-wide schedule memo."""
    clear_schedule_memo()
    yield
    clear_schedule_memo()


@pytest.fixture(scope="session")
def v100():
    return get_device("v100")


@pytest.fixture(scope="session")
def k80():
    return get_device("k80")


@pytest.fixture(scope="session")
def rtx2080ti():
    return get_device("rtx2080ti")


@pytest.fixture(scope="session")
def cudnn_profile():
    return CUDNN_PROFILE


@pytest.fixture
def diamond():
    return diamond_graph()


@pytest.fixture
def chain4():
    return chain_graph(length=4)


@pytest.fixture
def fig2():
    return figure2_block()


@pytest.fixture
def fig3():
    return figure3_graph()


@pytest.fixture
def fig5():
    return figure5_graph()


@pytest.fixture
def two_chains():
    return parallel_chains_graph(num_chains=2, chain_length=2, join=False)


def build_random_graph(
    seed: int,
    num_blocks: int = 2,
    ops_per_block: int = 7,
    size: int = 8,
) -> Graph:
    """Seeded random multi-branch block DAG for property tests.

    Every op preserves the spatial dimensions (stride-1 same-padded convs,
    elementwise ops, channel concats), so any pair of tensors can be joined
    and the generated graph is always valid.  The same seed always yields the
    same graph.
    """
    rng = random.Random(seed)
    channels = rng.choice([4, 8, 16])
    builder = GraphBuilder(f"random-{seed}", TensorShape(1, channels, size, size))
    current = builder.input_name
    for b in range(num_blocks):
        with builder.block(f"block{b}"):
            available = [current]
            for i in range(ops_per_block):
                name = f"b{b}_op{i}"
                kind = rng.choice(["conv", "conv", "relu", "add", "concat"])
                if kind == "conv":
                    x = rng.choice(available)
                    available.append(
                        builder.conv2d(name, x, rng.choice([4, 8, 16]), rng.choice([1, 3]))
                    )
                elif kind == "relu":
                    available.append(builder.relu(name, rng.choice(available)))
                elif kind == "add":
                    by_channels: dict[int, list[str]] = {}
                    for t in available:
                        shape = builder.graph.nodes[t].output_shape
                        by_channels.setdefault(shape.channels, []).append(t)
                    groups = [g for g in by_channels.values() if len(g) >= 2]
                    if groups:
                        available.append(builder.add(name, rng.sample(rng.choice(groups), 2)))
                    else:
                        available.append(builder.relu(name, rng.choice(available)))
                else:  # concat
                    if len(available) >= 2:
                        available.append(builder.concat(name, rng.sample(available, 2)))
                    else:
                        available.append(builder.relu(name, available[0]))
            consumed = {p for t in available for p in builder.graph.nodes[t].inputs}
            leaves = [t for t in available if t not in consumed]
            if len(leaves) > 1:
                current = builder.concat(f"b{b}_out", leaves)
            else:
                current = leaves[0]
    return builder.build()


@pytest.fixture(scope="session")
def random_graph_factory():
    """The seeded random-DAG generator, as a fixture."""
    return build_random_graph


@pytest.fixture
def sim_cost_model(v100):
    return SimulatedCostModel(v100)


@pytest.fixture
def flops_cost_model():
    return FlopsCostModel(flops_per_ms=1e9, overhead_ms=0.01)
