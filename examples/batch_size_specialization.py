#!/usr/bin/env python
"""Specialise IOS schedules for the serving scenario (Table 3 / Figure 11).

Real deployments face two very different regimes: latency-critical edge
serving (batch size 1) and throughput-oriented cloud serving (large batches).
This example shows why one schedule does not fit both:

* it optimises Inception V3 separately for batch sizes 1 and 32,
* cross-executes both schedules at both batch sizes (Table 3 (1)),
* and sweeps the batch size to show how throughput scales and where the
  memory-hungry TASO baseline falls over (Figure 11).

Run with::

    python examples/batch_size_specialization.py
"""

from __future__ import annotations

from repro import Engine, get_device, load
from repro.core import specialize_for_batch_sizes
from repro.experiments import run_figure11


def cross_execution_matrix() -> None:
    device = get_device("v100")
    graph = load("inception_v3", batch_size=1)
    batch_sizes = [1, 32]
    print(f"Optimising {graph.name} separately for batch sizes {batch_sizes} on {device.name}...")
    schedules, matrix = specialize_for_batch_sizes(graph, batch_sizes, Engine(device))

    print("\nLatency (ms): rows = executed batch size, columns = schedule optimised for")
    header = "".join(f"{'bs ' + str(bs):>12}" for bs in batch_sizes)
    print(f"{'':>8}{header}")
    for i, bs in enumerate(batch_sizes):
        cells = "".join(f"{matrix.latency_ms[i][j]:>12.3f}" for j in range(len(batch_sizes)))
        print(f"{'bs ' + str(bs):>8}{cells}")
    print(f"\nDiagonal (specialised schedule) is best in every row: {matrix.diagonal_is_best()}")

    for bs, schedule in schedules.items():
        merged = sum(1 for s in schedule.stages if s.strategy.value == "operator merge")
        print(f"  schedule optimised for batch {bs:>3}: {schedule.num_stages()} stages, "
              f"{merged} merge stages")


def throughput_sweep() -> None:
    print("\nThroughput sweep (Figure 11), images/second:")
    table = run_figure11(batch_sizes=(1, 16, 32, 128))
    print(table.to_text())


if __name__ == "__main__":
    cross_execution_matrix()
    throughput_sweep()
