"""Table 1: schedule-space size and DP complexity of the largest block.

For the largest block of each benchmark network the paper lists the number of
operators ``n``, the width ``d``, the theoretical transition bound
``C(n/d+2, 2)^d``, the real number of DP transitions ``#(S, S')`` and the total
number of feasible schedules.  All five quantities are computed exactly by the
``repro.core.complexity`` module on our (slightly smaller) reconstructions of
the networks.
"""

from __future__ import annotations

from typing import Sequence

from ..core.complexity import block_complexity
from ..models import BENCHMARK_MODELS
from ..tables import ExperimentTable
from .runner import ExperimentContext, default_context

__all__ = ["run_table1", "PAPER_TABLE1"]

#: The values reported in the paper's Table 1, for side-by-side comparison.
PAPER_TABLE1 = {
    "inception_v3": {"n": 11, "d": 6, "bound": 2.6e4, "transitions": 4.9e3, "schedules": 3.8e6},
    "randwire": {"n": 33, "d": 8, "bound": 3.7e9, "transitions": 1.2e6, "schedules": 9.2e22},
    "nasnet_a": {"n": 18, "d": 8, "bound": 5.2e6, "transitions": 3.1e5, "schedules": 7.2e12},
    "squeezenet": {"n": 6, "d": 3, "bound": 2.2e2, "transitions": 51, "schedules": 1.3e2},
}


def run_table1(models: Sequence[str] | None = None, count_schedule_space: bool = True,
               context: ExperimentContext | None = None) -> ExperimentTable:
    """Reproduce Table 1 for the benchmark networks."""
    ctx = context or default_context()
    models = list(models) if models is not None else list(BENCHMARK_MODELS)
    table = ExperimentTable(
        experiment_id="table1",
        title="Table 1: largest-block schedule-space statistics",
        columns=[
            "network",
            "block",
            "n",
            "d",
            "transition_bound",
            "transitions",
            "num_schedules",
            "paper_n",
            "paper_d",
            "paper_transitions",
            "paper_schedules",
        ],
        notes=(
            "Our reconstructions of RandWire/NasNet use fewer operators per block than the "
            "paper's exact models (see DESIGN.md), so n/d and the derived counts are smaller; "
            "the qualitative conclusion (schedule count is astronomically larger than the DP "
            "transition count) is unchanged."
        ),
    )
    for model_name in models:
        graph = ctx.graph(model_name)
        complexity = block_complexity(graph, count_schedule_space=count_schedule_space)
        paper = PAPER_TABLE1.get(model_name, {})
        table.add_row(
            network=model_name,
            block=complexity.block_name,
            n=complexity.num_operators,
            d=complexity.width,
            transition_bound=complexity.upper_bound,
            transitions=complexity.num_transitions,
            num_schedules=float(complexity.num_schedules),
            paper_n=paper.get("n", ""),
            paper_d=paper.get("d", ""),
            paper_transitions=paper.get("transitions", ""),
            paper_schedules=paper.get("schedules", ""),
        )
    return table
