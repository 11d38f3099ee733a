"""Table 2: the CNN benchmark suite.

Reports, for each benchmark network, the number of blocks, the number of
operators and the dominant operator type, next to the values from the paper's
Table 2 (our reconstructions differ slightly in operator count; see DESIGN.md).
"""

from __future__ import annotations

from typing import Sequence

from ..models import BENCHMARK_MODELS, MODEL_REGISTRY
from ..tables import ExperimentTable
from .runner import ExperimentContext, default_context

__all__ = ["run_table2"]


def run_table2(models: Sequence[str] | None = None,
               context: ExperimentContext | None = None) -> ExperimentTable:
    """Reproduce Table 2 (benchmark networks and their sizes)."""
    ctx = context or default_context()
    models = list(models) if models is not None else list(BENCHMARK_MODELS)
    table = ExperimentTable(
        experiment_id="table2",
        title="Table 2: CNN benchmarks",
        columns=[
            "network",
            "num_blocks",
            "num_operators",
            "operator_type",
            "gflops",
            "params_m",
            "paper_blocks",
            "paper_operators",
        ],
    )
    for model_name in models:
        graph = ctx.graph(model_name)
        spec = MODEL_REGISTRY[model_name]
        multi_op_blocks = [b for b in graph.blocks if len(graph.schedulable_names(b)) > 0]
        table.add_row(
            network=model_name,
            num_blocks=len(multi_op_blocks),
            num_operators=len(graph.operators()),
            operator_type=spec.operator_type,
            gflops=graph.total_flops() / 1e9,
            params_m=graph.total_params() / 1e6,
            paper_blocks=spec.paper_blocks if spec.paper_blocks is not None else "",
            paper_operators=spec.paper_operators if spec.paper_operators is not None else "",
        )
    return table
