"""Figure 13 / Appendix A: the worst-case graph for the complexity bound.

The DAG made of ``d`` independent chains of ``c`` operators each reaches the
transition upper bound ``C(c+2, 2)^d``.  This experiment counts the exact
number of (state, ending) pairs of such graphs for several (c, d) and compares
them with the bound, confirming the bound is tight for this family.
"""

from __future__ import annotations

from typing import Sequence

from ..core.complexity import count_transitions_and_states, transition_upper_bound
from ..models import parallel_chains_graph
from ..tables import ExperimentTable

__all__ = ["run_figure13", "DEFAULT_CHAIN_CONFIGS"]

#: (chain length c, number of chains d) pairs; kept small because the count is
#: exponential in d by design.
DEFAULT_CHAIN_CONFIGS = [(1, 2), (2, 2), (3, 2), (2, 3), (3, 3), (2, 4), (3, 4)]


def run_figure13(configs: Sequence[tuple[int, int]] | None = None) -> ExperimentTable:
    """Exact transition counts of d-chain graphs vs the theoretical bound."""
    configs = list(configs) if configs is not None else list(DEFAULT_CHAIN_CONFIGS)
    table = ExperimentTable(
        experiment_id="figure13",
        title="Figure 13 / Appendix A: tightness of the transition bound on d independent chains",
        columns=[
            "chain_length_c",
            "num_chains_d",
            "n",
            "transitions",
            "num_states",
            "transitions_incl_empty",
            "bound",
            "ratio",
        ],
        notes=(
            "the paper's bound counts (state, ending) pairs allowing the per-chain ending to be "
            "empty; adding the one empty-ending pair per state (transitions + num_states) meets "
            "the bound with equality for this worst-case family (ratio = 1.0)"
        ),
    )
    for c, d in configs:
        graph = parallel_chains_graph(num_chains=d, chain_length=c, join=False)
        op_names = graph.schedulable_names()
        transitions, states = count_transitions_and_states(graph, op_names)
        bound = transition_upper_bound(len(op_names), d)
        including_empty = transitions + states
        table.add_row(
            chain_length_c=c,
            num_chains_d=d,
            n=len(op_names),
            transitions=transitions,
            num_states=states,
            transitions_incl_empty=including_empty,
            bound=bound,
            ratio=including_empty / bound if bound else float("nan"),
        )
    return table
