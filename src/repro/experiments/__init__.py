"""Experiment harness: one module per table/figure of the paper.

Every ``run_*`` function returns an :class:`~repro.tables.ExperimentTable`
whose rows mirror the rows/series of the corresponding table or figure; the
benchmark suite under ``benchmarks/`` simply invokes these functions and prints
the tables, and ``ios-bench`` exposes them on the command line.
"""

from ..tables import ExperimentTable, geometric_mean, normalize_to_best
from .runner import SCHEDULE_LABELS, ExperimentContext, ScheduleRun, default_context
from .fig01_trends import TREND_POINTS, run_figure1
from .fig02_motivating import run_figure2
from .tab01_complexity import PAPER_TABLE1, run_table1
from .tab02_networks import run_table2
from .fig06_schedules import run_figure6, run_figure14
from .fig07_frameworks import FRAMEWORK_LABELS, run_figure7, run_figure15
from .fig08_active_warps import run_figure8
from .fig09_pruning import DEFAULT_PRUNING_GRID, run_figure9
from .tab03_specialization import run_table3_batch, run_table3_device
from .fig10_case_study import last_block_subgraph, run_figure10
from .fig11_batch_sizes import BATCH_SWEEP, FIG11_SYSTEMS, run_figure11
from .fig12_intra_vs_inter import run_figure12
from .fig13_worst_case import DEFAULT_CHAIN_CONFIGS, run_figure13
from .fig16_blockwise import run_figure16
from .resnet_note import run_resnet_note
from .ablation_passes import run_pass_ablation
from .ablations import flatten_blocks, run_blockwise_ablation, run_cost_model_ablation
from .cli import EXPERIMENTS, main

__all__ = [
    "ExperimentTable",
    "geometric_mean",
    "normalize_to_best",
    "ExperimentContext",
    "ScheduleRun",
    "SCHEDULE_LABELS",
    "default_context",
    "run_figure1",
    "TREND_POINTS",
    "run_figure2",
    "run_table1",
    "PAPER_TABLE1",
    "run_table2",
    "run_figure6",
    "run_figure14",
    "run_figure7",
    "run_figure15",
    "FRAMEWORK_LABELS",
    "run_figure8",
    "run_figure9",
    "DEFAULT_PRUNING_GRID",
    "run_table3_batch",
    "run_table3_device",
    "run_figure10",
    "last_block_subgraph",
    "run_figure11",
    "BATCH_SWEEP",
    "FIG11_SYSTEMS",
    "run_figure12",
    "run_figure13",
    "DEFAULT_CHAIN_CONFIGS",
    "run_figure16",
    "run_resnet_note",
    "run_cost_model_ablation",
    "run_blockwise_ablation",
    "run_pass_ablation",
    "flatten_blocks",
    "EXPERIMENTS",
    "main",
]
