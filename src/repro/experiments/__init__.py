"""Experiment harness: one module per table/figure of the paper.

Every ``run_*`` function returns an :class:`~repro.tables.ExperimentTable`
whose rows mirror the rows/series of the corresponding table or figure; the
benchmark suite under ``benchmarks/`` simply invokes these functions and prints
the tables, and ``ios-bench`` exposes them on the command line.

The exports below are resolved on first access (PEP 562), so importing this
package — which ``ios-bench serve`` does on its way to the serving stack —
loads no figure module, no numpy and no frameworks package.
"""

import importlib

from ..tables import ExperimentTable, geometric_mean, normalize_to_best

#: Submodule -> the names it exports from this package.
_EXPORTS = {
    "runner": ("SCHEDULE_LABELS", "ExperimentContext", "ScheduleRun", "default_context"),
    "fig01_trends": ("TREND_POINTS", "run_figure1"),
    "fig02_motivating": ("run_figure2",),
    "tab01_complexity": ("PAPER_TABLE1", "run_table1"),
    "tab02_networks": ("run_table2",),
    "fig06_schedules": ("run_figure6", "run_figure14"),
    "fig07_frameworks": ("FRAMEWORK_LABELS", "run_figure7", "run_figure15"),
    "fig08_active_warps": ("run_figure8",),
    "fig09_pruning": ("DEFAULT_PRUNING_GRID", "run_figure9"),
    "tab03_specialization": ("run_table3_batch", "run_table3_device"),
    "fig10_case_study": ("last_block_subgraph", "run_figure10"),
    "fig11_batch_sizes": ("BATCH_SWEEP", "FIG11_SYSTEMS", "run_figure11"),
    "fig12_intra_vs_inter": ("run_figure12",),
    "fig13_worst_case": ("DEFAULT_CHAIN_CONFIGS", "run_figure13"),
    "fig16_blockwise": ("run_figure16",),
    "resnet_note": ("run_resnet_note",),
    "ablation_passes": ("run_pass_ablation",),
    "ablations": ("flatten_blocks", "run_blockwise_ablation", "run_cost_model_ablation"),
    "cli": ("EXPERIMENTS", "main"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["ExperimentTable", "geometric_mean", "normalize_to_best", *_MODULE_OF]


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
