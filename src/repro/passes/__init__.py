"""repro.passes — graph-rewriting optimization pipeline feeding the scheduler.

The missing compiler stage between the IR (:mod:`repro.ir`) and the IOS DP
search (:mod:`repro.core`): an ordered pipeline of semantics-preserving graph
rewrites run *before* placement.  Smaller post-rewrite graphs mean both lower
simulated latency (fewer kernels) and exponentially smaller DP subset
enumeration (fewer operators per block), so every experiment and every
serve-path compile gets faster.

* :mod:`repro.passes.base` — the :class:`GraphPass` protocol, the pass
  registry (:func:`register_pass`) and the :class:`PassManager` pipeline
  driver (fixed-point iteration, per-pass rewrite/time stats, re-validation
  after every pass);
* :mod:`repro.passes.rewrites` — the built-in suite: activation fusion, CSE,
  split–concat simplification, identity/dead-node elimination and
  canonicalization;
* :mod:`repro.passes.pipeline` — :func:`optimize_graph` /
  :func:`default_pipeline`; the package keeps no state between calls, so
  every call runs the pipeline (an engine runs it once per compile-cache
  miss);
* :mod:`repro.passes.rewriter` — the :class:`GraphRewriter` editing buffer
  custom passes build on;
* :mod:`repro.passes.unfuse` — :func:`unfuse_activations`, producing the raw
  "frontend" form of a model for ablations and round-trip tests.

Quick start::

    from repro.frontend import load
    from repro.passes import optimize_graph

    graph = load("nasnet_a")
    result = optimize_graph(graph)          # default pipeline
    print(result.describe())                # per-pass rewrites + timings
    optimized = result.graph                # feed to IOSScheduler

Registering a custom pass::

    from repro.passes import GraphPass, PassManager, register_pass

    @register_pass
    class DropSoftmax(GraphPass):
        name = "drop-softmax"
        def run(self, graph):
            ...  # build a GraphRewriter, edit, rebuild
            return new_graph, num_rewrites

    PassManager(["fuse-activation", "drop-softmax"]).run(graph)
"""

from .base import (
    PASS_REGISTRY,
    GraphPass,
    PassError,
    PassManager,
    PassResult,
    PassStats,
    make_pass,
    register_pass,
)
from .pipeline import DEFAULT_PASSES, default_pipeline, optimize_graph
from .rewriter import GraphRewriter
from .rewrites import (
    CanonicalizePass,
    CommonSubexpressionPass,
    EliminateDeadPass,
    FuseActivationPass,
    FuseEpiloguePass,
    SharedWeightCSEPass,
    SplitConcatSimplifyPass,
)
from .unfuse import unfuse_activations

__all__ = [
    "GraphPass",
    "PassError",
    "PassManager",
    "PassResult",
    "PassStats",
    "PASS_REGISTRY",
    "register_pass",
    "make_pass",
    "GraphRewriter",
    "FuseActivationPass",
    "FuseEpiloguePass",
    "CommonSubexpressionPass",
    "SharedWeightCSEPass",
    "SplitConcatSimplifyPass",
    "EliminateDeadPass",
    "CanonicalizePass",
    "DEFAULT_PASSES",
    "default_pipeline",
    "optimize_graph",
    "unfuse_activations",
]
