"""Pass protocol, pass registry and the :class:`PassManager` pipeline driver.

A *pass* is a graph-to-graph rewrite: it takes a validated
:class:`~repro.ir.graph.Graph` and returns a (possibly new) graph plus the
number of rewrites it applied.  Passes never mutate their input graph — graph
objects are shared (model caches, registries), so every rewrite builds a fresh
graph via :class:`~repro.passes.rewriter.GraphRewriter`.

The :class:`PassManager` runs an ordered pipeline of passes, optionally
iterating the whole pipeline to a fixed point (a rewrite by one pass can
expose opportunities for an earlier one, e.g. split–concat elimination leaves
dead splits behind for dead-node elimination).  After every pass the result is
re-validated with :func:`repro.ir.validate.validate_graph`, so a buggy rewrite
fails loudly at the pass boundary instead of corrupting the scheduler.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Sequence

from ..checks import Registry
from ..ir.graph import Graph
from ..ir.validate import GraphValidationError, validate_graph
from ..obs.trace import NULL_TRACER, Tracer

__all__ = [
    "GraphPass",
    "PassError",
    "PassStats",
    "PassResult",
    "PassManager",
    "PASS_REGISTRY",
    "register_pass",
    "make_pass",
]


class PassError(RuntimeError):
    """Raised when a pass produces an invalid graph or fails to converge."""


class GraphPass:
    """Base class for graph rewrite passes.

    Subclasses set :attr:`name` and implement :meth:`run`, returning the
    rewritten graph and the number of rewrites applied.  A pass that applies
    zero rewrites should return the input graph unchanged (``graph, 0``) so
    the manager can detect the fixed point cheaply.
    """

    #: Stable identifier used by the pass registry, stats and CLI listings.
    name: str = "pass"

    def run(self, graph: Graph) -> tuple[Graph, int]:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"<{type(self).__name__} {self.name!r}>"


#: Registered pass classes, keyed by pass name (see :func:`register_pass`).
PASS_REGISTRY: Registry[type[GraphPass]] = Registry("pass", instance_of=GraphPass)


def register_pass(cls: type[GraphPass]) -> type[GraphPass]:
    """Register a pass class so pipelines can name it (usable as a decorator).

    Third-party passes register the same way the built-ins do::

        @register_pass
        class MyPass(GraphPass):
            name = "my-pass"
            def run(self, graph): ...
    """
    if not cls.name or cls.name == GraphPass.name:
        raise ValueError(f"pass class {cls.__name__} must define a unique 'name'")
    PASS_REGISTRY[cls.name] = cls
    return cls


#: Instantiate a registered pass by any spelling of its name; a
#: :class:`GraphPass` instance passes through unchanged.
make_pass = PASS_REGISTRY.create


@dataclass
class PassStats:
    """Accumulated statistics for one pass across all pipeline iterations."""

    name: str
    runs: int = 0
    rewrites: int = 0
    elapsed_s: float = 0.0


@dataclass
class PassResult:
    """Outcome of running a :class:`PassManager` on one graph."""

    graph: Graph
    stats: list[PassStats] = field(default_factory=list)
    iterations: int = 0
    elapsed_s: float = 0.0

    @property
    def total_rewrites(self) -> int:
        return sum(s.rewrites for s in self.stats)

    def stats_by_name(self) -> dict[str, PassStats]:
        return {s.name: s for s in self.stats}

    def describe(self) -> str:
        """One line per pass: how often it ran, what it rewrote, how long."""
        lines = [
            f"pass pipeline: {self.total_rewrites} rewrites in "
            f"{self.iterations} iteration(s), {self.elapsed_s * 1e3:.1f} ms"
        ]
        for s in self.stats:
            lines.append(
                f"  {s.name:<24} runs={s.runs}  rewrites={s.rewrites}  "
                f"time={s.elapsed_s * 1e3:.1f} ms"
            )
        return "\n".join(lines)


class PassManager:
    """Ordered pipeline of rewrite passes with fixed-point iteration.

    Parameters
    ----------
    passes:
        Pass instances or registered pass names, in execution order.
    fixed_point:
        Re-run the whole pipeline until an iteration applies zero rewrites
        (bounded by ``max_iterations``).  With ``False`` the pipeline runs
        exactly once.
    max_iterations:
        Safety bound on fixed-point iteration; exceeding it raises
        :class:`PassError` (a pass pair is oscillating instead of converging).

    The graph is re-validated after every pass that rewrote something.
    """

    def __init__(
        self,
        passes: Sequence[GraphPass | str],
        *,
        fixed_point: bool = True,
        max_iterations: int = 10,
    ):
        if max_iterations < 1:
            raise ValueError(f"max_iterations must be >= 1, got {max_iterations}")
        self.passes: list[GraphPass] = [make_pass(p) for p in passes]
        if not self.passes:
            raise ValueError("a PassManager needs at least one pass")
        self.fixed_point = fixed_point
        self.max_iterations = max_iterations

    @property
    def pass_names(self) -> tuple[str, ...]:
        return tuple(p.name for p in self.passes)

    def run(self, graph: Graph, *, tracer: Tracer = NULL_TRACER) -> PassResult:
        """Run the pipeline on ``graph`` and return the rewritten graph + stats.

        With a truthy ``tracer`` every pipeline iteration becomes one span on
        the ``compile/passes`` track, with a nested span per pass run; the
        default :data:`~repro.obs.trace.NULL_TRACER` costs one truth test.
        """
        start = time.perf_counter()
        stats = {p.name: PassStats(name=p.name) for p in self.passes}
        current = graph
        iterations = 0
        while True:
            iterations += 1
            if iterations > self.max_iterations:
                raise PassError(
                    f"pass pipeline did not converge on graph {graph.name!r} "
                    f"within {self.max_iterations} iterations; pass order "
                    f"{list(self.pass_names)} is oscillating"
                )
            iteration_rewrites = 0
            iteration_start_ms = tracer.now_ms() if tracer else 0.0
            for pass_ in self.passes:
                span_start_ms = tracer.now_ms() if tracer else 0.0
                pass_start = time.perf_counter()
                rewritten, rewrites = pass_.run(current)
                stat = stats[pass_.name]
                stat.runs += 1
                stat.rewrites += rewrites
                stat.elapsed_s += time.perf_counter() - pass_start
                if tracer:
                    tracer.add_span(
                        pass_.name, "compile/passes", span_start_ms, tracer.now_ms(),
                        category="passes",
                        args={"graph": graph.name, "iteration": iterations,
                              "rewrites": rewrites},
                    )
                if rewrites:
                    try:
                        validate_graph(rewritten)
                    except GraphValidationError as exc:
                        raise PassError(
                            f"pass {pass_.name!r} produced an invalid graph "
                            f"for {graph.name!r}: {exc}"
                        ) from exc
                    current = rewritten
                    iteration_rewrites += rewrites
            if tracer:
                tracer.add_span(
                    f"iteration {iterations}", "compile/passes",
                    iteration_start_ms, tracer.now_ms(), category="passes",
                    args={"graph": graph.name, "rewrites": iteration_rewrites},
                )
            if iteration_rewrites == 0 or not self.fixed_point:
                break
        return PassResult(
            graph=current,
            stats=[stats[name] for name in self.pass_names],
            iterations=iterations,
            elapsed_s=time.perf_counter() - start,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"<PassManager {list(self.pass_names)}>"
