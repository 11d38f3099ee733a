"""Schedule representation.

A *schedule* (Section 3 of the paper) partitions the operators of a
computation graph into an ordered list of *stages*.  Stages execute one after
another; within a stage the operators run according to one of two
parallelisation strategies:

* **concurrent execution** — the stage's operators are partitioned into groups
  (two operators joined by an edge always share a group); groups run
  concurrently on separate CUDA streams while operators inside a group run
  sequentially;
* **operator merge** — the stage's operators are fused into a single larger
  operator (e.g. convolutions over the same input whose kernels are stacked
  along the output-channel axis).

The classes here are plain data: they reference operators by name and carry no
latency information.  Use :mod:`repro.core.lowering` to turn a schedule into an
executable plan and :mod:`repro.core.cost_model` to price it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Iterable, Sequence

from ..ir.graph import Graph
from ..ir.ops import Placeholder

__all__ = ["ParallelizationStrategy", "Stage", "Schedule", "ScheduleValidationError",
           "connected_groups"]


class ParallelizationStrategy(str, Enum):
    """The two intra-stage parallelisation strategies of the paper."""

    CONCURRENT = "concurrent execution"
    MERGE = "operator merge"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


class ScheduleValidationError(ValueError):
    """Raised when a schedule is inconsistent with its computation graph."""


def connected_groups(graph: Graph, op_names: Sequence[str]) -> list[list[str]]:
    """Partition stage operators into groups (Section 3, "concurrent execution").

    Two operators joined by an edge belong to the same group, i.e. groups are
    the weakly connected components of the subgraph induced by ``op_names``.
    Each group is returned in topological order (its execution order on the
    stream); groups are ordered by the position of their first operator so the
    result is deterministic.
    """
    names = list(op_names)
    name_set = set(names)
    parent: dict[str, str] = {name: name for name in names}

    def find(x: str) -> str:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a: str, b: str) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra

    for name in names:
        for pred in graph.nodes[name].inputs:
            if pred in name_set:
                union(pred, name)

    topo = graph.topological_order(names)
    groups: dict[str, list[str]] = {}
    for name in topo:
        groups.setdefault(find(name), []).append(name)
    # Roots enter the dict in order of their first member's topological
    # position, which is exactly the deterministic order promised above.
    return list(groups.values())


@dataclass(frozen=True)
class Stage:
    """One stage of a schedule: a set of operators plus a strategy."""

    operators: tuple[str, ...]
    strategy: ParallelizationStrategy = ParallelizationStrategy.CONCURRENT

    def __post_init__(self) -> None:
        if not self.operators:
            raise ValueError("a stage must contain at least one operator")
        if len(set(self.operators)) != len(self.operators):
            raise ValueError(f"stage contains duplicate operators: {self.operators}")

    def __len__(self) -> int:
        return len(self.operators)

    def __contains__(self, name: str) -> bool:
        return name in self.operators

    def groups(self, graph: Graph) -> list[list[str]]:
        """Operator groups of this stage under concurrent execution."""
        return connected_groups(graph, self.operators)

    def to_dict(self) -> dict[str, Any]:
        return {"operators": list(self.operators), "strategy": self.strategy.value}

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "Stage":
        return cls(
            operators=tuple(data["operators"]),
            strategy=ParallelizationStrategy(data["strategy"]),
        )


@dataclass
class Schedule:
    """An ordered list of stages covering every schedulable operator."""

    graph_name: str
    stages: list[Stage] = field(default_factory=list)
    #: Free-form provenance label ("sequential", "greedy", "ios-both", ...).
    origin: str = ""

    # ------------------------------------------------------------------ basics
    def __len__(self) -> int:
        return len(self.stages)

    def __iter__(self):
        return iter(self.stages)

    def num_stages(self) -> int:
        return len(self.stages)

    def operators(self) -> list[str]:
        """All operator names in stage order."""
        return [name for stage in self.stages for name in stage.operators]

    def stage_of(self, op_name: str) -> int:
        """Index of the stage containing ``op_name``."""
        for index, stage in enumerate(self.stages):
            if op_name in stage:
                return index
        raise KeyError(f"operator {op_name!r} not present in schedule")

    def append(self, stage: Stage) -> None:
        self.stages.append(stage)

    def extend(self, stages: Iterable[Stage]) -> None:
        self.stages.extend(stages)

    def max_stage_size(self) -> int:
        return max((len(stage) for stage in self.stages), default=0)

    def strategy_counts(self) -> dict[str, int]:
        """How many stages use each parallelisation strategy."""
        counts: dict[str, int] = {}
        for stage in self.stages:
            counts[stage.strategy.value] = counts.get(stage.strategy.value, 0) + 1
        return counts

    # -------------------------------------------------------------- validation
    def validate(self, graph: Graph) -> None:
        """Check that this schedule is feasible for ``graph``.

        A schedule is feasible when (1) it contains every schedulable operator
        exactly once and nothing else, and (2) every operator appears in the
        same stage as, or a later stage than, each of its predecessors.
        """
        expected = set(graph.schedulable_names())
        seen: dict[str, int] = {}
        for index, stage in enumerate(self.stages):
            for name in stage.operators:
                if name in seen:
                    raise ScheduleValidationError(
                        f"operator {name!r} appears in stages {seen[name]} and {index}"
                    )
                if name not in expected:
                    raise ScheduleValidationError(
                        f"operator {name!r} is not a schedulable operator of graph "
                        f"{graph.name!r}"
                    )
                seen[name] = index
        missing = expected - set(seen)
        if missing:
            raise ScheduleValidationError(
                f"schedule misses {len(missing)} operators, e.g. {sorted(missing)[:5]}"
            )
        for consumer, stage_index in seen.items():
            for producer in graph.nodes[consumer].inputs:
                if isinstance(graph.nodes[producer], Placeholder):
                    continue
                if seen[producer] > stage_index:
                    raise ScheduleValidationError(
                        f"dependency violated: {producer!r} (stage {seen[producer]}) must "
                        f"run no later than its consumer {consumer!r} (stage {stage_index})"
                    )

    # ------------------------------------------------------------ serialisation
    def to_dict(self) -> dict[str, Any]:
        return {
            "graph_name": self.graph_name,
            "origin": self.origin,
            "stages": [stage.to_dict() for stage in self.stages],
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "Schedule":
        return cls(
            graph_name=data["graph_name"],
            origin=data.get("origin", ""),
            stages=[Stage.from_dict(s) for s in data["stages"]],
        )

    # ----------------------------------------------------------------- display
    def describe(self, graph: Graph | None = None) -> str:
        """Human-readable multi-line description of the schedule."""
        lines = [
            f"Schedule for {self.graph_name!r} ({self.origin or 'unspecified origin'}): "
            f"{len(self.stages)} stages"
        ]
        for index, stage in enumerate(self.stages):
            if graph is not None and stage.strategy is ParallelizationStrategy.CONCURRENT:
                groups = stage.groups(graph)
                group_text = " | ".join(",".join(g) for g in groups)
                lines.append(
                    f"  stage {index:3d} [{stage.strategy.value:>20s}] "
                    f"{len(stage):2d} ops, {len(groups)} groups: {group_text}"
                )
            else:
                lines.append(
                    f"  stage {index:3d} [{stage.strategy.value:>20s}] "
                    f"{len(stage):2d} ops: {','.join(stage.operators)}"
                )
        return "\n".join(lines)
