"""Graph partitioning: cut a model into per-host stages with send/recv edges.

Modeled on the two hetr passes of ngraph-style heterogeneous execution:

1. **device assignment** — contiguous block ranges of the graph are assigned
   to hosts, balancing FLOPs under each host's memory bound (blocks execute
   in definition order, so contiguous ranges preserve the graph's block
   semantics);
2. **communication insertion** — at every cut the boundary tensor becomes a
   *recv* placeholder in the downstream stage (keeping the producer's node
   name, so operator input lists need no rewriting) and a *send* obligation
   of the upstream stage.  The transfer itself is costed by
   :class:`~repro.cluster.link.LinkModel` and scheduled by the cluster loop
   as send/recv events between the host loops.

Cuts are only legal where **exactly one tensor crosses** the boundary and
that tensor is produced in the immediately preceding stage — this keeps every
stage a valid single-input :class:`~repro.ir.graph.Graph`
(:func:`~repro.ir.validate.validate_graph` requires exactly one placeholder)
and makes the cluster handoff a simple chain.  Block-structured CNNs cut
naturally this way: each block consumes its predecessor's single output.

The partitioner searches all legal cut positions with a small dynamic
program minimising the maximum per-stage FLOPs, subject to per-host memory
bounds; ties break lexicographically so the plan is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from ..checks import require_number
from ..ir.graph import Graph
from ..ir.ops import Placeholder, operator_from_config
from ..ir.validate import validate_graph
from ..frontend import load

__all__ = ["PartitionError", "StageSpec", "PartitionPlan", "partition_graph"]


class PartitionError(ValueError):
    """No legal partition exists for the requested stages/memory bounds."""


@dataclass(frozen=True)
class StageSpec:
    """One contiguous block range of the model, pinned to one host."""

    index: int
    #: Stage model name served by the owning host, e.g. ``"squeezenet.stage1"``.
    model: str
    #: Host id this stage is pinned to (stage ``k`` runs on host ``k``).
    host: int
    #: ``[start, stop)`` range into the source graph's block list.
    block_range: tuple[int, int]
    #: Name of the node producing this stage's input tensor (the original
    #: placeholder for stage 0); it becomes the stage's recv placeholder.
    input_node: str
    #: Per-sample bytes of the tensor this stage receives.
    recv_bytes: int
    #: FLOPs of the stage at batch size 1 (the balancing objective).
    flops: int
    #: Weight bytes resident on the stage's host (batch-invariant).
    weight_bytes: int


@dataclass(frozen=True)
class PartitionPlan:
    """A model cut into per-host stages, ready to build stage subgraphs."""

    model: str
    stages: tuple[StageSpec, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "_builder", load)
        object.__setattr__(self, "_cache", {})

    @property
    def num_stages(self) -> int:
        return len(self.stages)

    def stage_for_model(self, model: str) -> StageSpec | None:
        for stage in self.stages:
            if stage.model == model:
                return stage
        return None

    def host_of_stage(self, index: int) -> int:
        return self.stages[index].host

    # ------------------------------------------------- communication insertion
    def stage_graph(self, index: int, batch: int) -> Graph:
        """Build stage ``index``'s subgraph at ``batch``.

        Stage 0 keeps the source graph's placeholder; every later stage gets
        a recv :class:`~repro.ir.ops.Placeholder` named after the boundary
        producer, so downstream operators' input lists work unchanged.  The
        result is a validated single-input graph the engine compiles like any
        model.
        """
        key = (index, batch)
        cached = self._cache.get(key)  # type: ignore[attr-defined]
        if cached is not None:
            return cached
        stage = self.stages[index]
        base = self._builder(self.model, batch)  # type: ignore[attr-defined]
        if self.num_stages == 1:
            # A single stage is the whole model — serve the zoo's graph
            # as-is so a trivial partition is indistinguishable from none.
            self._cache[key] = base  # type: ignore[attr-defined]
            return base
        start, stop = stage.block_range
        clone = Graph(stage.model)
        if index == 0:
            for ph in base.placeholders:
                assert ph.output_shape is not None
                clone.add_node(Placeholder(ph.name, ph.output_shape))
        else:
            producer = base.nodes[stage.input_node]
            assert producer.output_shape is not None
            clone.add_node(Placeholder(stage.input_node, producer.output_shape))
        for block in base.blocks[start:stop]:
            new_block = clone.add_block(block.name)
            for name in block.node_names:
                op = operator_from_config(base.nodes[name].to_config())
                clone.add_node(op, new_block)
        validate_graph(clone)
        self._cache[key] = clone  # type: ignore[attr-defined]
        return clone

    def graph_builder(self) -> Callable[[str, int], Graph]:
        """A registry ``graph_builder`` resolving stage models and the rest.

        Plug this into a shared :class:`~repro.serve.registry.ScheduleRegistry`
        and every host compiles its *own* subgraph per device — stage models
        hit :meth:`stage_graph`, anything else falls through to the normal
        model zoo.
        """
        stage_by_model = {stage.model: stage.index for stage in self.stages}

        def build(model: str, batch: int) -> Graph:
            stage_index = stage_by_model.get(model)
            if stage_index is not None:
                return self.stage_graph(stage_index, batch)
            return self._builder(model, batch)  # type: ignore[attr-defined]

        return build

    # ------------------------------------------------------------------ pretty
    def describe(self) -> str:
        """One line per stage: blocks, FLOPs, resident weights, recv bytes."""
        lines = [f"partition of {self.model!r}: {self.num_stages} stage(s)"]
        for stage in self.stages:
            start, stop = stage.block_range
            lines.append(
                f"  stage {stage.index} -> host {stage.host}: "
                f"blocks [{start}:{stop}), {stage.flops / 1e6:.1f} MFLOPs, "
                f"{stage.weight_bytes / 1e6:.2f} MB weights, "
                f"recv {stage.recv_bytes} B/sample from {stage.input_node!r}"
            )
        return "\n".join(lines)


def partition_graph(
    graph: Graph,
    num_stages: int,
    memory_bounds: Sequence[float | None] | None = None,
    model: str | None = None,
) -> PartitionPlan:
    """Cut ``graph`` into ``num_stages`` contiguous stages, one per host.

    ``memory_bounds`` gives each host's weight capacity in **gigabytes**
    (``None`` entries are unbounded); stage ``k`` must fit host ``k``.  The
    returned plan minimises the maximum per-stage FLOPs over all legal cut
    positions (single crossing tensor, produced by the preceding stage),
    breaking ties lexicographically — same graph, same bounds, same plan.
    """
    model = model or graph.name
    blocks = graph.blocks
    num_blocks = len(blocks)
    if num_stages < 1:
        raise PartitionError(f"num_stages must be >= 1, got {num_stages}")
    if num_stages > num_blocks:
        raise PartitionError(
            f"cannot cut {model!r} into {num_stages} stages: "
            f"only {num_blocks} blocks"
        )
    bounds: list[float | None] = list(memory_bounds or [])
    if memory_bounds is not None and len(bounds) != num_stages:
        raise PartitionError(
            f"memory_bounds has {len(bounds)} entries for {num_stages} stages"
        )
    if not bounds:
        bounds = [None] * num_stages
    for host, bound in enumerate(bounds):
        if bound is not None:
            try:
                require_number(f"memory_bounds[{host}]", bound, positive=True)
            except ValueError as error:
                raise PartitionError(str(error)) from None

    # Block index of every node; placeholders ride with stage 0 (index -1).
    block_index: dict[str, int] = {}
    for position, block in enumerate(blocks):
        for name in block.node_names:
            block_index[name] = position
    for ph in graph.placeholders:
        block_index[ph.name] = -1

    def block_nodes(start: int, stop: int) -> list[str]:
        return [name for block in blocks[start:stop] for name in block.node_names]

    # Crossing producers at each cut position c: nodes before c consumed at
    # or after c.  A cut is legal only when exactly one tensor crosses.
    cut_node: dict[int, str] = {}
    for cut in range(1, num_blocks):
        crossing: list[str] = []
        after = set(block_nodes(cut, num_blocks))
        for name in graph.nodes:
            if block_index[name] >= cut:
                continue
            if any(consumer in after for consumer in graph.successors(name)):
                crossing.append(name)
        if len(crossing) == 1:
            cut_node[cut] = crossing[0]

    flops_of = [
        sum(graph.nodes[name].flops() for name in block.node_names)
        for block in blocks
    ]
    weights_of = [
        sum(graph.nodes[name].weight_bytes() for name in block.node_names)
        for block in blocks
    ]

    def stage_cost(start: int, stop: int) -> int:
        return sum(flops_of[start:stop])

    def stage_weights(start: int, stop: int) -> int:
        return sum(weights_of[start:stop])

    def feasible(start: int, stop: int, host: int) -> bool:
        if start > 0:
            if start not in cut_node:
                return False
            # External inputs of the stage must be exactly the cut tensor.
            inside = set(block_nodes(start, stop))
            for name in inside:
                for parent in graph.nodes[name].inputs:
                    if parent not in inside and parent != cut_node[start]:
                        return False
        if stop < num_blocks:
            if stop not in cut_node:
                return False
            # The next stage's input must be produced *in this stage* so the
            # handoff is a chain (stage k sends, stage k+1 receives).
            producer_block = block_index[cut_node[stop]]
            lower = -1 if start == 0 else start
            if not lower <= producer_block < stop:
                return False
        bound = bounds[host]
        if bound is not None and stage_weights(start, stop) > bound * 1e9:
            return False
        return True

    # Dynamic program over cut positions: minimise the max stage FLOPs,
    # breaking ties by lexicographically smallest cut tuple (deterministic).
    memo: dict[tuple[int, int], tuple[int, tuple[int, ...]] | None] = {}

    def solve(host: int, start: int) -> tuple[int, tuple[int, ...]] | None:
        key = (host, start)
        if key in memo:
            return memo[key]
        if host == num_stages - 1:
            result = (
                (stage_cost(start, num_blocks), ())
                if feasible(start, num_blocks, host)
                else None
            )
            memo[key] = result
            return result
        best: tuple[int, tuple[int, ...]] | None = None
        remaining = num_stages - host - 1
        for stop in range(start + 1, num_blocks - remaining + 1):
            if not feasible(start, stop, host):
                continue
            rest = solve(host + 1, stop)
            if rest is None:
                continue
            candidate = (max(stage_cost(start, stop), rest[0]), (stop,) + rest[1])
            if best is None or candidate < best:
                best = candidate
        memo[key] = best
        return best

    solution = solve(0, 0)
    if solution is None:
        raise PartitionError(
            f"no legal {num_stages}-stage partition of {model!r}: every cut "
            "either crosses more than one tensor or violates a host memory "
            f"bound (bounds: {bounds})"
        )
    cuts = (0,) + solution[1] + (num_blocks,)

    input_bytes = graph.input_shape.with_batch(1).bytes()
    stages: list[StageSpec] = []
    for index in range(num_stages):
        start, stop = cuts[index], cuts[index + 1]
        if index == 0:
            input_node = graph.placeholders[0].name
            recv_bytes = input_bytes
        else:
            input_node = cut_node[start]
            shape = graph.nodes[input_node].output_shape
            assert shape is not None
            recv_bytes = shape.with_batch(1).bytes()
        stages.append(
            StageSpec(
                index=index,
                model=model if num_stages == 1 else f"{model}.stage{index}",
                host=index,
                block_range=(start, stop),
                input_node=input_node,
                recv_bytes=recv_bytes,
                flops=stage_cost(start, stop),
                weight_bytes=stage_weights(start, stop),
            )
        )
    return PartitionPlan(model=model, stages=tuple(stages))
