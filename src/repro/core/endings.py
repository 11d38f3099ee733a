"""Ending enumeration and the schedule-pruning strategy.

An *ending* of an operator set ``S`` (Section 4.1, Figure 4) is a subset
``S' ⊆ S`` such that every edge between ``S - S'`` and ``S'`` points *into*
``S'`` — equivalently, ``S'`` is successor-closed within ``S``.  The operators
of the last stage of any feasible schedule of ``S`` form an ending of ``S``,
which is what lets the dynamic program peel stages off the back of the graph.

To keep the bit-twiddling fast, the enumeration works on an integer bitmask
representation of operator subsets prepared once per block by
:class:`BlockIndex`.

The *pruning strategy* ``P(S, S')`` (Section 4.3) restricts which endings are
explored: an ending is admissible iff it has at most ``s`` groups and every
group contains at most ``r`` operators, where groups are the weakly connected
components of the induced subgraph.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from ..ir.graph import Graph

__all__ = ["PruningStrategy", "BlockIndex", "enumerate_endings", "is_ending", "groups_of_mask"]


@dataclass(frozen=True)
class PruningStrategy:
    """The ``(r, s)`` pruning strategy of Section 4.3.

    ``max_group_size`` (``r``) bounds the number of operators in each group of
    an ending; ``max_groups`` (``s``) bounds the number of groups.  ``None``
    means unbounded.  The paper's default configuration is ``r = 3, s = 8``.
    """

    max_group_size: int | None = 3
    max_groups: int | None = 8

    def __post_init__(self) -> None:
        if self.max_group_size is not None and self.max_group_size < 1:
            raise ValueError("max_group_size must be >= 1 or None")
        if self.max_groups is not None and self.max_groups < 1:
            raise ValueError("max_groups must be >= 1 or None")

    @property
    def max_operators(self) -> int | None:
        """Upper bound on the size of an admissible ending (``r * s``)."""
        if self.max_group_size is None or self.max_groups is None:
            return None
        return self.max_group_size * self.max_groups

    def admits(self, group_sizes: Sequence[int]) -> bool:
        """Whether an ending with these group sizes satisfies the strategy."""
        if self.max_groups is not None and len(group_sizes) > self.max_groups:
            return False
        if self.max_group_size is not None and any(
            size > self.max_group_size for size in group_sizes
        ):
            return False
        return True

    @classmethod
    def unpruned(cls) -> "PruningStrategy":
        """The trivial strategy admitting every ending."""
        return cls(max_group_size=None, max_groups=None)

    def describe(self) -> str:
        r = "inf" if self.max_group_size is None else str(self.max_group_size)
        s = "inf" if self.max_groups is None else str(self.max_groups)
        return f"r={r}, s={s}"


class BlockIndex:
    """Bitmask bookkeeping for the operators of one block.

    Maps the block's operator names to bit positions in topological order and
    precomputes direct-successor and undirected-adjacency masks, which is all
    the ending enumeration and group computation need.
    """

    def __init__(self, graph: Graph, op_names: Sequence[str]):
        self.graph = graph
        self.names: list[str] = graph.topological_order(list(op_names))
        self.index: dict[str, int] = {name: i for i, name in enumerate(self.names)}
        n = len(self.names)
        self.n = n
        self.full_mask = (1 << n) - 1 if n else 0
        self.succ_mask = [0] * n
        self.pred_mask = [0] * n
        name_set = set(self.names)
        for name in self.names:
            v = self.index[name]
            for parent in graph.nodes[name].inputs:
                if parent in name_set:
                    u = self.index[parent]
                    self.succ_mask[u] |= 1 << v
                    self.pred_mask[v] |= 1 << u
        self.adj_mask = [self.succ_mask[i] | self.pred_mask[i] for i in range(n)]

    # ------------------------------------------------------------- conversions
    def mask_of(self, names: Sequence[str]) -> int:
        mask = 0
        for name in names:
            mask |= 1 << self.index[name]
        return mask

    def names_of(self, mask: int) -> tuple[str, ...]:
        """The names of ``mask``'s operators, in topological (bit) order."""
        names = self.names
        out = []
        while mask:
            low = mask & -mask
            out.append(names[low.bit_length() - 1])
            mask ^= low
        return tuple(out)

    def bits(self, mask: int) -> Iterator[int]:
        while mask:
            low = mask & -mask
            yield low.bit_length() - 1
            mask ^= low


def groups_of_mask(block: BlockIndex, mask: int) -> list[int]:
    """Partition a subset (bitmask) into connected groups (list of bitmasks).

    Groups are the weakly connected components of the induced subgraph; two
    operators joined by an edge always share a group.
    """
    remaining = mask
    groups: list[int] = []
    while remaining:
        seed = remaining & -remaining
        component = seed
        frontier = seed
        while frontier:
            nxt = 0
            for bit in block.bits(frontier):
                nxt |= block.adj_mask[bit] & mask & ~component
            component |= nxt
            frontier = nxt
        groups.append(component)
        remaining &= ~component
    return groups


def is_ending(block: BlockIndex, subset: int, of: int) -> bool:
    """Whether ``subset`` is an ending of ``of`` (both bitmasks).

    ``subset`` must be a non-empty subset of ``of`` with no edge from
    ``subset`` to ``of - subset``.
    """
    if subset == 0 or subset & ~of:
        return False
    outside = of & ~subset
    for bit in block.bits(subset):
        if block.succ_mask[bit] & outside:
            return False
    return True


def enumerate_endings(
    block: BlockIndex,
    state: int,
    pruning: PruningStrategy | None = None,
) -> list[tuple[int, list[int]]]:
    """Every admissible ending of ``state`` with its group decomposition.

    Returns ``(ending_mask, group_masks)`` pairs in a deterministic order
    (depth-first, excluding each operator before including it — the order the
    DP's first-wins tie-breaking depends on).  Endings are exactly the
    non-empty successor-closed subsets of ``state``; the pruning strategy
    filters them by group count and group size.
    """
    pruning = pruning or PruningStrategy.unpruned()
    members = [i for i in range(block.n) if state >> i & 1]
    if not members:
        return []
    max_ops = pruning.max_operators
    max_groups = pruning.max_groups
    max_group_size = pruning.max_group_size
    succ_mask = block.succ_mask
    adj_mask = block.adj_mask

    # Process operators in reverse topological order so that by the time we
    # decide whether to include an operator, all of its successors (which have
    # larger topological indices) have already been decided.
    order = list(reversed(members))
    # Successors-inside-the-state per position, so the closedness check in the
    # hot loop is two bitwise ops on precomputed masks.
    succ_in_state = [succ_mask[node] & state for node in order]
    include_bit = [1 << node for node in order]
    adj_of_position = [adj_mask[node] for node in order]
    last = len(order)
    out: list[tuple[int, list[int]]] = []
    append = out.append

    # An explicit depth-first walk, not a recursive closure (which would
    # reference itself and leave every call's output list to the cycle
    # collector).  A stack entry ``(position, chosen, size, groups)`` stands
    # for the partial ending ``chosen`` with every operator before
    # ``position`` decided; excluding each remaining operator yields
    # ``chosen`` itself, so it is emitted first, and including the operator
    # at position ``i`` (allowed only if all its successors inside the state
    # are already included — successor-closedness) opens a child walk at
    # ``i + 1``.  Children are pushed in ascending position and so popped in
    # descending one: exactly the exclude-before-include recursion order.
    #
    # The group decomposition is maintained incrementally along the walk
    # instead of recomputed at each ending.  Positions are visited in order
    # of decreasing bit index, so a newly included operator always carries
    # the lowest bit of the partial ending: the group it forms (or merges
    # into) sorts first, and untouched groups keep their relative order —
    # exactly the ascending-lowest-bit order :func:`groups_of_mask` produces.
    # Groups only ever merge as further operators are included, so a group
    # that exceeds ``max_group_size`` can never shrink back: the whole
    # include subtree is pruned on the spot rather than rejected ending by
    # ending.
    stack: list[tuple[int, int, int, tuple[int, ...]]] = [(0, 0, 0, ())]
    pop = stack.pop
    push = stack.append
    while stack:
        position, chosen, size, groups = pop()
        if chosen and (max_groups is None or len(groups) <= max_groups):
            append((chosen, list(groups)))
        if max_ops is not None and size >= max_ops:
            continue
        size += 1
        for i in range(position, last):
            if succ_in_state[i] & ~chosen:
                continue
            bit = include_bit[i]
            adjacent = adj_of_position[i] & chosen
            if adjacent:
                merged = bit
                rest = []
                for group in groups:
                    if group & adjacent:
                        merged |= group
                    else:
                        rest.append(group)
                if max_group_size is not None and merged.bit_count() > max_group_size:
                    continue
                push((i + 1, chosen | bit, size, (merged, *rest)))
            else:
                push((i + 1, chosen | bit, size, (bit, *groups)))
    return out
