"""Operator merge: the second parallelisation strategy of IOS.

Two or more operators can be merged into one larger operator when (Section 3):

* they are of the same type (only convolutions and fully-connected layers are
  supported, matching the paper's examples),
* they consume exactly the same input tensor(s),
* they agree on every hyper-parameter that affects the output grid — stride,
  groups and fused activation — while kernel sizes may differ: the smaller
  kernel is zero-padded to the larger one so the stacked weight tensor is
  rectangular.

Merging increases the work per kernel (better device utilisation), launches one
kernel instead of several and reads the shared input once instead of once per
operator; the price is the extra FLOPs introduced by kernel padding and a
`Split` to recover the original outputs (a free view operation).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..ir.graph import Graph
from ..ir.ops import Conv2d, Linear, Operator, Split

__all__ = [
    "MergeError",
    "MergedStage",
    "can_merge",
    "why_not_mergeable",
    "merge_peer_masks",
    "build_merged_operator",
]


class MergeError(ValueError):
    """Raised when operators that cannot be merged are asked to merge."""


@dataclass(frozen=True)
class MergedStage:
    """The result of merging a set of operators.

    ``merged`` is the fused operator; ``splits`` are the view operators that
    recover each original output (they launch no kernel); ``sections`` records
    the output-channel count contributed by each original operator, in order.
    """

    merged: Operator
    splits: tuple[Split, ...]
    sections: tuple[int, ...]
    source_names: tuple[str, ...]

    @property
    def padding_overhead_flops(self) -> float:
        """Extra FLOPs introduced by padding kernels up to the largest one."""
        return self._padding_overhead

    _padding_overhead: float = 0.0


def why_not_mergeable(graph: Graph, op_names: Sequence[str]) -> str | None:
    """Return ``None`` if the operators can be merged, else a human-readable reason."""
    if len(op_names) < 2:
        return "merging needs at least two operators"
    ops = [graph.nodes[name] for name in op_names]
    first = ops[0]
    if not isinstance(first, (Conv2d, Linear)):
        return f"operator type {first.kind!r} does not support merging"
    key = first.merge_key()
    if key is None:
        return f"operator {first.name!r} cannot participate in a merge"
    for op in ops[1:]:
        if op.kind != first.kind:
            return f"mixed operator types {first.kind!r} and {op.kind!r}"
        if op.merge_key() != key:
            return f"{op.name!r} differs from {first.name!r} in stride/groups/activation"
        if tuple(op.inputs) != tuple(first.inputs):
            return f"{op.name!r} and {first.name!r} consume different inputs"
    if isinstance(first, Conv2d):
        out_spatial = {(op.output_shape.height, op.output_shape.width) for op in ops}
        if len(out_spatial) != 1:
            return "merged convolutions must produce identical spatial dimensions"
        # The merged kernel uses the maximum size along each dimension; check
        # that a symmetric zero padding exists that reproduces the shared
        # output grid (always true for odd kernels with 'same'-style padding).
        in_shape = graph.nodes[first.inputs[0]].output_shape
        out_shape = first.output_shape
        max_kh = max(op.kernel[0] for op in ops)
        max_kw = max(op.kernel[1] for op in ops)
        stride_h, stride_w = first.stride
        for in_dim, out_dim, kernel, stride in (
            (in_shape.height, out_shape.height, max_kh, stride_h),
            (in_shape.width, out_shape.width, max_kw, stride_w),
        ):
            pad = -(-((out_dim - 1) * stride + kernel - in_dim) // 2)
            pad = max(0, pad)
            if (in_dim + 2 * pad - kernel) // stride + 1 != out_dim:
                return "no symmetric padding reproduces the shared output grid"
    return None


def can_merge(graph: Graph, op_names: Sequence[str]) -> bool:
    """Whether the named operators are eligible for the operator-merge strategy."""
    return why_not_mergeable(graph, op_names) is None


def merge_peer_masks(graph: Graph, op_names: Sequence[str]) -> list[int]:
    """For each operator, the bitmask of ``op_names`` positions it could merge with.

    Operator ``i``'s mask holds every operator of its type, merge key and
    inputs, ``i`` included; it is ``0`` when ``i`` can never merge.  A set of
    operators passes :func:`can_merge` only if it lies within one operator's
    mask, so the DP rules most sets out with one bitwise test.
    """
    signatures = []
    for name in op_names:
        op = graph.nodes[name]
        key = op.merge_key() if isinstance(op, (Conv2d, Linear)) else None
        signatures.append(None if key is None else (op.kind, key, tuple(op.inputs)))
    return [
        0 if signature is None else sum(
            1 << j for j, other in enumerate(signatures) if other == signature
        )
        for signature in signatures
    ]


def build_merged_operator(graph: Graph, op_names: Sequence[str]) -> MergedStage:
    """Construct the fused operator (and recovery splits) for a merge stage.

    The returned operators are *ephemeral*: they are not inserted into the
    graph — the execution engine and cost model only need them to price and
    simulate the merged kernel.
    """
    reason = why_not_mergeable(graph, op_names)
    if reason is not None:
        raise MergeError(f"cannot merge {list(op_names)}: {reason}")

    ops = [graph.nodes[name] for name in op_names]
    input_shapes = [graph.nodes[p].output_shape for p in ops[0].inputs]
    merged_name = "merge(" + "+".join(op.name for op in ops) + ")"

    if isinstance(ops[0], Conv2d):
        conv_ops: list[Conv2d] = ops  # type: ignore[assignment]
        sections = tuple(op.out_channels for op in conv_ops)
        max_kh = max(op.kernel[0] for op in conv_ops)
        max_kw = max(op.kernel[1] for op in conv_ops)
        # Choose the padding of the merged (max-sized) kernel so that the
        # merged output grid matches the originals' shared output grid.
        out_shape = conv_ops[0].output_shape
        in_shape = input_shapes[0]
        stride_h, stride_w = conv_ops[0].stride
        pad_h = -(-((out_shape.height - 1) * stride_h + max_kh - in_shape.height) // 2)
        pad_w = -(-((out_shape.width - 1) * stride_w + max_kw - in_shape.width) // 2)
        merged = Conv2d(
            merged_name,
            ops[0].inputs,
            out_channels=sum(sections),
            kernel=(max_kh, max_kw),
            stride=conv_ops[0].stride,
            padding=(max(0, pad_h), max(0, pad_w)),
            groups=conv_ops[0].groups,
            activation=conv_ops[0].activation,
        )
        merged.bind(input_shapes)
        original_flops = sum(op.flops() for op in conv_ops)
    else:
        linear_ops: list[Linear] = ops  # type: ignore[assignment]
        sections = tuple(op.out_features for op in linear_ops)
        merged = Linear(
            merged_name,
            ops[0].inputs,
            out_features=sum(sections),
            activation=linear_ops[0].activation,
        )
        merged.bind(input_shapes)
        original_flops = sum(op.flops() for op in linear_ops)

    splits = []
    for index, op in enumerate(ops):
        split = Split(f"split({op.name})", [merged.name], sections=sections, index=index)
        split.bind([merged.output_shape])
        splits.append(split)

    stage = MergedStage(
        merged=merged,
        splits=tuple(splits),
        sections=sections,
        source_names=tuple(op.name for op in ops),
        _padding_overhead=float(merged.flops() - original_flops),
    )
    return stage
