"""Operator taxonomy of the computation-graph IR.

Every node in a :class:`repro.ir.graph.Graph` is an :class:`Operator`.  An
operator knows

* which other operators produce its inputs (``inputs`` — a list of node names),
* how to infer its output shape from its input shapes,
* how many floating point operations it performs (``flops``),
* how many bytes it moves (weights, activations read, activations written),

which is everything the hardware model and the IOS scheduler need.  Operators
never hold tensor data.

Following the paper (Table 2), compound units such as "Conv-Relu" and
"Relu-SepConv" are modelled as a *single* schedulable operator: a ``Conv2d``
carries an optional fused activation, a ``SeparableConv2d`` carries an optional
preceding activation.  These compound operators are the basic schedule units.

Graphs do not have to arrive pre-fused: the ``fuse-activation`` pass of
:mod:`repro.passes` (see :class:`repro.passes.FuseActivationPass`) folds
standalone ``Relu`` nodes into these fused-activation fields, so a raw
frontend graph optimises to the same compound units the model zoo builds
directly.
"""

from __future__ import annotations

from typing import Any, ClassVar, Sequence

from .tensor import FLOAT32_BYTES, TensorShape, conv2d_output_hw, pool2d_output_hw

__all__ = [
    "Operator",
    "Placeholder",
    "Conv2d",
    "SeparableConv2d",
    "Pool2d",
    "GlobalAvgPool",
    "Relu",
    "Identity",
    "Add",
    "Concat",
    "Split",
    "Flatten",
    "Linear",
    "Matmul",
    "Softmax",
    "LayerNorm",
    "Gelu",
    "Transpose",
    "Reshape",
    "Opaque",
    "OP_REGISTRY",
    "register_operator",
    "operator_from_config",
]


def _normalize_pair(value: int | tuple[int, int] | list[int]) -> tuple[int, int]:
    """Accept ``k`` or ``(kh, kw)`` and always return a pair."""
    if isinstance(value, int):
        return (value, value)
    pair = tuple(int(v) for v in value)
    if len(pair) != 2:
        raise ValueError(f"expected an int or a pair, got {value!r}")
    return pair  # type: ignore[return-value]


class Operator:
    """Base class for all IR operators.

    Parameters
    ----------
    name:
        Unique node name within the graph.
    inputs:
        Names of the producer nodes whose outputs feed this operator, in order.
    """

    #: Short type tag used for serialisation and merge-compatibility checks.
    kind: ClassVar[str] = "op"
    #: Whether the operator launches a GPU kernel (False for pure metadata ops).
    launches_kernel: ClassVar[bool] = True

    def __init__(self, name: str, inputs: Sequence[str]):
        if not name:
            raise ValueError("operator name must be non-empty")
        self.name = str(name)
        self.inputs: tuple[str, ...] = tuple(str(i) for i in inputs)
        self.input_shapes: tuple[TensorShape, ...] | None = None
        self.output_shape: TensorShape | None = None

    # ------------------------------------------------------------------ shapes
    def infer_shape(self, input_shapes: Sequence[TensorShape]) -> TensorShape:
        """Compute the output shape from the input shapes."""
        raise NotImplementedError

    def bind(self, input_shapes: Sequence[TensorShape]) -> None:
        """Record input shapes and cache the inferred output shape.

        Called by the graph builder once the producers of this operator are
        known.  ``flops``/memory queries are only valid after ``bind``.
        """
        self.input_shapes = tuple(input_shapes)
        self.output_shape = self.infer_shape(self.input_shapes)

    def _require_bound(self) -> tuple[TensorShape, ...]:
        if self.input_shapes is None or self.output_shape is None:
            raise RuntimeError(
                f"operator {self.name!r} has not been bound to input shapes yet"
            )
        return self.input_shapes

    # ------------------------------------------------------------------- costs
    def flops(self) -> int:
        """Number of floating point operations (multiply-adds count as 2)."""
        self._require_bound()
        return 0

    def weight_count(self) -> int:
        """Number of learned parameters."""
        self._require_bound()
        return 0

    def weight_bytes(self, dtype_bytes: int = FLOAT32_BYTES) -> int:
        return self.weight_count() * dtype_bytes

    def input_bytes(self, dtype_bytes: int = FLOAT32_BYTES) -> int:
        shapes = self._require_bound()
        return sum(s.bytes(dtype_bytes) for s in shapes)

    def output_bytes(self, dtype_bytes: int = FLOAT32_BYTES) -> int:
        self._require_bound()
        assert self.output_shape is not None
        return self.output_shape.bytes(dtype_bytes)

    def memory_bytes(self, dtype_bytes: int = FLOAT32_BYTES) -> int:
        """Total DRAM traffic: activations read + weights read + output written."""
        return (
            self.input_bytes(dtype_bytes)
            + self.weight_bytes(dtype_bytes)
            + self.output_bytes(dtype_bytes)
        )

    # ------------------------------------------------------------ merge support
    def merge_key(self) -> tuple[Any, ...] | None:
        """Key describing merge compatibility.

        Two operators can be merged by the "operator merge" parallelisation
        strategy iff they have the same ``kind``, the same (non-``None``) merge
        key and consume exactly the same inputs.  ``None`` means the operator
        can never participate in a merge.
        """
        return None

    # -------------------------------------------------------------- serialising
    def attrs(self) -> dict[str, Any]:
        """Operator-specific attributes (JSON-serialisable)."""
        return {}

    def to_config(self) -> dict[str, Any]:
        return {"kind": self.kind, "name": self.name, "inputs": list(self.inputs), "attrs": self.attrs()}

    @classmethod
    def from_attrs(cls, name: str, inputs: Sequence[str], attrs: dict[str, Any]) -> "Operator":
        return cls(name, inputs, **attrs)  # type: ignore[call-arg]

    # ------------------------------------------------------------------ dunder
    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        shape = f" -> {self.output_shape}" if self.output_shape is not None else ""
        return f"<{type(self).__name__} {self.name} inputs={list(self.inputs)}{shape}>"


# --------------------------------------------------------------------------- #
# Graph input                                                                  #
# --------------------------------------------------------------------------- #
class Placeholder(Operator):
    """A graph input.  Does not launch a kernel and is never scheduled."""

    kind = "placeholder"
    launches_kernel = False

    def __init__(self, name: str, shape: TensorShape):
        super().__init__(name, inputs=())
        self.shape = shape
        self.bind(())

    def infer_shape(self, input_shapes: Sequence[TensorShape]) -> TensorShape:
        return self.shape

    def attrs(self) -> dict[str, Any]:
        return {"shape": str(self.shape)}

    @classmethod
    def from_attrs(cls, name, inputs, attrs):
        return cls(name, TensorShape.parse(attrs["shape"]))


# --------------------------------------------------------------------------- #
# Convolutions                                                                 #
# --------------------------------------------------------------------------- #
class Conv2d(Operator):
    """2-D convolution with an optional fused activation ("Conv-Relu").

    ``padding`` may be an int, a pair, or the string ``"same"`` which pads so
    that (for stride 1) the spatial size is preserved.
    """

    kind = "conv2d"

    def __init__(
        self,
        name: str,
        inputs: Sequence[str],
        out_channels: int,
        kernel: int | tuple[int, int],
        stride: int | tuple[int, int] = 1,
        padding: int | tuple[int, int] | str = "same",
        groups: int = 1,
        activation: str | None = "relu",
    ):
        super().__init__(name, inputs)
        if out_channels <= 0:
            raise ValueError(f"out_channels must be positive, got {out_channels}")
        if groups <= 0:
            raise ValueError(f"groups must be positive, got {groups}")
        self.out_channels = int(out_channels)
        self.kernel = _normalize_pair(kernel)
        self.stride = _normalize_pair(stride)
        if isinstance(padding, str):
            if padding != "same":
                raise ValueError(f"unknown padding spec {padding!r}")
            self.padding = (self.kernel[0] // 2, self.kernel[1] // 2)
        else:
            self.padding = _normalize_pair(padding)
        self.groups = int(groups)
        self.activation = activation
        if self.out_channels % self.groups != 0:
            raise ValueError(
                f"out_channels={out_channels} not divisible by groups={groups}"
            )

    # shapes -------------------------------------------------------------
    def infer_shape(self, input_shapes: Sequence[TensorShape]) -> TensorShape:
        if len(input_shapes) != 1:
            raise ValueError(f"Conv2d {self.name} expects exactly one input")
        x = input_shapes[0]
        if not x.is_spatial:
            raise ValueError(f"Conv2d {self.name} requires a 4-D input, got {x}")
        if x.channels % self.groups != 0:
            raise ValueError(
                f"Conv2d {self.name}: in_channels={x.channels} not divisible by groups={self.groups}"
            )
        out_h, out_w = conv2d_output_hw(x.height, x.width, self.kernel, self.stride, self.padding)
        return TensorShape(x.batch, self.out_channels, out_h, out_w)

    # costs --------------------------------------------------------------
    @property
    def in_channels(self) -> int:
        shapes = self._require_bound()
        return shapes[0].channels

    def flops(self) -> int:
        self._require_bound()
        assert self.output_shape is not None
        out = self.output_shape
        kh, kw = self.kernel
        macs = out.numel() * (self.in_channels // self.groups) * kh * kw
        total = 2 * macs
        if self.activation is not None:
            total += out.numel()
        return total

    def weight_count(self) -> int:
        self._require_bound()
        kh, kw = self.kernel
        # weights + bias
        return self.out_channels * (self.in_channels // self.groups) * kh * kw + self.out_channels

    # merge --------------------------------------------------------------
    def merge_key(self) -> tuple[Any, ...] | None:
        # Convolutions can be merged when they share stride, groups and
        # activation; kernel sizes may differ (the smaller kernel is padded
        # with zeros to the larger one, exactly as described in Section 3).
        if self.groups != 1:
            return None
        return ("conv2d", self.stride, self.groups, self.activation)

    def attrs(self) -> dict[str, Any]:
        return {
            "out_channels": self.out_channels,
            "kernel": list(self.kernel),
            "stride": list(self.stride),
            "padding": list(self.padding),
            "groups": self.groups,
            "activation": self.activation,
        }


class SeparableConv2d(Operator):
    """Depthwise-separable convolution with an optional preceding ReLU.

    This is the "Relu-SepConv" schedule unit used by RandWire and NasNet in
    Table 2: a ReLU, a depthwise convolution and a pointwise (1x1) convolution
    executed as one unit.  Separable convolutions cannot be merged (the paper
    notes IOS-Merge degenerates to Sequential on RandWire/NasNet).
    """

    kind = "sep_conv2d"

    def __init__(
        self,
        name: str,
        inputs: Sequence[str],
        out_channels: int,
        kernel: int | tuple[int, int],
        stride: int | tuple[int, int] = 1,
        padding: int | tuple[int, int] | str = "same",
        pre_activation: bool = True,
    ):
        super().__init__(name, inputs)
        if out_channels <= 0:
            raise ValueError(f"out_channels must be positive, got {out_channels}")
        self.out_channels = int(out_channels)
        self.kernel = _normalize_pair(kernel)
        self.stride = _normalize_pair(stride)
        if isinstance(padding, str):
            if padding != "same":
                raise ValueError(f"unknown padding spec {padding!r}")
            self.padding = (self.kernel[0] // 2, self.kernel[1] // 2)
        else:
            self.padding = _normalize_pair(padding)
        self.pre_activation = bool(pre_activation)

    def infer_shape(self, input_shapes: Sequence[TensorShape]) -> TensorShape:
        if len(input_shapes) != 1:
            raise ValueError(f"SeparableConv2d {self.name} expects exactly one input")
        x = input_shapes[0]
        if not x.is_spatial:
            raise ValueError(f"SeparableConv2d {self.name} requires a 4-D input, got {x}")
        out_h, out_w = conv2d_output_hw(x.height, x.width, self.kernel, self.stride, self.padding)
        return TensorShape(x.batch, self.out_channels, out_h, out_w)

    @property
    def in_channels(self) -> int:
        shapes = self._require_bound()
        return shapes[0].channels

    def flops(self) -> int:
        shapes = self._require_bound()
        assert self.output_shape is not None
        x = shapes[0]
        out = self.output_shape
        kh, kw = self.kernel
        # depthwise: one filter per input channel, at the output resolution
        depthwise_macs = x.channels * out.height * out.width * out.batch * kh * kw
        # pointwise: 1x1 conv from in_channels to out_channels
        pointwise_macs = out.numel() * x.channels
        total = 2 * (depthwise_macs + pointwise_macs)
        if self.pre_activation:
            total += x.numel()
        return total

    def weight_count(self) -> int:
        shapes = self._require_bound()
        x = shapes[0]
        kh, kw = self.kernel
        depthwise = x.channels * kh * kw
        pointwise = x.channels * self.out_channels + self.out_channels
        return depthwise + pointwise

    def merge_key(self) -> tuple[Any, ...] | None:
        return None  # separable convolutions are never merged

    def attrs(self) -> dict[str, Any]:
        return {
            "out_channels": self.out_channels,
            "kernel": list(self.kernel),
            "stride": list(self.stride),
            "padding": list(self.padding),
            "pre_activation": self.pre_activation,
        }


# --------------------------------------------------------------------------- #
# Pooling                                                                      #
# --------------------------------------------------------------------------- #
class Pool2d(Operator):
    """Max or average pooling."""

    kind = "pool2d"

    def __init__(
        self,
        name: str,
        inputs: Sequence[str],
        pool_type: str,
        kernel: int | tuple[int, int],
        stride: int | tuple[int, int] | None = None,
        padding: int | tuple[int, int] | str = 0,
        ceil_mode: bool = False,
    ):
        super().__init__(name, inputs)
        if pool_type not in ("max", "avg"):
            raise ValueError(f"pool_type must be 'max' or 'avg', got {pool_type!r}")
        self.pool_type = pool_type
        self.kernel = _normalize_pair(kernel)
        self.stride = _normalize_pair(stride) if stride is not None else self.kernel
        if isinstance(padding, str):
            if padding != "same":
                raise ValueError(f"unknown padding spec {padding!r}")
            self.padding = (self.kernel[0] // 2, self.kernel[1] // 2)
        else:
            self.padding = _normalize_pair(padding)
        self.ceil_mode = bool(ceil_mode)

    def infer_shape(self, input_shapes: Sequence[TensorShape]) -> TensorShape:
        if len(input_shapes) != 1:
            raise ValueError(f"Pool2d {self.name} expects exactly one input")
        x = input_shapes[0]
        if not x.is_spatial:
            raise ValueError(f"Pool2d {self.name} requires a 4-D input, got {x}")
        out_h, out_w = pool2d_output_hw(
            x.height, x.width, self.kernel, self.stride, self.padding, self.ceil_mode
        )
        return TensorShape(x.batch, x.channels, out_h, out_w)

    def flops(self) -> int:
        self._require_bound()
        assert self.output_shape is not None
        kh, kw = self.kernel
        return self.output_shape.numel() * kh * kw

    def attrs(self) -> dict[str, Any]:
        return {
            "pool_type": self.pool_type,
            "kernel": list(self.kernel),
            "stride": list(self.stride),
            "padding": list(self.padding),
            "ceil_mode": self.ceil_mode,
        }


class GlobalAvgPool(Operator):
    """Global average pooling reducing the spatial dimensions to 1x1."""

    kind = "global_avg_pool"

    def infer_shape(self, input_shapes: Sequence[TensorShape]) -> TensorShape:
        if len(input_shapes) != 1:
            raise ValueError(f"GlobalAvgPool {self.name} expects exactly one input")
        x = input_shapes[0]
        if not x.is_spatial:
            raise ValueError(f"GlobalAvgPool {self.name} requires a 4-D input, got {x}")
        return TensorShape(x.batch, x.channels, 1, 1)

    def flops(self) -> int:
        shapes = self._require_bound()
        return shapes[0].numel()


# --------------------------------------------------------------------------- #
# Element-wise / structural operators                                          #
# --------------------------------------------------------------------------- #
class Relu(Operator):
    """Stand-alone ReLU activation."""

    kind = "relu"

    def infer_shape(self, input_shapes: Sequence[TensorShape]) -> TensorShape:
        if len(input_shapes) != 1:
            raise ValueError(f"Relu {self.name} expects exactly one input")
        return input_shapes[0]

    def flops(self) -> int:
        shapes = self._require_bound()
        return shapes[0].numel()


class Identity(Operator):
    """Pass-through node (useful for skip connections and graph surgery)."""

    kind = "identity"
    launches_kernel = False

    def infer_shape(self, input_shapes: Sequence[TensorShape]) -> TensorShape:
        if len(input_shapes) != 1:
            raise ValueError(f"Identity {self.name} expects exactly one input")
        return input_shapes[0]


class Add(Operator):
    """Element-wise addition of two or more tensors with identical shapes."""

    kind = "add"

    def infer_shape(self, input_shapes: Sequence[TensorShape]) -> TensorShape:
        if len(input_shapes) < 2:
            raise ValueError(f"Add {self.name} expects at least two inputs")
        first = input_shapes[0]
        for s in input_shapes[1:]:
            if s != first:
                raise ValueError(f"Add {self.name}: shape mismatch {s} vs {first}")
        return first

    def flops(self) -> int:
        shapes = self._require_bound()
        return shapes[0].numel() * (len(shapes) - 1)


class Concat(Operator):
    """Concatenation along the channel axis."""

    kind = "concat"

    def infer_shape(self, input_shapes: Sequence[TensorShape]) -> TensorShape:
        if len(input_shapes) < 1:
            raise ValueError(f"Concat {self.name} expects at least one input")
        return TensorShape.concat_channels(list(input_shapes))

    def flops(self) -> int:
        # A concat is a pure memory movement; count one op per element copied.
        self._require_bound()
        assert self.output_shape is not None
        return self.output_shape.numel()


class Split(Operator):
    """Split a tensor along the channel axis into fixed-size sections.

    The output modelled here is the *i-th* section; the split itself is a
    metadata/view operation produced when un-merging a merged convolution.
    """

    kind = "split"
    launches_kernel = False

    def __init__(self, name: str, inputs: Sequence[str], sections: Sequence[int], index: int):
        super().__init__(name, inputs)
        self.sections = tuple(int(s) for s in sections)
        if any(s <= 0 for s in self.sections):
            raise ValueError(f"split sections must be positive, got {self.sections}")
        if not 0 <= index < len(self.sections):
            raise ValueError(f"split index {index} out of range for {self.sections}")
        self.index = int(index)

    def infer_shape(self, input_shapes: Sequence[TensorShape]) -> TensorShape:
        if len(input_shapes) != 1:
            raise ValueError(f"Split {self.name} expects exactly one input")
        x = input_shapes[0]
        if x.channels != sum(self.sections):
            raise ValueError(
                f"Split {self.name}: sections {self.sections} do not sum to channels {x.channels}"
            )
        return x.with_channels(self.sections[self.index])

    def attrs(self) -> dict[str, Any]:
        return {"sections": list(self.sections), "index": self.index}


class Flatten(Operator):
    """Collapse a 4-D feature map to a 2-D matrix."""

    kind = "flatten"
    launches_kernel = False

    def infer_shape(self, input_shapes: Sequence[TensorShape]) -> TensorShape:
        if len(input_shapes) != 1:
            raise ValueError(f"Flatten {self.name} expects exactly one input")
        return input_shapes[0].flattened()


class Linear(Operator):
    """Fully-connected layer (dense matrix multiplication with weights)."""

    kind = "linear"

    def __init__(
        self,
        name: str,
        inputs: Sequence[str],
        out_features: int,
        activation: str | None = None,
    ):
        super().__init__(name, inputs)
        if out_features <= 0:
            raise ValueError(f"out_features must be positive, got {out_features}")
        self.out_features = int(out_features)
        self.activation = activation

    def infer_shape(self, input_shapes: Sequence[TensorShape]) -> TensorShape:
        if len(input_shapes) != 1:
            raise ValueError(f"Linear {self.name} expects exactly one input")
        x = input_shapes[0].flattened()
        return TensorShape(x.batch, self.out_features)

    @property
    def in_features(self) -> int:
        shapes = self._require_bound()
        return shapes[0].flattened().channels

    def flops(self) -> int:
        shapes = self._require_bound()
        x = shapes[0].flattened()
        total = 2 * x.batch * x.channels * self.out_features
        if self.activation is not None:
            total += x.batch * self.out_features
        return total

    def weight_count(self) -> int:
        return self.in_features * self.out_features + self.out_features

    def merge_key(self) -> tuple[Any, ...] | None:
        return ("linear", self.activation)

    def attrs(self) -> dict[str, Any]:
        return {"out_features": self.out_features, "activation": self.activation}


class Matmul(Operator):
    """Matrix multiplication, in two forms.

    *Projection form* (one input, ``out_features`` set): a weighted dense
    layer, exactly the :class:`Linear` semantics — the historical meaning of
    this operator, used by the paper's Figure 3 example.

    *Batched form* (two inputs, ``out_features`` unset): a weightless product
    of two activation matrices ``(n, k) @ (k, m) -> (n, m)``, as produced by
    attention blocks (``Q @ K^T``, ``scores @ V``).  Until this class became a
    first-class operator it subclassed :class:`Linear`, which priced phantom
    weights (``in*out + out`` parameters that do not exist) into the memory
    model and mis-stated FLOPs for activation-activation products.
    """

    kind = "matmul"

    def __init__(
        self,
        name: str,
        inputs: Sequence[str],
        out_features: int | None = None,
        activation: str | None = None,
        weight_id: str | None = None,
    ):
        super().__init__(name, inputs)
        if out_features is not None and out_features <= 0:
            raise ValueError(f"out_features must be positive, got {out_features}")
        self.out_features = None if out_features is None else int(out_features)
        self.activation = activation
        # Identity of the learned weight matrix (the importer records the
        # foreign initializer name here).  Two projections with the same
        # weight_id provably share weights, which is what licenses CSE to
        # merge them — equal shapes alone never would.
        self.weight_id = None if weight_id is None else str(weight_id)

    @property
    def is_projection(self) -> bool:
        """Whether this matmul carries learned weights (Linear semantics)."""
        return self.out_features is not None

    def infer_shape(self, input_shapes: Sequence[TensorShape]) -> TensorShape:
        if self.is_projection:
            if len(input_shapes) != 1:
                raise ValueError(
                    f"Matmul {self.name} with out_features expects exactly one input"
                )
            x = input_shapes[0].flattened()
            return TensorShape(x.batch, self.out_features)
        if len(input_shapes) != 2:
            raise ValueError(
                f"Matmul {self.name} without out_features expects exactly two "
                f"inputs (got {len(input_shapes)})"
            )
        a, b = input_shapes
        if a.is_spatial or b.is_spatial:
            raise ValueError(
                f"Matmul {self.name} requires 2-D operands, got {a} @ {b}"
            )
        if a.channels != b.batch:
            raise ValueError(
                f"Matmul {self.name}: inner dimensions do not agree ({a} @ {b})"
            )
        return TensorShape(a.batch, b.channels)

    @property
    def in_features(self) -> int:
        shapes = self._require_bound()
        return shapes[0].flattened().channels

    def flops(self) -> int:
        shapes = self._require_bound()
        assert self.output_shape is not None
        out = self.output_shape
        if self.is_projection:
            x = shapes[0].flattened()
            total = 2 * x.batch * x.channels * self.out_features
        else:
            a = shapes[0]
            total = 2 * a.batch * a.channels * out.channels
        if self.activation is not None:
            total += out.numel()
        return total

    def weight_count(self) -> int:
        self._require_bound()
        if not self.is_projection:
            return 0
        return self.in_features * self.out_features + self.out_features

    def merge_key(self) -> tuple[Any, ...] | None:
        # Matmuls never participate in the operator-merge strategy: the
        # batched form has no weight matrix to stack, and stacking projection
        # weights is handled by Linear.
        return None

    def attrs(self) -> dict[str, Any]:
        return {
            "out_features": self.out_features,
            "activation": self.activation,
            "weight_id": self.weight_id,
        }


class Softmax(Operator):
    """Softmax over the feature dimension."""

    kind = "softmax"

    def infer_shape(self, input_shapes: Sequence[TensorShape]) -> TensorShape:
        if len(input_shapes) != 1:
            raise ValueError(f"Softmax {self.name} expects exactly one input")
        return input_shapes[0]

    def flops(self) -> int:
        shapes = self._require_bound()
        return 5 * shapes[0].numel()


# --------------------------------------------------------------------------- #
# Transformer operator family                                                  #
# --------------------------------------------------------------------------- #
class LayerNorm(Operator):
    """Layer normalisation over the feature dimension (gain + bias learned)."""

    kind = "layer_norm"

    def __init__(self, name: str, inputs: Sequence[str], epsilon: float = 1e-5):
        super().__init__(name, inputs)
        if epsilon <= 0:
            raise ValueError(f"epsilon must be positive, got {epsilon}")
        self.epsilon = float(epsilon)

    def infer_shape(self, input_shapes: Sequence[TensorShape]) -> TensorShape:
        if len(input_shapes) != 1:
            raise ValueError(f"LayerNorm {self.name} expects exactly one input")
        return input_shapes[0]

    def flops(self) -> int:
        # mean + variance (two reduction sweeps), normalise, scale and shift.
        shapes = self._require_bound()
        return 8 * shapes[0].numel()

    def weight_count(self) -> int:
        shapes = self._require_bound()
        return 2 * shapes[0].channels

    def attrs(self) -> dict[str, Any]:
        return {"epsilon": self.epsilon}


class Gelu(Operator):
    """Stand-alone GELU activation (tanh approximation cost model)."""

    kind = "gelu"

    def infer_shape(self, input_shapes: Sequence[TensorShape]) -> TensorShape:
        if len(input_shapes) != 1:
            raise ValueError(f"Gelu {self.name} expects exactly one input")
        return input_shapes[0]

    def flops(self) -> int:
        shapes = self._require_bound()
        return 8 * shapes[0].numel()


class Transpose(Operator):
    """Swap the two trailing logical axes.

    For a 2-D matrix ``(n, k)`` this is the ordinary transpose ``(k, n)``
    (attention uses it to form ``K^T``); for a 4-D feature map it swaps the
    spatial axes.  Modelled as one element copied per element moved.
    """

    kind = "transpose"

    def infer_shape(self, input_shapes: Sequence[TensorShape]) -> TensorShape:
        if len(input_shapes) != 1:
            raise ValueError(f"Transpose {self.name} expects exactly one input")
        x = input_shapes[0]
        if x.is_spatial:
            return TensorShape(x.batch, x.channels, x.width, x.height)
        return TensorShape(x.channels, x.batch)

    def flops(self) -> int:
        shapes = self._require_bound()
        return shapes[0].numel()


class Reshape(Operator):
    """Reinterpret a tensor's trailing dimensions, preserving the batch axis.

    ``dims`` gives the target non-batch dimensions: ``[channels]`` for a 2-D
    result or ``[channels, height, width]`` for a 4-D one.  Keeping the batch
    axis implicit means the element-count check keeps holding when the graph
    is re-batched via :meth:`Graph.with_batch_size`.  A reshape is a metadata
    operation: it launches no kernel.
    """

    kind = "reshape"
    launches_kernel = False

    def __init__(self, name: str, inputs: Sequence[str], dims: Sequence[int]):
        super().__init__(name, inputs)
        self.dims = tuple(int(d) for d in dims)
        if len(self.dims) not in (1, 3):
            raise ValueError(
                f"Reshape {name} dims must be [channels] or [channels, h, w], "
                f"got {list(self.dims)}"
            )
        if any(d <= 0 for d in self.dims):
            raise ValueError(f"Reshape {name} dims must be positive, got {list(self.dims)}")

    def infer_shape(self, input_shapes: Sequence[TensorShape]) -> TensorShape:
        if len(input_shapes) != 1:
            raise ValueError(f"Reshape {self.name} expects exactly one input")
        x = input_shapes[0]
        target = TensorShape(x.batch, *self.dims)
        if target.numel() != x.numel():
            raise ValueError(
                f"Reshape {self.name}: cannot view {x} as {target} "
                "(element counts differ)"
            )
        return target

    def attrs(self) -> dict[str, Any]:
        return {"dims": list(self.dims)}


class Opaque(Operator):
    """A foreign operator the importer could not map to a native kind.

    Rather than rejecting a model that contains one unsupported node, the
    frontend degrades it to this opaque placeholder: the declared output
    shape is trusted (re-batched from the first input so
    :meth:`Graph.with_batch_size` still works), the latency comes from the
    kernel profile table's default-efficiency path, and ``digest`` — a hash of
    the foreign node's original attributes — keeps the block cache and graph
    fingerprint distinct between opaque nodes that merely share an ``op_type``.
    """

    kind = "opaque"

    def __init__(
        self,
        name: str,
        inputs: Sequence[str],
        op_type: str,
        shape: str,
        digest: str = "",
        flops: int | None = None,
    ):
        super().__init__(name, inputs)
        if not op_type:
            raise ValueError("opaque operator requires the foreign op_type tag")
        self.op_type = str(op_type)
        self.declared_shape = TensorShape.parse(shape)
        self.digest = str(digest)
        self.declared_flops = None if flops is None else int(flops)

    def infer_shape(self, input_shapes: Sequence[TensorShape]) -> TensorShape:
        if not input_shapes:
            raise ValueError(f"Opaque {self.name} expects at least one input")
        return self.declared_shape.with_batch(input_shapes[0].batch)

    def flops(self) -> int:
        shapes = self._require_bound()
        assert self.output_shape is not None
        if self.declared_flops is not None:
            # Declared cost is per-sample; scale with the bound batch size.
            scale = self.output_shape.batch / self.declared_shape.batch
            return int(self.declared_flops * scale)
        # Unknown compute: assume one pass over every element touched.
        return sum(s.numel() for s in shapes) + self.output_shape.numel()

    def attrs(self) -> dict[str, Any]:
        return {
            "op_type": self.op_type,
            "shape": str(self.declared_shape),
            "digest": self.digest,
            "flops": self.declared_flops,
        }


# --------------------------------------------------------------------------- #
# Registry                                                                     #
# --------------------------------------------------------------------------- #
OP_REGISTRY: dict[str, type[Operator]] = {}


def register_operator(cls: type[Operator]) -> type[Operator]:
    """Register an operator class so it can be deserialised by kind."""
    if cls.kind in OP_REGISTRY and OP_REGISTRY[cls.kind] is not cls:
        raise ValueError(f"duplicate operator kind {cls.kind!r}")
    OP_REGISTRY[cls.kind] = cls
    return cls


for _cls in (
    Placeholder,
    Conv2d,
    SeparableConv2d,
    Pool2d,
    GlobalAvgPool,
    Relu,
    Identity,
    Add,
    Concat,
    Split,
    Flatten,
    Linear,
    Matmul,
    Softmax,
    LayerNorm,
    Gelu,
    Transpose,
    Reshape,
    Opaque,
):
    register_operator(_cls)


def operator_from_config(config: dict[str, Any]) -> Operator:
    """Reconstruct an operator from its ``to_config()`` dictionary.

    Raises
    ------
    KeyError
        If ``config["kind"]`` names no registered operator type; the message
        lists every known kind so typos in hand-written graph JSON (or a
        missing :func:`register_operator` call for a custom operator) are
        immediately actionable.
    """
    kind = config["kind"]
    if kind not in OP_REGISTRY:
        import difflib

        close = difflib.get_close_matches(str(kind), sorted(OP_REGISTRY), n=1)
        hint = f" Did you mean {close[0]!r}?" if close else ""
        raise KeyError(
            f"unknown operator kind {kind!r}; known kinds: "
            f"{', '.join(sorted(OP_REGISTRY))}.{hint} Custom operators must be "
            "registered with repro.ir.register_operator before "
            "deserialisation."
        )
    cls = OP_REGISTRY[kind]
    return cls.from_attrs(config["name"], config.get("inputs", []), config.get("attrs", {}))
