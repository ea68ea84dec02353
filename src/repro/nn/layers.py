"""Layer intermediate representation.

Each layer is an immutable dataclass describing hyper-parameters only
(no weights).  Shapes flow through :meth:`Layer.output_shape`, operation
counts through :meth:`Layer.ops` (multiply and add counted separately, the
paper's GOPS figures count both), and parameter counts through
:meth:`Layer.weight_count`.

Shapes are ``(channels, height, width)`` tuples throughout, matching
Caffe's single-image blob layout with the batch dimension dropped (the
paper evaluates single-image inference latency).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence, Tuple

from repro.errors import ShapeError

Shape = Tuple[int, int, int]


def _check_positive(name: str, value: int) -> None:
    if value <= 0:
        raise ShapeError(f"{name} must be positive, got {value}")


@dataclass(frozen=True)
class InputSpec:
    """Shape of the network input blob, ``(channels, height, width)``."""

    channels: int
    height: int
    width: int

    def __post_init__(self) -> None:
        _check_positive("channels", self.channels)
        _check_positive("height", self.height)
        _check_positive("width", self.width)

    @property
    def shape(self) -> Shape:
        return (self.channels, self.height, self.width)

    @property
    def size(self) -> int:
        """Number of elements in the blob."""
        return self.channels * self.height * self.width


@dataclass(frozen=True)
class Layer:
    """Base class for all layers.

    Attributes:
        name: Unique layer name within a network.
    """

    name: str

    #: Class-level tag used by the prototxt serializer and the codegen
    #: template registry; subclasses override.
    type_name = "layer"

    def output_shape(self, input_shape: Shape) -> Shape:
        """Shape produced when this layer consumes ``input_shape``."""
        raise NotImplementedError

    def ops(self, input_shape: Shape) -> int:
        """Total arithmetic operations (multiplies + adds) for one image."""
        raise NotImplementedError

    def weight_count(self, input_shape: Shape) -> int:
        """Number of learned parameters (weights + biases)."""
        return 0

    def validate(self, input_shape: Shape) -> None:
        """Raise :class:`ShapeError` if this layer cannot consume the shape."""
        self.output_shape(input_shape)

    def renamed(self, name: str) -> "Layer":
        """Copy of this layer with a different name."""
        return replace(self, name=name)


def conv_output_extent(extent: int, kernel: int, stride: int, pad: int) -> int:
    """Output spatial extent of a convolution/pooling window sweep.

    Uses Caffe's floor convention for convolution.  Raises if the window
    does not fit even once.
    """
    padded = extent + 2 * pad
    if padded < kernel:
        raise ShapeError(
            f"window of size {kernel} does not fit extent {extent} with pad {pad}"
        )
    return (padded - kernel) // stride + 1


def pool_output_extent(extent: int, kernel: int, stride: int, pad: int) -> int:
    """Output extent of a pooling sweep (Caffe uses ceil for pooling)."""
    padded = extent + 2 * pad
    if padded < kernel:
        raise ShapeError(
            f"pool window of size {kernel} does not fit extent {extent} with pad {pad}"
        )
    return int(math.ceil((padded - kernel) / stride)) + 1


@dataclass(frozen=True)
class ConvLayer(Layer):
    """2-D convolution layer.

    Attributes:
        out_channels: Number of kernels ``N``.
        kernel: Square kernel size ``K``.
        stride: Kernel shift stride ``S``.
        pad: Symmetric zero padding on each spatial border.
        groups: Channel groups (AlexNet-style); must divide both channel
            counts.  The paper's evaluation uses ``groups=1`` variants.
        relu: Whether a ReLU is folded into this layer ("ReLU layers can
            be easily integrated into convolutional layers", paper S7.2).
    """

    out_channels: int
    kernel: int
    stride: int = 1
    pad: int = 0
    groups: int = 1
    relu: bool = True

    type_name = "Convolution"

    def __post_init__(self) -> None:
        _check_positive("out_channels", self.out_channels)
        _check_positive("kernel", self.kernel)
        _check_positive("stride", self.stride)
        _check_positive("groups", self.groups)
        if self.pad < 0:
            raise ShapeError(f"pad must be non-negative, got {self.pad}")
        if self.out_channels % self.groups:
            raise ShapeError(
                f"out_channels {self.out_channels} not divisible by groups {self.groups}"
            )

    def output_shape(self, input_shape: Shape) -> Shape:
        channels, height, width = input_shape
        if channels % self.groups:
            raise ShapeError(
                f"in_channels {channels} not divisible by groups {self.groups}"
            )
        out_h = conv_output_extent(height, self.kernel, self.stride, self.pad)
        out_w = conv_output_extent(width, self.kernel, self.stride, self.pad)
        return (self.out_channels, out_h, out_w)

    def macs(self, input_shape: Shape) -> int:
        """Multiply-accumulate count (the paper's unit of convolution work)."""
        channels, _, _ = input_shape
        _, out_h, out_w = self.output_shape(input_shape)
        per_output = (channels // self.groups) * self.kernel * self.kernel
        return self.out_channels * out_h * out_w * per_output

    def ops(self, input_shape: Shape) -> int:
        # One multiply plus one add per MAC, matching the 2x convention
        # used for the paper's GOPS numbers.
        return 2 * self.macs(input_shape)

    def weight_count(self, input_shape: Shape) -> int:
        channels, _, _ = input_shape
        kernels = self.out_channels * (channels // self.groups)
        return kernels * self.kernel * self.kernel + self.out_channels

    @property
    def winograd_compatible_stride(self) -> bool:
        """Winograd minimal filtering requires unit stride (paper S2.1)."""
        return self.stride == 1


@dataclass(frozen=True)
class PoolLayer(Layer):
    """Max or average pooling layer."""

    kernel: int
    stride: int = 1
    pad: int = 0
    mode: str = "max"

    type_name = "Pooling"

    def __post_init__(self) -> None:
        _check_positive("kernel", self.kernel)
        _check_positive("stride", self.stride)
        if self.pad < 0:
            raise ShapeError(f"pad must be non-negative, got {self.pad}")
        if self.mode not in ("max", "ave"):
            raise ShapeError(f"pool mode must be 'max' or 'ave', got {self.mode!r}")

    def output_shape(self, input_shape: Shape) -> Shape:
        channels, height, width = input_shape
        out_h = pool_output_extent(height, self.kernel, self.stride, self.pad)
        out_w = pool_output_extent(width, self.kernel, self.stride, self.pad)
        return (channels, out_h, out_w)

    def ops(self, input_shape: Shape) -> int:
        # One comparison/add per window element per output element.
        out_c, out_h, out_w = self.output_shape(input_shape)
        return out_c * out_h * out_w * self.kernel * self.kernel


@dataclass(frozen=True)
class LRNLayer(Layer):
    """Local response normalization across channels (AlexNet)."""

    local_size: int = 5
    alpha: float = 1e-4
    beta: float = 0.75
    k: float = 1.0

    type_name = "LRN"

    def __post_init__(self) -> None:
        _check_positive("local_size", self.local_size)
        if self.local_size % 2 == 0:
            raise ShapeError(f"LRN local_size must be odd, got {self.local_size}")

    def output_shape(self, input_shape: Shape) -> Shape:
        return input_shape

    def ops(self, input_shape: Shape) -> int:
        channels, height, width = input_shape
        # square + windowed sum + scale + pow approximated as local_size + 3
        return channels * height * width * (self.local_size + 3)


@dataclass(frozen=True)
class ReLULayer(Layer):
    """Standalone rectified linear unit (usually folded into ConvLayer)."""

    type_name = "ReLU"

    def output_shape(self, input_shape: Shape) -> Shape:
        return input_shape

    def ops(self, input_shape: Shape) -> int:
        channels, height, width = input_shape
        return channels * height * width


@dataclass(frozen=True)
class FCLayer(Layer):
    """Fully connected (inner product) layer.

    The paper omits FC layers from the accelerator ("the FC layers use
    very small feature map compared with kernel weight"), but they are part
    of the model zoo definitions and the functional reference.
    """

    out_features: int
    relu: bool = True

    type_name = "InnerProduct"

    def __post_init__(self) -> None:
        _check_positive("out_features", self.out_features)

    def output_shape(self, input_shape: Shape) -> Shape:
        return (self.out_features, 1, 1)

    def in_features(self, input_shape: Shape) -> int:
        channels, height, width = input_shape
        return channels * height * width

    def ops(self, input_shape: Shape) -> int:
        return 2 * self.out_features * self.in_features(input_shape)

    def weight_count(self, input_shape: Shape) -> int:
        return self.out_features * self.in_features(input_shape) + self.out_features


@dataclass(frozen=True)
class ConcatLayer(Layer):
    """Channel concatenation join (multi-input; DAG IR only).

    Joins the outputs of several producer nodes along the channel axis —
    the merge point of an Inception module's branches.  Spatial extents
    of every input must agree.  In the channel-major ``(C, H, W)``
    on-chip/DRAM layout the branches write adjacent channel ranges, so a
    concat is pure address aliasing: zero arithmetic, zero extra DRAM
    traffic (the optimizer prices it that way; see
    :mod:`repro.optimizer.graph_dp`).

    Only meaningful inside a :class:`repro.nn.graph.Graph`; a linear
    :class:`~repro.nn.network.Network` cannot host a join.
    """

    type_name = "Concat"

    def multi_output_shape(self, input_shapes: Sequence[Shape]) -> Shape:
        """Shape produced when joining ``input_shapes`` (>= 2 inputs)."""
        if len(input_shapes) < 2:
            raise ShapeError(
                f"concat {self.name!r} needs at least 2 inputs, "
                f"got {len(input_shapes)}"
            )
        _, height, width = input_shapes[0]
        for shape in input_shapes[1:]:
            if shape[1:] != (height, width):
                raise ShapeError(
                    f"concat {self.name!r} inputs disagree on spatial size: "
                    f"{input_shapes[0]} vs {shape}"
                )
        return (sum(s[0] for s in input_shapes), height, width)

    def multi_ops(self, input_shapes: Sequence[Shape]) -> int:
        """Concat is free: channel-adjacent writes, no arithmetic."""
        return 0

    def output_shape(self, input_shape: Shape) -> Shape:
        raise ShapeError(
            f"concat {self.name!r} is a multi-input join; it cannot sit in "
            f"a linear chain (use repro.nn.graph.Graph)"
        )

    def ops(self, input_shape: Shape) -> int:
        return 0


@dataclass(frozen=True)
class EltwiseLayer(Layer):
    """Element-wise join (sum or max) of several producers — ResNet skips.

    All input shapes must be identical.  Unlike a concat, the combine is
    real arithmetic over full feature maps, so the optimizer prices an
    eltwise join's DRAM round trip (read every input, write the output).

    Only meaningful inside a :class:`repro.nn.graph.Graph`.
    """

    operation: str = "sum"

    type_name = "Eltwise"

    def __post_init__(self) -> None:
        if self.operation not in ("sum", "max"):
            raise ShapeError(
                f"eltwise operation must be 'sum' or 'max', "
                f"got {self.operation!r}"
            )

    def multi_output_shape(self, input_shapes: Sequence[Shape]) -> Shape:
        """Shape produced when joining ``input_shapes`` (>= 2 inputs)."""
        if len(input_shapes) < 2:
            raise ShapeError(
                f"eltwise {self.name!r} needs at least 2 inputs, "
                f"got {len(input_shapes)}"
            )
        first = input_shapes[0]
        for shape in input_shapes[1:]:
            if shape != first:
                raise ShapeError(
                    f"eltwise {self.name!r} inputs disagree on shape: "
                    f"{first} vs {shape}"
                )
        return first

    def multi_ops(self, input_shapes: Sequence[Shape]) -> int:
        """One add/compare per element per extra input."""
        c, h, w = input_shapes[0]
        return (len(input_shapes) - 1) * c * h * w

    def output_shape(self, input_shape: Shape) -> Shape:
        raise ShapeError(
            f"eltwise {self.name!r} is a multi-input join; it cannot sit in "
            f"a linear chain (use repro.nn.graph.Graph)"
        )

    def ops(self, input_shape: Shape) -> int:
        c, h, w = input_shape
        return c * h * w


#: Multi-input join layer classes of the DAG IR.
JOIN_LAYER_TYPES = (ConcatLayer, EltwiseLayer)


def is_join(layer: Layer) -> bool:
    """True if the layer merges multiple producer tensors (graph IR)."""
    return isinstance(layer, JOIN_LAYER_TYPES)


@dataclass(frozen=True)
class SoftmaxLayer(Layer):
    """Softmax over the channel dimension."""

    type_name = "Softmax"

    def output_shape(self, input_shape: Shape) -> Shape:
        return input_shape

    def ops(self, input_shape: Shape) -> int:
        channels, height, width = input_shape
        # exp + sum + divide per element
        return 3 * channels * height * width


def is_accelerated(layer: Layer) -> bool:
    """True if the layer runs on the FPGA datapath (not host-side FC/softmax).

    Conv, pool and LRN layers have engine templates (paper S6); composite
    Inception modules are accelerated as macro-layers (paper S7.1); the
    DAG IR's concat/eltwise joins execute on-device (address aliasing /
    an adder tree) as part of their parallel block.
    """
    from repro.nn.modules import InceptionModule

    return isinstance(
        layer,
        (ConvLayer, PoolLayer, LRNLayer, InceptionModule) + JOIN_LAYER_TYPES,
    )

