"""Numpy reference implementations of every layer type.

These are the functional oracle for the accelerator: both the Winograd
engine and the cycle-approximate simulator are validated against the
outputs computed here.  The convolution lowers to im2col + GEMM, one
matrix product per block of output rows, so its time tracks its MACs
and its temporaries stay bounded; the scalar-loop
:func:`repro.algorithms.direct.direct_conv2d_naive` is its independent
check.

Tensors are ``(channels, height, width)`` float arrays.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.errors import ShapeError, UnsupportedLayerError
from repro.nn.layers import (
    ConcatLayer,
    ConvLayer,
    EltwiseLayer,
    FCLayer,
    Layer,
    LRNLayer,
    PoolLayer,
    ReLULayer,
    SoftmaxLayer,
    is_join,
)
from repro.nn.modules import InceptionModule
from repro.nn.network import Network


#: Byte cap on one block of :func:`conv2d`'s im2col columns.  Each GEMM
#: covers as many output rows as fit, so temporaries stay bounded while
#: every product is still large enough to run at BLAS speed.
_COLUMN_BLOCK_BYTES = 4 * 2**20


def pad_spatial(data: np.ndarray, pad: int, value: float = 0.0) -> np.ndarray:
    """Zero-pad the two trailing (spatial) dimensions symmetrically."""
    if pad == 0:
        return data
    if pad < 0:
        raise ShapeError(f"pad must be non-negative, got {pad}")
    return np.pad(
        data,
        [(0, 0)] * (data.ndim - 2) + [(pad, pad), (pad, pad)],
        mode="constant",
        constant_values=value,
    )


def conv2d(
    data: np.ndarray,
    weights: np.ndarray,
    bias: Optional[np.ndarray] = None,
    stride: int = 1,
    pad: int = 0,
    groups: int = 1,
) -> np.ndarray:
    """Direct 2-D convolution (cross-correlation, Caffe semantics).

    Each channel group is one im2col GEMM, ``(N_g, M_g*K*K)`` weights by
    ``(M_g*K*K, rows*W')`` columns, run per block of output rows so the
    column block stays near ``_COLUMN_BLOCK_BYTES``.

    Args:
        data: Input of shape ``(M, H, W)``.
        weights: Kernels of shape ``(N, M // groups, K, K)``.
        bias: Optional per-output-channel bias of shape ``(N,)``.
        stride: Window stride ``S``.
        pad: Symmetric zero padding.
        groups: Channel groups.

    Returns:
        Output of shape ``(N, H', W')``.
    """
    if data.ndim != 3 or weights.ndim != 4:
        raise ShapeError("conv2d expects (M,H,W) data and (N,M/g,K,K) weights")
    in_channels = data.shape[0]
    out_channels, group_channels, kernel_h, kernel_w = weights.shape
    if kernel_h != kernel_w:
        raise ShapeError("only square kernels are supported")
    if in_channels % groups or out_channels % groups:
        raise ShapeError("channels not divisible by groups")
    if group_channels != in_channels // groups:
        raise ShapeError(
            f"weight channel dim {group_channels} != in_channels/groups "
            f"{in_channels // groups}"
        )
    padded = pad_spatial(data, pad)
    _, height, width = padded.shape
    kernel = kernel_h
    if height < kernel or width < kernel:
        raise ShapeError("kernel larger than padded input")
    out_h = (height - kernel) // stride + 1
    out_w = (width - kernel) // stride + 1

    dtype = np.result_type(data, weights)
    out = np.empty((out_channels, out_h, out_w), dtype=dtype)
    group_out = out_channels // groups
    taps = group_channels * kernel * kernel
    block_rows = max(1, _COLUMN_BLOCK_BYTES // (taps * out_w * dtype.itemsize))
    for g in range(groups):
        d = padded[g * group_channels : (g + 1) * group_channels]
        w = weights[g * group_out : (g + 1) * group_out].reshape(group_out, taps)
        w = w.astype(dtype, copy=False)
        for top in range(0, out_h, block_rows):
            rows = min(block_rows, out_h - top)
            # Row (m, u, v) of the column block holds input channel m
            # under kernel tap (u, v) for every output pixel of the block,
            # matching the (M_g, K, K) order of each weight row.
            columns = np.empty((group_channels, kernel, kernel, rows, out_w), dtype)
            for u in range(kernel):
                first = u + stride * top
                for v in range(kernel):
                    columns[:, u, v] = d[
                        :,
                        first : first + stride * rows : stride,
                        v : v + stride * out_w : stride,
                    ]
            block = out[g * group_out : (g + 1) * group_out, top : top + rows]
            np.matmul(
                w,
                columns.reshape(taps, rows * out_w),
                out=block.reshape(group_out, rows * out_w),
            )
    if bias is not None:
        out += bias.reshape(-1, 1, 1)
    return out


def relu(data: np.ndarray) -> np.ndarray:
    """Rectified linear unit."""
    return np.maximum(data, 0)


def max_pool2d(data: np.ndarray, kernel: int, stride: int, pad: int = 0) -> np.ndarray:
    """Max pooling with Caffe's ceil output-size convention."""
    return _pool2d(data, kernel, stride, pad, mode="max")


def ave_pool2d(data: np.ndarray, kernel: int, stride: int, pad: int = 0) -> np.ndarray:
    """Average pooling with Caffe's ceil output-size convention."""
    return _pool2d(data, kernel, stride, pad, mode="ave")


def _pool2d(data: np.ndarray, kernel: int, stride: int, pad: int, mode: str) -> np.ndarray:
    if data.ndim != 3:
        raise ShapeError("pooling expects (C,H,W) data")
    channels, height, width = data.shape
    out_h = -(-(height + 2 * pad - kernel) // stride) + 1
    out_w = -(-(width + 2 * pad - kernel) // stride) + 1
    fill = -np.inf if mode == "max" else 0.0
    # Taps only read the (possibly uncopied) input; ``out`` accumulates.
    padded = pad_spatial(np.asarray(data, dtype=float), pad, value=fill)
    # Extend so the last (partial) window always has kernel elements to index.
    need_h = (out_h - 1) * stride + kernel
    need_w = (out_w - 1) * stride + kernel
    extra_h = max(0, need_h - padded.shape[1])
    extra_w = max(0, need_w - padded.shape[2])
    if extra_h or extra_w:
        padded = np.pad(
            padded,
            [(0, 0), (0, extra_h), (0, extra_w)],
            mode="constant",
            constant_values=fill,
        )
    out = np.full((channels, out_h, out_w), fill)
    accumulate = np.maximum if mode == "max" else np.add
    for u in range(kernel):
        for v in range(kernel):
            window = padded[:, u : u + stride * out_h : stride, v : v + stride * out_w : stride]
            accumulate(out, window, out=out)
    if mode == "ave":
        # Caffe averages over the full kernel area including padding.
        out /= kernel * kernel
    return out


def lrn(
    data: np.ndarray,
    local_size: int = 5,
    alpha: float = 1e-4,
    beta: float = 0.75,
    k: float = 1.0,
) -> np.ndarray:
    """Across-channel local response normalization (AlexNet).

    Channel ``c`` is scaled by the sum of squares over channels
    ``[c - local_size // 2, c + local_size // 2]``, clipped to the
    tensor.  The squares sit once in a buffer padded with ``half`` zero
    channels at each end, so every window is the same run of channel
    offsets: each sum adds ``2 * half + 1`` shifted slices of the
    buffer, in the order a per-channel sum over the window takes.
    (Differencing one cumulative sum instead loses precision where
    early channels dwarf a window: 3e-10 relative on 1e6-scale inputs.)
    """
    if data.ndim != 3:
        raise ShapeError("lrn expects (C,H,W) data")
    channels = data.shape[0]
    half = local_size // 2
    squared = np.zeros((channels + 2 * half,) + data.shape[1:])
    np.square(data, out=squared[half : half + channels], dtype=np.float64)
    out = squared[:channels].copy()
    for offset in range(1, 2 * half + 1):
        out += squared[offset : offset + channels]
    out *= alpha / local_size
    out += k
    np.power(out, beta, out=out)
    return np.divide(data, out, out=out)


def fc(data: np.ndarray, weights: np.ndarray, bias: Optional[np.ndarray] = None) -> np.ndarray:
    """Fully connected layer: flatten then matrix-vector product."""
    flat = data.reshape(-1)
    if weights.shape[1] != flat.shape[0]:
        raise ShapeError(
            f"fc weights expect {weights.shape[1]} inputs, got {flat.shape[0]}"
        )
    out = weights @ flat
    if bias is not None:
        out = out + bias
    return out.reshape(-1, 1, 1)


def softmax(data: np.ndarray) -> np.ndarray:
    """Numerically stable softmax over the channel dimension."""
    shifted = data - data.max(axis=0, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=0, keepdims=True)


def _conv_params(
    layer: ConvLayer, input_shape, rng: np.random.Generator, scale: float
) -> Dict[str, np.ndarray]:
    in_channels = input_shape[0] // layer.groups
    shape = (layer.out_channels, in_channels, layer.kernel, layer.kernel)
    return {
        "weight": rng.normal(0, scale, shape),
        "bias": rng.normal(0, scale, (layer.out_channels,)),
    }


def init_weights(
    network: Network, rng: Optional[np.random.Generator] = None, scale: float = 0.1
) -> Dict[str, Dict[str, np.ndarray]]:
    """Random (shape-faithful) weights for every parameterized layer.

    Inception modules contribute one entry per *inner* conv layer, keyed
    by its dotted name (e.g. ``inception3a.b3``).
    """
    rng = rng or np.random.default_rng(0)
    weights: Dict[str, Dict[str, np.ndarray]] = {}
    for info in network:
        layer = info.layer
        if isinstance(layer, ConvLayer):
            weights[layer.name] = _conv_params(layer, info.input_shape, rng, scale)
        elif isinstance(layer, InceptionModule):
            for inner, shape in layer.inner_layers(info.input_shape):
                if isinstance(inner, ConvLayer):
                    weights[inner.name] = _conv_params(inner, shape, rng, scale)
        elif isinstance(layer, FCLayer):
            in_features = layer.in_features(info.input_shape)
            weights[layer.name] = {
                "weight": rng.normal(0, scale, (layer.out_features, in_features)),
                "bias": rng.normal(0, scale, (layer.out_features,)),
            }
    return weights


def forward_inception(
    module: InceptionModule,
    data: np.ndarray,
    weights: Dict[str, Dict[str, np.ndarray]],
) -> np.ndarray:
    """Run an Inception module: four branches, channel concatenation."""
    input_shape = tuple(data.shape)
    outputs = []
    branches = module.branches(input_shape)
    for branch in module.branch_order():
        current = data
        for inner in branches[branch]:
            current = forward_layer(inner, current, weights.get(inner.name))
        outputs.append(current)
    return np.concatenate(outputs, axis=0)


def forward_layer(
    layer: Layer, data: np.ndarray, params: Optional[Dict[str, np.ndarray]] = None
) -> np.ndarray:
    """Run one layer on ``data`` with optional parameters.

    Inception modules need the *full* weight dict (their inner convs are
    keyed individually); use :func:`forward` or pass it as ``params``.
    """
    if isinstance(layer, InceptionModule):
        if params is None:
            raise UnsupportedLayerError(
                f"inception module {layer.name!r} needs the weight dict"
            )
        return forward_inception(layer, data, params)
    if isinstance(layer, ConvLayer):
        if params is None:
            raise UnsupportedLayerError(f"conv layer {layer.name!r} needs weights")
        out = conv2d(
            data,
            params["weight"],
            params.get("bias"),
            stride=layer.stride,
            pad=layer.pad,
            groups=layer.groups,
        )
        # The conv output is fresh, so its ReLU may overwrite it.
        return np.maximum(out, 0, out=out) if layer.relu else out
    if isinstance(layer, PoolLayer):
        pool = max_pool2d if layer.mode == "max" else ave_pool2d
        return pool(data, layer.kernel, layer.stride, layer.pad)
    if isinstance(layer, LRNLayer):
        return lrn(data, layer.local_size, layer.alpha, layer.beta, layer.k)
    if isinstance(layer, ReLULayer):
        return relu(data)
    if isinstance(layer, FCLayer):
        if params is None:
            raise UnsupportedLayerError(f"fc layer {layer.name!r} needs weights")
        out = fc(data, params["weight"], params.get("bias"))
        return relu(out) if layer.relu else out
    if isinstance(layer, SoftmaxLayer):
        return softmax(data)
    raise UnsupportedLayerError(f"no reference implementation for {type(layer).__name__}")


def forward_join(layer: Layer, inputs) -> np.ndarray:
    """Run a multi-input join layer (concat / eltwise) on its inputs."""
    blobs = list(inputs)
    if len(blobs) < 2:
        raise ShapeError(
            f"join {layer.name!r} needs at least 2 inputs, got {len(blobs)}"
        )
    if isinstance(layer, ConcatLayer):
        return np.concatenate(blobs, axis=0)
    if isinstance(layer, EltwiseLayer):
        out = blobs[0]
        for blob in blobs[1:]:
            if blob.shape != out.shape:
                raise ShapeError(
                    f"eltwise {layer.name!r} inputs disagree on shape: "
                    f"{out.shape} vs {blob.shape}"
                )
            out = np.maximum(out, blob) if layer.operation == "max" else out + blob
        return out
    raise UnsupportedLayerError(
        f"layer {layer.name!r} ({type(layer).__name__}) is not a join"
    )


def init_graph_weights(
    graph, rng: Optional[np.random.Generator] = None, scale: float = 0.1
) -> Dict[str, Dict[str, np.ndarray]]:
    """Random (shape-faithful) weights for every parameterized graph node."""
    rng = rng or np.random.default_rng(0)
    weights: Dict[str, Dict[str, np.ndarray]] = {}
    for info in graph:
        layer = info.layer
        if is_join(layer):
            continue
        shape = info.input_shapes[0]
        if isinstance(layer, ConvLayer):
            weights[layer.name] = _conv_params(layer, shape, rng, scale)
        elif isinstance(layer, FCLayer):
            in_features = layer.in_features(shape)
            weights[layer.name] = {
                "weight": rng.normal(0, scale, (layer.out_features, in_features)),
                "bias": rng.normal(0, scale, (layer.out_features,)),
            }
    return weights


def forward_graph(
    graph,
    data: np.ndarray,
    weights: Optional[Dict[str, Dict[str, np.ndarray]]] = None,
    collect: bool = False,
):
    """Run a whole :class:`~repro.nn.graph.Graph` on ``data``.

    The DAG sibling of :func:`forward`: activations propagate in the
    graph's deterministic topological order, join nodes merging their
    producers' blobs (channel concat / element-wise combine).

    Args:
        graph: The graph to evaluate.
        data: Input blob of shape ``graph.input_spec.shape``.
        weights: Per-node parameter dict; generated randomly if omitted.
        collect: If set, return a dict of every node activation instead
            of just the sink output.
    """
    if tuple(data.shape) != graph.input_spec.shape:
        raise ShapeError(
            f"input shape {data.shape} != graph input {graph.input_spec.shape}"
        )
    if weights is None:
        weights = init_graph_weights(graph)
    # Without ``collect``, a blob is dropped after its last consumer ran.
    last_use = {ref: index for index, info in enumerate(graph) for ref in info.inputs}
    activations: Dict[str, np.ndarray] = {graph.input_name: data}
    current = data
    for index, info in enumerate(graph):
        if is_join(info.layer):
            current = forward_join(
                info.layer, (activations[ref] for ref in info.inputs)
            )
        else:
            current = forward_layer(
                info.layer, activations[info.inputs[0]], weights.get(info.name)
            )
        activations[info.name] = current
        if not collect:
            for ref in set(info.inputs):
                if last_use[ref] == index:
                    del activations[ref]
    if collect:
        activations.pop(graph.input_name)
        return activations
    return current


def forward(
    network: Network,
    data: np.ndarray,
    weights: Optional[Dict[str, Dict[str, np.ndarray]]] = None,
    collect: bool = False,
):
    """Run the whole network on ``data``.

    Args:
        network: The network to evaluate.
        data: Input blob of shape ``network.input_spec.shape``.
        weights: Per-layer parameter dict; generated randomly if omitted.
        collect: If set, return an ordered dict of every intermediate
            activation instead of just the final output.
    """
    if tuple(data.shape) != network.input_spec.shape:
        raise ShapeError(
            f"input shape {data.shape} != network input {network.input_spec.shape}"
        )
    if weights is None:
        weights = init_weights(network)
    activations: Dict[str, np.ndarray] = {}
    current = data
    for info in network:
        if isinstance(info.layer, InceptionModule):
            current = forward_inception(info.layer, current, weights)
        else:
            current = forward_layer(info.layer, current, weights.get(info.name))
        if collect:
            activations[info.name] = current
    return activations if collect else current
