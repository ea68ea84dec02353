"""Row-streaming functional engines for every accelerated layer type.

Each engine is a generator: it consumes input rows of shape
``(channels, width)`` one at a time — exactly what flows through the FIFO
channels between fused layers — and yields output rows as soon as they
are computable.  The conventional convolution engine runs on the circular
line buffer itself; the Winograd engine consumes whole tile strips
(``m`` output rows at once) mirroring the hardware's production pattern.

Functional equivalence with :mod:`repro.nn.functional` is the key
architecture-validation property and is enforced by the test suite.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional

import numpy as np

from repro.errors import SimulationError, UnsupportedLayerError
from repro.algorithms.winograd import winograd_conv2d, winograd_transform
from repro.arch.line_buffer import stream_conv2d
from repro.nn.layers import ConvLayer, Layer, LRNLayer, PoolLayer
from repro.perf.implement import WINOGRAD_M, Algorithm


def _activate(row: np.ndarray, relu: bool) -> np.ndarray:
    return np.maximum(row, 0) if relu else row


def _release(rows: List[Optional[np.ndarray]], start: int, stop: int) -> None:
    """Drop ``rows[start:stop]``: rows below the next window's start,
    which no window reads again."""
    for i in range(max(start, 0), min(stop, len(rows))):
        rows[i] = None


def conv_stream(
    rows: Iterator[np.ndarray],
    layer: ConvLayer,
    params: Dict[str, np.ndarray],
    in_height: int,
) -> Iterator[np.ndarray]:
    """Conventional convolution engine (circular line-buffer streaming)."""
    if layer.groups != 1:
        return _grouped_conv_stream(rows, layer, params, in_height)
    return stream_conv2d(
        rows,
        params["weight"],
        params.get("bias"),
        height=in_height,
        stride=layer.stride,
        pad=layer.pad,
        relu=layer.relu,
    )


def _grouped_conv_stream(
    rows: Iterator[np.ndarray],
    layer: ConvLayer,
    params: Dict[str, np.ndarray],
    in_height: int,
) -> Iterator[np.ndarray]:
    """Grouped convolution: each channel group gets its own engine."""
    weight = params["weight"]
    bias = params.get("bias")
    groups = layer.groups
    group_in = weight.shape[1]
    group_out = weight.shape[0] // groups

    cached = list(rows)

    def slice_rows(group: int):
        for row in cached:
            yield row[group * group_in : (group + 1) * group_in]

    streams = []
    for g in range(groups):
        sub_rows = slice_rows(g)
        sub_bias = (
            bias[g * group_out : (g + 1) * group_out] if bias is not None else None
        )
        streams.append(
            stream_conv2d(
                sub_rows,
                weight[g * group_out : (g + 1) * group_out],
                sub_bias,
                height=in_height,
                stride=layer.stride,
                pad=layer.pad,
                relu=layer.relu,
            )
        )
    for parts in zip(*streams):
        yield np.concatenate(parts, axis=0)


def winograd_stream(
    rows: Iterator[np.ndarray],
    layer: ConvLayer,
    params: Dict[str, np.ndarray],
    in_height: int,
    m: int = WINOGRAD_M,
) -> Iterator[np.ndarray]:
    """Winograd engine: consumes row strips, emits ``m`` output rows per strip.

    Buffers ``alpha`` padded rows per tile strip (the deeper Winograd line
    buffer of the resource model) and runs F(m x m, r x r) on each strip.
    """
    if layer.stride != 1:
        raise SimulationError("Winograd engine requires stride 1")
    r = layer.kernel
    pad = layer.pad
    transform = winograd_transform(m, r)
    alpha = transform.alpha
    weight = params["weight"]
    bias = params.get("bias")

    padded_height = in_height + 2 * pad
    out_h = padded_height - r + 1
    if out_h < 1:
        raise SimulationError("kernel taller than padded input")
    tiles_h = -(-out_h // m)

    width: Optional[int] = None
    channels: Optional[int] = None
    # Indexed by padded row; rows no strip reads again are set to None,
    # so only the current strip's ``alpha`` rows stay resident.
    strip_rows: List[Optional[np.ndarray]] = []
    state = {"tiles": 0, "rows": 0, "done_feeding": False}

    def emit_ready() -> Iterator[np.ndarray]:
        while state["tiles"] < tiles_h:
            base = state["tiles"] * m
            need = base + alpha
            if len(strip_rows) < need and not state["done_feeding"]:
                return
            _release(strip_rows, base - m, base)
            strip = np.stack(strip_rows[base : min(need, len(strip_rows))], axis=1)
            if strip.shape[1] < alpha:
                strip = np.pad(strip, [(0, 0), (0, alpha - strip.shape[1]), (0, 0)])
            out = winograd_conv2d(
                strip,
                weight,
                bias,
                pad=0,
                m=m,
                groups=layer.groups,
                transform=transform,
            )
            rows_here = min(m, out_h - base)
            for i in range(rows_here):
                yield _activate(out[:, i, :], layer.relu)
            state["tiles"] += 1
            state["rows"] += rows_here

    for row in rows:
        row = np.asarray(row)
        if width is None:
            channels, width = row.shape
            for _ in range(pad):
                strip_rows.append(np.zeros((channels, width + 2 * pad)))
        padded_row = np.zeros((channels, width + 2 * pad))
        padded_row[:, pad : pad + width] = row
        strip_rows.append(padded_row)
        yield from emit_ready()
    if width is None:
        raise SimulationError("winograd engine received no rows")
    for _ in range(pad):
        strip_rows.append(np.zeros((channels, width + 2 * pad)))
    state["done_feeding"] = True
    yield from emit_ready()
    if state["rows"] != out_h:
        raise SimulationError(
            f"winograd engine emitted {state['rows']} of {out_h} rows"
        )


def pool_stream(
    rows: Iterator[np.ndarray], layer: PoolLayer, in_height: int
) -> Iterator[np.ndarray]:
    """Pooling engine with Caffe ceil-mode boundary handling."""
    k, s, pad = layer.kernel, layer.stride, layer.pad
    fill = -np.inf if layer.mode == "max" else 0.0
    out_h = -(-(in_height + 2 * pad - k) // s) + 1

    width: Optional[int] = None
    channels: Optional[int] = None
    acc: List[Optional[np.ndarray]] = []  # padded rows, dead ones None
    state = {"emitted": 0, "done_feeding": False}

    def fill_row() -> np.ndarray:
        assert channels is not None and width is not None
        return np.full((channels, width + 2 * pad), fill)

    def compute_row(window_rows: List[np.ndarray]) -> np.ndarray:
        window = np.stack(window_rows, axis=1)  # (C, k, Wp)
        wp = window.shape[2]
        out_w = -(-(wp - k) // s) + 1
        need_w = (out_w - 1) * s + k
        if need_w > wp:
            window = np.pad(
                window, [(0, 0), (0, 0), (0, need_w - wp)], constant_values=fill
            )
        result = np.full((window.shape[0], out_w), fill)
        for u in range(k):
            for v in range(k):
                cols = window[:, u, v : v + s * out_w : s]
                result = np.maximum(result, cols) if layer.mode == "max" else result + cols
        if layer.mode == "ave":
            result = result / (k * k)
        return result

    def emit_ready() -> Iterator[np.ndarray]:
        while state["emitted"] < out_h:
            base = state["emitted"] * s
            need = base + k
            if len(acc) < need and not state["done_feeding"]:
                return
            _release(acc, base - s, base)
            window = list(acc[base : min(need, len(acc))])
            while len(window) < k:
                window.append(fill_row())
            yield compute_row(window)
            state["emitted"] += 1

    for row in rows:
        row = np.asarray(row)
        if width is None:
            channels, width = row.shape
            for _ in range(pad):
                acc.append(fill_row())
        padded_row = np.full((channels, width + 2 * pad), fill)
        padded_row[:, pad : pad + width] = row
        acc.append(padded_row)
        yield from emit_ready()
    if width is None:
        raise SimulationError("pool engine received no rows")
    for _ in range(pad):
        acc.append(fill_row())
    state["done_feeding"] = True
    yield from emit_ready()
    if state["emitted"] != out_h:
        raise SimulationError(
            f"pool engine emitted {state['emitted']} of {out_h} rows"
        )


def lrn_stream(rows: Iterator[np.ndarray], layer: LRNLayer) -> Iterator[np.ndarray]:
    """LRN engine: purely per-pixel across channels, no row buffering."""
    half = layer.local_size // 2
    for row in rows:
        row = np.asarray(row, dtype=float)
        channels = row.shape[0]
        squared = row**2
        out = np.empty_like(row)
        for c in range(channels):
            lo = max(0, c - half)
            hi = min(channels, c + half + 1)
            scale = layer.k + (layer.alpha / layer.local_size) * squared[lo:hi].sum(
                axis=0
            )
            out[c] = row[c] / scale**layer.beta
        yield out


def inception_stream(
    rows: Iterator[np.ndarray],
    module,
    weights: Dict[str, Dict[str, np.ndarray]],
    in_height: int,
    in_shape,
) -> Iterator[np.ndarray]:
    """Inception macro engine: four branch chains, per-row concatenation.

    Every branch preserves the spatial extent (1x1, padded 3x3/5x5,
    stride-1 padded pool), so the branch streams emit rows in lockstep
    and each output row is the channel concatenation of theirs.
    """
    cached = [np.asarray(row) for row in rows]
    branch_streams = []
    branches = module.branches(in_shape)
    for branch in module.branch_order():
        stream: Iterator[np.ndarray] = iter(cached)
        height = in_height
        shape = in_shape
        for inner in branches[branch]:
            algo = (
                Algorithm.POOL
                if isinstance(inner, PoolLayer)
                else Algorithm.CONVENTIONAL
            )
            stream = layer_stream(
                stream, inner, algo, height, params=weights.get(inner.name)
            )
            shape = inner.output_shape(shape)
            height = shape[1]
        branch_streams.append(stream)
    for parts in zip(*branch_streams):
        yield np.concatenate(parts, axis=0)


def layer_stream(
    rows: Iterator[np.ndarray],
    layer: Layer,
    algorithm: Algorithm,
    in_height: int,
    params: Optional[Dict[str, np.ndarray]] = None,
) -> Iterator[np.ndarray]:
    """Dispatch a row stream through the engine chosen by the strategy."""
    if isinstance(layer, ConvLayer):
        if params is None:
            raise SimulationError(f"conv layer {layer.name!r} needs weights")
        if algorithm == Algorithm.WINOGRAD:
            return winograd_stream(rows, layer, params, in_height)
        if algorithm == Algorithm.CONVENTIONAL:
            return conv_stream(rows, layer, params, in_height)
        raise SimulationError(f"bad conv algorithm {algorithm}")
    if isinstance(layer, PoolLayer):
        return pool_stream(rows, layer, in_height)
    if isinstance(layer, LRNLayer):
        return lrn_stream(rows, layer)
    raise UnsupportedLayerError(f"no engine for {type(layer).__name__}")
