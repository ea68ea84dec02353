"""Circular line buffer (paper Section 4.2).

The fusion architecture replaces Alwani et al.'s tile-based reuse buffers
with a circular line buffer of ``K + S`` image rows per layer: rows
``[1, K]`` are convolved while the next ``S`` rows stream in, then the
window advances by ``S`` rows modulo ``K + S``.  Data reuse across
overlapping windows falls out of the addressing with no boundary-case
management.

This module provides both the *functional* model — a
:class:`CircularLineBuffer` whose row-streaming convolution
(:func:`stream_conv2d`) agrees with the batch reference within 1e-9, proving
the architecture computes the right thing — and the *cost* model
(:func:`line_buffer_brams`, :func:`line_buffer_bits`) used by the
optimizer's ``implement()`` evaluator.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Tuple

import numpy as np

from repro.errors import ShapeError, SimulationError

#: Usable bits in one Xilinx BRAM18K tile.
BRAM18K_BITS = 18 * 1024


class CircularLineBuffer:
    """A circular buffer of ``depth`` image rows across all channels.

    Rows are pushed one at a time; once at least ``window`` rows are
    resident, :meth:`window_rows` yields the oldest ``window`` rows in
    arrival order (the convolution working set).  :meth:`advance`
    retires the oldest ``stride`` rows, exactly as the hardware buffer
    reuses lines ``[1+S, (K+S) % (K+S)]`` (paper Figure 2b).
    """

    def __init__(self, depth: int, window: int, row_shape: Tuple[int, ...]):
        if depth < window:
            raise ShapeError(f"depth {depth} smaller than window {window}")
        if window < 1:
            raise ShapeError(f"window must be positive, got {window}")
        self._depth = depth
        self._window = window
        self._row_shape = tuple(row_shape)
        self._storage: List[Optional[np.ndarray]] = [None] * depth
        self._head = 0  # physical slot of the logically oldest row
        self._count = 0  # rows currently resident
        self._pushed = 0

    @property
    def depth(self) -> int:
        return self._depth

    @property
    def window(self) -> int:
        return self._window

    @property
    def resident_rows(self) -> int:
        return self._count

    @property
    def total_pushed(self) -> int:
        return self._pushed

    @property
    def has_window(self) -> bool:
        """True when a full convolution window is available."""
        return self._count >= self._window

    @property
    def is_full(self) -> bool:
        return self._count == self._depth

    def push_row(self, row: np.ndarray) -> None:
        """Append the next image row; raises if the buffer is full."""
        row = np.asarray(row)
        if tuple(row.shape) != self._row_shape:
            raise ShapeError(
                f"row shape {row.shape} != expected {self._row_shape}"
            )
        if self.is_full:
            raise SimulationError(
                "line buffer overflow: push without matching advance"
            )
        slot = (self._head + self._count) % self._depth
        self._storage[slot] = row
        self._count += 1
        self._pushed += 1

    def window_rows(self) -> List[np.ndarray]:
        """The oldest ``window`` rows, oldest first."""
        if not self.has_window:
            raise SimulationError(
                f"window of {self._window} rows requested but only "
                f"{self._count} resident"
            )
        rows = []
        for offset in range(self._window):
            slot = (self._head + offset) % self._depth
            row = self._storage[slot]
            assert row is not None
            rows.append(row)
        return rows

    def advance(self, stride: int) -> None:
        """Retire the ``stride`` oldest rows (window slides down)."""
        if stride < 1:
            raise ShapeError(f"stride must be positive, got {stride}")
        if stride > self._count:
            raise SimulationError(
                f"cannot retire {stride} rows, only {self._count} resident"
            )
        for offset in range(stride):
            self._storage[(self._head + offset) % self._depth] = None
        self._head = (self._head + stride) % self._depth
        self._count -= stride


def stream_conv2d(
    row_source: Iterator[np.ndarray],
    weights: np.ndarray,
    bias: Optional[np.ndarray],
    height: int,
    stride: int = 1,
    pad: int = 0,
    relu: bool = False,
    extra_depth: int = 0,
) -> Iterator[np.ndarray]:
    """Row-streaming convolution through a circular line buffer.

    Consumes input rows of shape ``(M, W)`` one at a time and yields
    output rows of shape ``(N, W')`` as soon as they are computable —
    the exact production discipline of the fused pipeline.  Padding rows
    are injected locally so upstream layers never see the halo.

    Args:
        row_source: Iterator over the ``height`` input rows.
        weights: ``(N, M, K, K)`` kernels.
        bias: Optional ``(N,)`` bias.
        height: Number of input rows the source will produce.
        stride: Kernel stride ``S``.
        pad: Symmetric padding.
        relu: Apply ReLU to each output row (conv+ReLU integration).
        extra_depth: Additional buffer lines beyond ``K + S`` (Winograd
            engines buffer ``alpha + m`` lines; see perf models).
    """
    n_out, n_in, kernel, kernel2 = weights.shape
    if kernel != kernel2:
        raise ShapeError("only square kernels supported")
    depth = kernel + stride + extra_depth
    padded_height = height + 2 * pad

    first_row = None
    width = None
    buffer = None

    def padded_rows() -> Iterator[np.ndarray]:
        nonlocal width
        produced = 0
        for row in row_source:
            row = np.asarray(row)
            if width is None:
                width = row.shape[1]
            for _ in range(pad if produced == 0 else 0):
                yield np.zeros((n_in, width + 2 * pad))
            padded = np.zeros((n_in, width + 2 * pad))
            padded[:, pad : pad + width] = row
            produced += 1
            yield padded
        if width is None:
            raise ShapeError("row source produced no rows")
        for _ in range(pad):
            yield np.zeros((n_in, width + 2 * pad))

    out_rows = (padded_height - kernel) // stride + 1
    emitted = 0
    base = 0  # padded-row index of the oldest resident row
    buffer = None
    for row in padded_rows():
        if buffer is None:
            buffer = CircularLineBuffer(depth, kernel, row.shape)
        if buffer.is_full:
            # The oldest rows below the next window's start are dead.
            retire = min(buffer.resident_rows - 1, emitted * stride - base)
            if retire <= 0:
                raise SimulationError("line buffer deadlock: no retirable rows")
            buffer.advance(retire)
            base += retire
        buffer.push_row(row)
        while emitted < out_rows and buffer.total_pushed >= emitted * stride + kernel:
            start = emitted * stride
            if start > base:
                buffer.advance(start - base)
                base = start
            window = np.stack(buffer.window_rows(), axis=1)  # (M, K, Wp)
            out_width = (window.shape[2] - kernel) // stride + 1
            out = np.zeros((n_out, out_width))
            for u in range(kernel):
                for v in range(kernel):
                    cols = window[:, u, v : v + stride * out_width : stride]
                    out += weights[:, :, u, v] @ cols
            if bias is not None:
                out += bias.reshape(-1, 1)
            if relu:
                out = np.maximum(out, 0)
            yield out
            emitted += 1
    if emitted != out_rows:
        raise SimulationError(
            f"stream ended after {emitted} of {out_rows} output rows"
        )


def line_buffer_bits(
    lines: int, width: int, channels: int, element_bits: int = 16
) -> int:
    """Storage bits for a ``lines x width x channels`` line buffer."""
    if min(lines, width, channels, element_bits) < 1:
        raise ShapeError("line buffer dimensions must be positive")
    return lines * width * channels * element_bits


def line_buffer_brams(
    lines: int, width: int, channels: int, element_bits: int = 16
) -> int:
    """BRAM18K tiles for a line buffer.

    The HLS templates partition the buffer by line so each of the ``K``
    window rows can be read every cycle; hence at least one BRAM per
    line, and enough tiles in total for the bits.
    """
    bits = line_buffer_bits(lines, width, channels, element_bits)
    return max(lines, -(-bits // BRAM18K_BITS))


def buffer_brams(bits: int) -> int:
    """BRAM18K tiles for a plain (weight/FIFO) buffer of ``bits`` bits."""
    if bits < 0:
        raise ShapeError("buffer bits must be non-negative")
    if bits == 0:
        return 0
    return -(-bits // BRAM18K_BITS)
