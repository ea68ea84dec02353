"""The conventional (direct) convolution algorithm.

A thin, explicitly-looped implementation of paper equation (1): kernels
slide over the input feature maps with stride ``S`` and every output
element is an ``M x K x K`` dot product.  This is the bit-exact model of
what the conventional hardware engine computes, kept deliberately simple;
:func:`repro.nn.functional.conv2d` is the fast equivalent (im2col + one
GEMM per block of output rows) used as the oracle in tests, and agrees
with it up to floating-point summation order.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import AlgorithmError
from repro.nn.functional import conv2d


def direct_conv2d(
    data: np.ndarray,
    weights: np.ndarray,
    bias: Optional[np.ndarray] = None,
    stride: int = 1,
    pad: int = 0,
    groups: int = 1,
) -> np.ndarray:
    """Direct convolution (paper eq. 1); see :func:`repro.nn.functional.conv2d`."""
    if stride < 1:
        raise AlgorithmError(f"stride must be positive, got {stride}")
    return conv2d(data, weights, bias, stride=stride, pad=pad, groups=groups)


def direct_conv2d_naive(
    data: np.ndarray,
    weights: np.ndarray,
    bias: Optional[np.ndarray] = None,
    stride: int = 1,
    pad: int = 0,
) -> np.ndarray:
    """Scalar-loop transliteration of paper equation (1).

    Exists so the vectorized paths can be validated against code whose
    structure matches the formula one-to-one.  Quadratically slow — use
    only on small tensors.
    """
    if data.ndim != 3 or weights.ndim != 4:
        raise AlgorithmError("expects (M,H,W) data and (N,M,K,K) weights")
    if weights.shape[1] != data.shape[0]:
        raise AlgorithmError("naive variant does not support groups")
    padded = np.pad(data.astype(float), [(0, 0), (pad, pad), (pad, pad)])
    n_out, n_in, kernel, _ = weights.shape
    _, height, width = padded.shape
    out_h = (height - kernel) // stride + 1
    out_w = (width - kernel) // stride + 1
    out = np.zeros((n_out, out_h, out_w))
    for n in range(n_out):
        for i in range(out_h):
            for j in range(out_w):
                acc = 0.0
                for m in range(n_in):
                    for u in range(kernel):
                        for v in range(kernel):
                            acc += (
                                padded[m, i * stride + u, j * stride + v]
                                * weights[n, m, u, v]
                            )
                out[n, i, j] = acc
    if bias is not None:
        out += bias.reshape(-1, 1, 1)
    return out
