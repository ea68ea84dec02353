"""Convolution algorithms: direct, im2col/GEMM, FFT, and Winograd.

The paper contrasts the *conventional* algorithm (direct sliding-window
MACs, :mod:`repro.algorithms.direct`) with the *Winograd* minimal-filtering
algorithm (:mod:`repro.algorithms.winograd`) whose transform matrices are
generated for arbitrary F(m, r) by exact-rational Cook-Toom construction
(:mod:`repro.algorithms.poly`).  im2col/GEMM and FFT variants — the other
"computation structure transformations" the paper mentions — are provided
as additional functional baselines: nothing in the toolflow calls them;
they stay as the references ``tests/test_algorithms.py`` and
``benchmarks/test_winograd_kernels.py`` compare the other kernels
against.  :mod:`repro.algorithms.fixed_point`
models the 16-bit fixed-point datapath of the ZC706 implementation.
"""

from repro.algorithms.winograd import (
    WinogradTransform,
    winograd_conv2d,
    winograd_transform,
)
from repro.algorithms.direct import direct_conv2d
from repro.algorithms.im2col import im2col, im2col_conv2d
from repro.algorithms.fft import fft_conv2d

__all__ = [
    "WinogradTransform",
    "direct_conv2d",
    "fft_conv2d",
    "im2col",
    "im2col_conv2d",
    "winograd_conv2d",
    "winograd_transform",
]
