"""Winograd minimal filtering: transform generation and convolution.

Implements the fast algorithm of Section 2.1 of the paper for arbitrary
``F(m, r)`` — ``m`` FIR outputs of an ``r``-tap filter with ``m + r - 1``
multiplications — via the Cook-Toom construction over exact rationals,
then nests the 1-D algorithm into the 2-D form

    ``Y = A^T [ (G g G^T) . (B^T d B) ] A``            (paper eq. 3)

used by the accelerator (the paper fixes ``F(4x4, 3x3)``; this module is
general so the optimizer can also apply Winograd to 5x5 layers such as
AlexNet conv2, see DESIGN.md).

Construction.  Choose ``alpha - 1`` distinct rational points plus the
point at infinity (``alpha = m + r - 1``).  With ``E_k`` the Vandermonde
evaluation matrix of a ``k``-coefficient polynomial at those points and
``C`` the square evaluation matrix of the product polynomial, Toom-Cook
polynomial multiplication gives the linear-convolution matrix identity
``M(g) = C^-1 diag(E_r g) E_m``.  FIR filtering is the transpose of
linear convolution, hence

    ``A^T = E_m^T``,  ``G = E_r``,  ``B^T = (C^-1)^T``.

All three matrices are produced exactly (Fractions) and converted to
floats only at the boundary.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.algorithms import poly
from repro.errors import AlgorithmError

#: Output channels :func:`winograd_conv2d` transforms and multiplies at
#: once; bounds its transformed-filter working set.
KERNEL_BLOCK = 32

#: Interpolation points used in order of preference.  Small values and
#: simple fractions keep the transform matrices well conditioned — the
#: same choice wincnn and Lavin's paper make.
DEFAULT_POINTS: Tuple[Fraction, ...] = tuple(
    Fraction(n, d)
    for n, d in [
        (0, 1),
        (1, 1),
        (-1, 1),
        (2, 1),
        (-2, 1),
        (1, 2),
        (-1, 2),
        (3, 1),
        (-3, 1),
        (1, 3),
        (-1, 3),
        (4, 1),
        (-4, 1),
        (1, 4),
        (-1, 4),
    ]
)


@dataclass(frozen=True)
class WinogradTransform:
    """The transform triple for ``F(m, r)`` (1-D) / ``F(m x m, r x r)`` (2-D).

    Attributes:
        m: Output tile size.
        r: Filter tap count (kernel size).
        AT: Inverse (output) transform, shape ``(m, alpha)``.
        G: Filter transform, shape ``(alpha, r)``.
        BT: Input transform, shape ``(alpha, alpha)``.
    """

    m: int
    r: int
    AT: np.ndarray
    G: np.ndarray
    BT: np.ndarray

    @property
    def alpha(self) -> int:
        """Input tile size ``m + r - 1`` = multiplications per 1-D output group."""
        return self.m + self.r - 1

    @property
    def multiplications_2d(self) -> int:
        """Element-wise multiplications per 2-D output tile (one channel)."""
        return self.alpha * self.alpha

    @property
    def direct_multiplications_2d(self) -> int:
        """Multiplications the conventional algorithm needs for the same tile."""
        return self.m * self.m * self.r * self.r

    @property
    def multiplication_reduction(self) -> float:
        """Conventional-to-Winograd multiplication ratio (4.0 for F(4x4,3x3))."""
        return self.direct_multiplications_2d / self.multiplications_2d

    def filter_1d(self, signal: np.ndarray, taps: np.ndarray) -> np.ndarray:
        """Apply the 1-D minimal filtering algorithm to one input tile.

        Args:
            signal: ``alpha`` input samples.
            taps: ``r`` filter taps.

        Returns:
            ``m`` outputs ``y_i = sum_j signal[i + j] * taps[j]``.
        """
        if signal.shape != (self.alpha,):
            raise AlgorithmError(f"signal must have {self.alpha} samples")
        if taps.shape != (self.r,):
            raise AlgorithmError(f"filter must have {self.r} taps")
        return self.AT @ ((self.G @ taps) * (self.BT @ signal))

    def filter_2d(self, tile: np.ndarray, kernel: np.ndarray) -> np.ndarray:
        """Apply the nested 2-D algorithm to one ``alpha x alpha`` input tile."""
        if tile.shape != (self.alpha, self.alpha):
            raise AlgorithmError(f"tile must be {self.alpha}x{self.alpha}")
        if kernel.shape != (self.r, self.r):
            raise AlgorithmError(f"kernel must be {self.r}x{self.r}")
        u = self.G @ kernel @ self.G.T
        v = self.BT @ tile @ self.BT.T
        return self.AT @ (u * v) @ self.AT.T

    def transform_kernels(self, weights: np.ndarray) -> np.ndarray:
        """Pre-transform a ``(..., r, r)`` kernel stack to ``(..., alpha, alpha)``."""
        if weights.shape[-2:] != (self.r, self.r):
            raise AlgorithmError(
                f"kernels must end in ({self.r},{self.r}), got {weights.shape}"
            )
        return np.einsum("ar,...rs,bs->...ab", self.G, weights, self.G)


def select_points(count: int, points: Optional[Sequence] = None) -> Tuple[Fraction, ...]:
    """Pick ``count`` distinct finite interpolation points."""
    pool = tuple(Fraction(p) for p in points) if points is not None else DEFAULT_POINTS
    if len(set(pool)) != len(pool):
        raise AlgorithmError("interpolation points must be distinct")
    if count > len(pool):
        raise AlgorithmError(
            f"need {count} interpolation points but only {len(pool)} available"
        )
    return pool[:count]


def _exact_transform(m: int, r: int, points: Optional[Sequence]):
    alpha = m + r - 1
    finite = select_points(alpha - 1, points)
    e_m = poly.vandermonde(finite, m, infinity=True)
    e_r = poly.vandermonde(finite, r, infinity=True)
    c = poly.vandermonde(finite, alpha, infinity=True)
    at = poly.mat_transpose(e_m)
    bt = poly.mat_transpose(poly.mat_inverse(c))
    return at, e_r, bt


@lru_cache(maxsize=None)
def _cached_transform(m: int, r: int, points_key) -> WinogradTransform:
    points = list(points_key) if points_key is not None else None
    at, g, bt = _exact_transform(m, r, points)
    return WinogradTransform(
        m=m, r=r, AT=poly.to_numpy(at), G=poly.to_numpy(g), BT=poly.to_numpy(bt)
    )


def winograd_transform(
    m: int, r: int, points: Optional[Sequence] = None
) -> WinogradTransform:
    """Generate the ``F(m, r)`` transform triple.

    Args:
        m: Outputs per tile (the paper uses 4).
        r: Filter taps / kernel size (the paper uses 3).
        points: Optional custom finite interpolation points
            (``alpha - 1`` of them); defaults to ``0, 1, -1, 2, -2, ...``.

    Raises:
        AlgorithmError: For non-positive sizes or bad points.
    """
    if m < 1 or r < 1:
        raise AlgorithmError(f"F({m},{r}) requires positive m and r")
    if m == 1 and r == 1:
        # Degenerate: a single multiplication.
        return WinogradTransform(
            m=1, r=1, AT=np.ones((1, 1)), G=np.ones((1, 1)), BT=np.ones((1, 1))
        )
    key = tuple(Fraction(p) for p in points) if points is not None else None
    return _cached_transform(m, r, key)


def exact_transform_matrices(m: int, r: int, points: Optional[Sequence] = None):
    """The (A^T, G, B^T) triple as exact Fraction matrices (for analysis)."""
    return _exact_transform(m, r, points)


def tile_count(extent: int, m: int) -> int:
    """Number of size-``m`` output tiles covering ``extent`` outputs."""
    return -(-extent // m)


def winograd_conv2d(
    data: np.ndarray,
    weights: np.ndarray,
    bias: Optional[np.ndarray] = None,
    pad: int = 0,
    m: int = 4,
    groups: int = 1,
    transform: Optional[WinogradTransform] = None,
) -> np.ndarray:
    """2-D convolution by the Winograd algorithm (stride 1 only).

    Functionally identical to :func:`repro.nn.functional.conv2d` with
    ``stride=1``; tiles the input into ``alpha x alpha`` patches with
    stride ``m``, runs the nested minimal filtering on every tile and
    channel, and accumulates over input channels (paper Section 2.1).

    Args:
        data: Input of shape ``(M, H, W)``.
        weights: Kernels of shape ``(N, M // groups, r, r)``.
        bias: Optional per-output-channel bias.
        pad: Symmetric zero padding.
        m: Output tile size (paper: 4).
        groups: Channel groups.
        transform: Pre-built transform to reuse; must match ``m`` and ``r``.

    Returns:
        Output of shape ``(N, H - r + 1 + 2 pad, W - r + 1 + 2 pad)``.
    """
    if data.ndim != 3 or weights.ndim != 4:
        raise AlgorithmError("winograd_conv2d expects (M,H,W) data, (N,M/g,r,r) weights")
    out_channels, group_channels, r, r2 = weights.shape
    if r != r2:
        raise AlgorithmError("only square kernels are supported")
    in_channels = data.shape[0]
    if in_channels % groups or out_channels % groups:
        raise AlgorithmError("channels not divisible by groups")
    if group_channels != in_channels // groups:
        raise AlgorithmError("weight channel dimension inconsistent with groups")
    if transform is None:
        transform = winograd_transform(m, r)
    elif transform.m != m or transform.r != r:
        raise AlgorithmError(
            f"transform is F({transform.m},{transform.r}), layer needs F({m},{r})"
        )

    padded = np.pad(
        data.astype(float), [(0, 0), (pad, pad), (pad, pad)], mode="constant"
    )
    _, height, width = padded.shape
    if height < r or width < r:
        raise AlgorithmError("kernel larger than padded input")
    out_h = height - r + 1
    out_w = width - r + 1
    tiles_h = tile_count(out_h, m)
    tiles_w = tile_count(out_w, m)
    alpha = transform.alpha
    # Extend on the bottom/right so every tile is a full alpha x alpha patch.
    need_h = (tiles_h - 1) * m + alpha
    need_w = (tiles_w - 1) * m + alpha
    padded = np.pad(
        padded,
        [(0, 0), (0, need_h - height), (0, need_w - width)],
        mode="constant",
    )

    group_out = out_channels // groups
    out = np.zeros((out_channels, tiles_h * m, tiles_w * m))
    for g in range(groups):
        d = padded[g * group_channels : (g + 1) * group_channels]
        w = weights[g * group_out : (g + 1) * group_out]
        # Gather tiles: (channels, tiles_h, tiles_w, alpha, alpha)
        tiles = np.empty((group_channels, tiles_h, tiles_w, alpha, alpha))
        for th in range(tiles_h):
            for tw in range(tiles_w):
                tiles[:, th, tw] = d[
                    :, th * m : th * m + alpha, tw * m : tw * m + alpha
                ]
        # Input transform V = B^T d B over the trailing two axes.
        v = np.einsum("ax,cijxy,by->cijab", transform.BT, tiles, transform.BT)
        # A block of output channels at a time: a wide layer's whole U
        # (384 x 384 x alpha^2 doubles for AlexNet conv4) is tens of MB.
        for lo in range(0, group_out, KERNEL_BLOCK):
            hi = min(lo + KERNEL_BLOCK, group_out)
            # Filter transform U = G g G^T.
            u = transform.transform_kernels(w[lo:hi])
            # Element-wise product, accumulated over input channels (paper:
            # "the results are accumulated to produce an output tile").
            mprod = np.einsum("ncab,cijab->nijab", u, v)
            # Inverse transform Y = A^T M A.
            y = np.einsum("xa,nijab,yb->nijxy", transform.AT, mprod, transform.AT)
            out[g * group_out + lo : g * group_out + hi] = (
                y.transpose(0, 1, 3, 2, 4).reshape(hi - lo, tiles_h * m, tiles_w * m)
            )
    out = out[:, :out_h, :out_w]
    if bias is not None:
        out = out + bias.reshape(-1, 1, 1)
    return out


def multiplication_counts(
    in_channels: int,
    out_channels: int,
    out_h: int,
    out_w: int,
    kernel: int,
    m: int = 4,
) -> Tuple[int, int]:
    """(conventional, winograd) multiplication counts for one conv layer.

    Winograd counts element-wise multiplications over full tiles (ragged
    edge tiles are padded, as in the hardware), conventional counts MACs.
    """
    direct = out_channels * in_channels * out_h * out_w * kernel * kernel
    alpha = m + kernel - 1
    tiles = tile_count(out_h, m) * tile_count(out_w, m)
    wino = out_channels * in_channels * tiles * alpha * alpha
    return direct, wino
