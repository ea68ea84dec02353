"""Tests for Winograd transform generation and convolution.

The central correctness property of the whole reproduction: for every
F(m, r) the generated algorithm is *exactly* (to float precision) the
direct convolution, for 1-D filtering, 2-D single tiles, and full
multi-channel layers with padding and ragged tile edges.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import AlgorithmError
from repro.algorithms.winograd import (
    DEFAULT_POINTS,
    exact_transform_matrices,
    multiplication_counts,
    select_points,
    tile_count,
    winograd_conv2d,
    winograd_transform,
)
from repro.nn.functional import conv2d


class TestTransformGeneration:
    def test_f23_shapes(self):
        t = winograd_transform(2, 3)
        assert t.alpha == 4
        assert t.AT.shape == (2, 4)
        assert t.G.shape == (4, 3)
        assert t.BT.shape == (4, 4)

    def test_f43_is_paper_configuration(self):
        t = winograd_transform(4, 3)
        assert t.alpha == 6
        assert t.multiplications_2d == 36
        assert t.direct_multiplications_2d == 144
        assert t.multiplication_reduction == pytest.approx(4.0)

    @pytest.mark.parametrize("m,r", [(2, 3), (4, 3), (6, 3), (4, 5), (2, 5), (3, 2), (2, 2)])
    def test_1d_filtering_exact(self, m, r):
        t = winograd_transform(m, r)
        rng = np.random.default_rng(m * 10 + r)
        signal = rng.normal(size=t.alpha)
        taps = rng.normal(size=r)
        expected = np.array(
            [signal[i : i + r] @ taps for i in range(m)]
        )
        np.testing.assert_allclose(t.filter_1d(signal, taps), expected, atol=1e-9)

    @pytest.mark.parametrize("m,r", [(2, 3), (4, 3), (4, 5), (6, 3)])
    def test_2d_single_tile_exact(self, m, r):
        t = winograd_transform(m, r)
        rng = np.random.default_rng(m + r)
        tile = rng.normal(size=(t.alpha, t.alpha))
        kernel = rng.normal(size=(r, r))
        expected = conv2d(tile[None], kernel[None, None])[0]
        np.testing.assert_allclose(t.filter_2d(tile, kernel), expected, atol=1e-9)

    def test_degenerate_f11(self):
        t = winograd_transform(1, 1)
        assert t.filter_1d(np.array([3.0]), np.array([2.0])) == pytest.approx(6.0)

    def test_invalid_sizes(self):
        with pytest.raises(AlgorithmError):
            winograd_transform(0, 3)
        with pytest.raises(AlgorithmError):
            winograd_transform(4, -1)

    def test_custom_points(self):
        t = winograd_transform(2, 3, points=[0, 1, -2])
        rng = np.random.default_rng(0)
        signal = rng.normal(size=4)
        taps = rng.normal(size=3)
        expected = np.array([signal[i : i + 3] @ taps for i in range(2)])
        np.testing.assert_allclose(t.filter_1d(signal, taps), expected, atol=1e-9)

    def test_duplicate_points_rejected(self):
        with pytest.raises(AlgorithmError):
            select_points(2, points=[1, 1])

    def test_too_few_points_rejected(self):
        with pytest.raises(AlgorithmError):
            select_points(len(DEFAULT_POINTS) + 1)

    def test_exact_matrices_are_rational(self):
        at, g, bt = exact_transform_matrices(4, 3)
        assert all(isinstance(v, Fraction) for row in at for v in row)
        assert len(at) == 4 and len(at[0]) == 6
        assert len(g) == 6 and len(g[0]) == 3
        assert len(bt) == 6 and len(bt[0]) == 6

    def test_transform_cached(self):
        assert winograd_transform(4, 3) is winograd_transform(4, 3)

    def test_filter_shape_errors(self):
        t = winograd_transform(2, 3)
        with pytest.raises(AlgorithmError):
            t.filter_1d(np.zeros(3), np.zeros(3))
        with pytest.raises(AlgorithmError):
            t.filter_2d(np.zeros((4, 4)), np.zeros((2, 2)))

    def test_transform_kernels_shape(self):
        t = winograd_transform(4, 3)
        u = t.transform_kernels(np.zeros((5, 2, 3, 3)))
        assert u.shape == (5, 2, 6, 6)
        with pytest.raises(AlgorithmError):
            t.transform_kernels(np.zeros((5, 2, 4, 4)))


class TestWinogradConv:
    @pytest.mark.parametrize(
        "channels,out_channels,h,w,r,pad,m",
        [
            (1, 1, 8, 8, 3, 1, 4),
            (3, 5, 12, 9, 3, 1, 4),
            (2, 4, 7, 13, 3, 0, 4),
            (3, 2, 11, 11, 5, 2, 4),
            (2, 3, 10, 10, 3, 1, 2),
            (4, 4, 6, 6, 3, 2, 4),  # pad > standard
            (3, 70, 9, 9, 3, 1, 4),  # output channels span three blocks
        ],
    )
    def test_matches_direct(self, channels, out_channels, h, w, r, pad, m):
        rng = np.random.default_rng(42)
        data = rng.normal(size=(channels, h, w))
        weights = rng.normal(size=(out_channels, channels, r, r))
        bias = rng.normal(size=out_channels)
        expected = conv2d(data, weights, bias, stride=1, pad=pad)
        actual = winograd_conv2d(data, weights, bias, pad=pad, m=m)
        np.testing.assert_allclose(actual, expected, atol=1e-9)

    def test_groups(self):
        rng = np.random.default_rng(1)
        data = rng.normal(size=(4, 9, 9))
        weights = rng.normal(size=(6, 2, 3, 3))
        expected = conv2d(data, weights, stride=1, pad=1, groups=2)
        actual = winograd_conv2d(data, weights, pad=1, groups=2)
        np.testing.assert_allclose(actual, expected, atol=1e-9)

    def test_transform_reuse(self):
        rng = np.random.default_rng(2)
        data = rng.normal(size=(2, 8, 8))
        weights = rng.normal(size=(2, 2, 3, 3))
        t = winograd_transform(4, 3)
        out = winograd_conv2d(data, weights, m=4, transform=t)
        np.testing.assert_allclose(
            out, conv2d(data, weights, stride=1), atol=1e-9
        )

    def test_mismatched_transform_rejected(self):
        t = winograd_transform(2, 3)
        with pytest.raises(AlgorithmError):
            winograd_conv2d(
                np.zeros((1, 8, 8)), np.zeros((1, 1, 3, 3)), m=4, transform=t
            )

    def test_non_square_kernel_rejected(self):
        with pytest.raises(AlgorithmError):
            winograd_conv2d(np.zeros((1, 8, 8)), np.zeros((1, 1, 3, 2)))

    def test_group_mismatch_rejected(self):
        with pytest.raises(AlgorithmError):
            winograd_conv2d(np.zeros((3, 8, 8)), np.zeros((2, 1, 3, 3)), groups=2)

    @settings(max_examples=25, deadline=None)
    @given(
        channels=st.integers(1, 3),
        out_channels=st.integers(1, 3),
        h=st.integers(5, 14),
        w=st.integers(5, 14),
        pad=st.integers(0, 1),
        seed=st.integers(0, 2**16),
    )
    def test_property_matches_direct_3x3(
        self, channels, out_channels, h, w, pad, seed
    ):
        rng = np.random.default_rng(seed)
        data = rng.normal(size=(channels, h, w))
        weights = rng.normal(size=(out_channels, channels, 3, 3))
        expected = conv2d(data, weights, stride=1, pad=pad)
        actual = winograd_conv2d(data, weights, pad=pad, m=4)
        np.testing.assert_allclose(actual, expected, atol=1e-8)


class TestCounting:
    def test_tile_count(self):
        assert tile_count(8, 4) == 2
        assert tile_count(9, 4) == 3
        assert tile_count(1, 4) == 1

    def test_multiplication_counts_exact_fit(self):
        direct, wino = multiplication_counts(16, 32, 8, 8, 3, m=4)
        assert direct == 32 * 16 * 64 * 9
        assert wino == 32 * 16 * 4 * 36
        assert direct / wino == pytest.approx(4.0)

    def test_ragged_tiles_reduce_gain(self):
        direct, wino = multiplication_counts(1, 1, 9, 9, 3, m=4)
        # 3x3 tile grid covers 12x12 outputs for 9x9 actual
        assert wino == 9 * 36
        assert direct / wino < 4.0
