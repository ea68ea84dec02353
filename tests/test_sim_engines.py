"""Tests for the row-streaming functional engines.

The architectural correctness property: every engine, fed rows one at a
time, reproduces the batch reference implementation exactly.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SimulationError, UnsupportedLayerError
from repro.nn.functional import (
    ave_pool2d,
    conv2d,
    lrn,
    max_pool2d,
    relu,
)
from repro.nn.layers import ConvLayer, FCLayer, LRNLayer, PoolLayer
from repro.perf.implement import Algorithm
from repro.sim.engines import (
    conv_stream,
    layer_stream,
    lrn_stream,
    pool_stream,
    winograd_stream,
)


def rows_of(data):
    for i in range(data.shape[1]):
        yield data[:, i, :]


def collect(stream):
    return np.stack(list(stream), axis=1)


@pytest.fixture
def rng():
    return np.random.default_rng(17)


class TestConvStream:
    def test_matches_reference(self, rng):
        layer = ConvLayer(name="c", out_channels=5, kernel=3, pad=1, relu=True)
        data = rng.normal(size=(3, 10, 8))
        params = {
            "weight": rng.normal(size=(5, 3, 3, 3)),
            "bias": rng.normal(size=5),
        }
        out = collect(conv_stream(rows_of(data), layer, params, in_height=10))
        expected = relu(conv2d(data, params["weight"], params["bias"], pad=1))
        np.testing.assert_allclose(out, expected, atol=1e-10)

    def test_grouped(self, rng):
        layer = ConvLayer(name="c", out_channels=4, kernel=3, pad=1, groups=2, relu=False)
        data = rng.normal(size=(4, 9, 9))
        params = {"weight": rng.normal(size=(4, 2, 3, 3))}
        out = collect(conv_stream(rows_of(data), layer, params, in_height=9))
        expected = conv2d(data, params["weight"], pad=1, groups=2)
        np.testing.assert_allclose(out, expected, atol=1e-10)


class TestWinogradStream:
    @pytest.mark.parametrize("h,w,pad,r", [(12, 12, 1, 3), (9, 11, 0, 3), (13, 13, 2, 5)])
    def test_matches_reference(self, rng, h, w, pad, r):
        layer = ConvLayer(name="c", out_channels=4, kernel=r, pad=pad, relu=True)
        data = rng.normal(size=(3, h, w))
        params = {
            "weight": rng.normal(size=(4, 3, r, r)),
            "bias": rng.normal(size=4),
        }
        out = collect(winograd_stream(rows_of(data), layer, params, in_height=h))
        expected = relu(conv2d(data, params["weight"], params["bias"], pad=pad))
        np.testing.assert_allclose(out, expected, atol=1e-9)

    def test_stride_rejected(self, rng):
        layer = ConvLayer(name="c", out_channels=2, kernel=3, stride=2)
        with pytest.raises(SimulationError):
            list(
                winograd_stream(
                    rows_of(rng.normal(size=(1, 8, 8))),
                    layer,
                    {"weight": rng.normal(size=(2, 1, 3, 3))},
                    in_height=8,
                )
            )

    def test_grouped(self, rng):
        layer = ConvLayer(name="c", out_channels=4, kernel=3, pad=1, groups=2, relu=False)
        data = rng.normal(size=(4, 10, 10))
        params = {"weight": rng.normal(size=(4, 2, 3, 3))}
        out = collect(winograd_stream(rows_of(data), layer, params, in_height=10))
        expected = conv2d(data, params["weight"], pad=1, groups=2)
        np.testing.assert_allclose(out, expected, atol=1e-9)

    @settings(max_examples=15, deadline=None)
    @given(h=st.integers(5, 16), w=st.integers(5, 16), seed=st.integers(0, 999))
    def test_property_matches_reference(self, h, w, seed):
        rng = np.random.default_rng(seed)
        layer = ConvLayer(name="c", out_channels=2, kernel=3, pad=1, relu=False)
        data = rng.normal(size=(2, h, w))
        params = {"weight": rng.normal(size=(2, 2, 3, 3))}
        out = collect(winograd_stream(rows_of(data), layer, params, in_height=h))
        np.testing.assert_allclose(
            out, conv2d(data, params["weight"], pad=1), atol=1e-8
        )


class TestPoolStream:
    @pytest.mark.parametrize(
        "mode,h,w,k,s,pad",
        [
            ("max", 8, 8, 2, 2, 0),
            ("max", 55, 55, 3, 2, 0),  # AlexNet ceil-mode pooling
            ("ave", 8, 8, 2, 2, 0),
            ("max", 9, 9, 3, 2, 1),
            ("max", 7, 7, 3, 3, 0),
        ],
    )
    def test_matches_reference(self, rng, mode, h, w, k, s, pad):
        layer = PoolLayer(name="p", kernel=k, stride=s, pad=pad, mode=mode)
        data = rng.normal(size=(3, h, w))
        out = collect(pool_stream(rows_of(data), layer, in_height=h))
        ref = max_pool2d(data, k, s, pad) if mode == "max" else ave_pool2d(data, k, s, pad)
        np.testing.assert_allclose(out, ref, atol=1e-10)

    @settings(max_examples=20, deadline=None)
    @given(
        h=st.integers(4, 20),
        k=st.integers(2, 3),
        s=st.integers(1, 3),
        seed=st.integers(0, 999),
    )
    def test_property_max_pool(self, h, k, s, seed):
        rng = np.random.default_rng(seed)
        layer = PoolLayer(name="p", kernel=k, stride=s)
        data = rng.normal(size=(2, h, h))
        out = collect(pool_stream(rows_of(data), layer, in_height=h))
        np.testing.assert_allclose(out, max_pool2d(data, k, s), atol=1e-10)


class TestBoundedBuffers:
    """Engines keep only the rows a later window reads, like the
    hardware's line buffers, not the whole input map."""

    @pytest.mark.parametrize("engine", ["winograd", "pool"])
    def test_peak_memory_is_a_window_not_the_map(self, engine):
        import tracemalloc

        channels, height, width = 8, 1024, 32
        rng = np.random.default_rng(3)
        if engine == "winograd":
            layer = ConvLayer(name="c", out_channels=8, kernel=3, pad=1)
            params = {"weight": rng.normal(size=(8, channels, 3, 3))}
            make = lambda rows: winograd_stream(rows, layer, params, height)
        else:
            layer = PoolLayer(name="p", kernel=3, stride=2, pad=1)
            make = lambda rows: pool_stream(rows, layer, height)
        map_bytes = channels * height * width * 8

        def fresh_rows():
            for _ in range(height):
                yield rng.normal(size=(channels, width))

        tracemalloc.start()
        try:
            emitted = sum(1 for _ in make(fresh_rows()))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert emitted > 0
        assert peak < map_bytes / 4


class TestLRNStream:
    def test_matches_reference(self, rng):
        layer = LRNLayer(name="n", local_size=5, alpha=1e-3, beta=0.75)
        data = rng.normal(size=(8, 6, 6))
        out = collect(lrn_stream(rows_of(data), layer))
        np.testing.assert_allclose(out, lrn(data, 5, 1e-3, 0.75), atol=1e-12)


class TestDispatch:
    def test_layer_stream_dispatches(self, rng):
        data = rng.normal(size=(2, 8, 8))
        conv = ConvLayer(name="c", out_channels=2, kernel=3, pad=1, relu=False)
        params = {"weight": rng.normal(size=(2, 2, 3, 3))}
        for algo in (Algorithm.CONVENTIONAL, Algorithm.WINOGRAD):
            out = collect(layer_stream(rows_of(data), conv, algo, 8, params))
            np.testing.assert_allclose(
                out, conv2d(data, params["weight"], pad=1), atol=1e-9
            )

    def test_conv_without_weights_rejected(self, rng):
        conv = ConvLayer(name="c", out_channels=2, kernel=3)
        with pytest.raises(SimulationError):
            layer_stream(rows_of(rng.normal(size=(2, 8, 8))), conv, Algorithm.CONVENTIONAL, 8)

    def test_fc_unsupported(self, rng):
        with pytest.raises(UnsupportedLayerError):
            layer_stream(
                rows_of(rng.normal(size=(2, 2, 2))),
                FCLayer(name="f", out_features=2),
                Algorithm.CONVENTIONAL,
                2,
            )
