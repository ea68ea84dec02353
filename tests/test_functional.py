"""Tests for the numpy reference layer implementations."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ShapeError, UnsupportedLayerError
from repro.algorithms.direct import direct_conv2d_naive
from repro.nn import functional, models
from repro.nn.functional import (
    ave_pool2d,
    conv2d,
    fc,
    forward,
    forward_graph,
    forward_layer,
    init_graph_weights,
    init_weights,
    lrn,
    max_pool2d,
    pad_spatial,
    relu,
    softmax,
)
from repro.nn.graph import Graph, GraphNode
from repro.nn.layers import ConvLayer, EltwiseLayer, FCLayer, ReLULayer
from repro.nn.network import InputSpec


@pytest.fixture
def rng():
    return np.random.default_rng(7)


class TestPad:
    def test_pad_spatial(self):
        data = np.ones((2, 3, 3))
        out = pad_spatial(data, 1)
        assert out.shape == (2, 5, 5)
        assert out[:, 0, :].sum() == 0
        assert out[:, 1:4, 1:4].sum() == 18

    def test_pad_zero_is_identity(self):
        data = np.ones((2, 3, 3))
        assert pad_spatial(data, 0) is data

    def test_negative_pad_rejected(self):
        with pytest.raises(ShapeError):
            pad_spatial(np.ones((1, 2, 2)), -1)


class TestConv2d:
    def test_matches_naive_loops(self, rng):
        data = rng.normal(size=(3, 9, 11))
        weights = rng.normal(size=(5, 3, 3, 3))
        bias = rng.normal(size=5)
        for stride, pad in [(1, 0), (1, 1), (2, 1), (3, 2)]:
            fast = conv2d(data, weights, bias, stride=stride, pad=pad)
            slow = direct_conv2d_naive(data, weights, bias, stride=stride, pad=pad)
            np.testing.assert_allclose(fast, slow, atol=1e-12)

    def test_identity_kernel(self):
        data = np.arange(16.0).reshape(1, 4, 4)
        weights = np.zeros((1, 1, 3, 3))
        weights[0, 0, 1, 1] = 1.0
        out = conv2d(data, weights, pad=1)
        np.testing.assert_allclose(out, data)

    def test_groups_match_split_computation(self, rng):
        data = rng.normal(size=(4, 6, 6))
        weights = rng.normal(size=(6, 2, 3, 3))
        out = conv2d(data, weights, stride=1, pad=1, groups=2)
        top = conv2d(data[:2], weights[:3], stride=1, pad=1)
        bottom = conv2d(data[2:], weights[3:], stride=1, pad=1)
        np.testing.assert_allclose(out, np.concatenate([top, bottom]), atol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(
        kernel=st.sampled_from([1, 3, 5, 7, 11]),
        stride=st.integers(1, 4),
        pad=st.integers(0, 3),
        groups=st.integers(1, 2),
        group_channels=st.integers(1, 3),
        group_out=st.integers(1, 3),
        extra_h=st.integers(0, 9),
        extra_w=st.integers(0, 9),
        block_bytes=st.integers(1, 4096),
        seed=st.integers(0, 2**16),
    )
    def test_matches_naive_across_row_blocks(
        self, kernel, stride, pad, groups, group_channels, group_out,
        extra_h, extra_w, block_bytes, seed,
    ):
        # A small column-block cap splits these inputs into many row
        # blocks, so every seam between two GEMMs meets the oracle;
        # ``extra_*`` leaves ragged edges the stride does not reach.
        rng = np.random.default_rng(seed)
        side = max(1, kernel - 2 * pad)
        data = rng.normal(
            size=(groups * group_channels, side + extra_h, side + extra_w)
        )
        weights = rng.normal(
            size=(groups * group_out, group_channels, kernel, kernel)
        )
        bias = rng.normal(size=groups * group_out)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(functional, "_COLUMN_BLOCK_BYTES", block_bytes)
            fast = conv2d(data, weights, bias, stride, pad, groups)
        slow = np.concatenate([
            direct_conv2d_naive(
                data[g * group_channels : (g + 1) * group_channels],
                weights[g * group_out : (g + 1) * group_out],
                bias[g * group_out : (g + 1) * group_out],
                stride=stride,
                pad=pad,
            )
            for g in range(groups)
        ])
        np.testing.assert_allclose(fast, slow, atol=1e-12)

    def test_row_block_seams_at_the_real_cap(self, rng):
        # 64 channels x 3x3 taps x 224 columns: a few output rows fill
        # one column block, so twelve rows span at least three GEMMs.
        # The naive oracle runs on the input rows under each seam only.
        data = rng.normal(size=(64, 14, 226))
        weights = rng.normal(size=(1, 64, 3, 3))
        row_bytes = 64 * 9 * 224 * data.itemsize
        rows = functional._COLUMN_BLOCK_BYTES // row_bytes
        out = conv2d(data, weights)
        assert 1 <= rows and 2 * rows < out.shape[1]
        for seam in range(rows, out.shape[1], rows):
            window = data[:, seam - 1 : seam + 3, :]
            np.testing.assert_allclose(
                out[:, seam - 1 : seam + 1],
                direct_conv2d_naive(window, weights),
                atol=1e-12,
            )

    def test_float32_stays_float32(self, rng):
        data = rng.normal(size=(3, 9, 9)).astype(np.float32)
        weights = rng.normal(size=(4, 3, 3, 3)).astype(np.float32)
        out = conv2d(data, weights, stride=2, pad=1)
        assert out.dtype == np.float32
        np.testing.assert_allclose(
            out, direct_conv2d_naive(data, weights, stride=2, pad=1),
            rtol=1e-5, atol=1e-5,
        )

    def test_shape_errors(self, rng):
        data = rng.normal(size=(3, 5, 5))
        with pytest.raises(ShapeError):
            conv2d(data, rng.normal(size=(2, 4, 3, 3)))  # channel mismatch
        with pytest.raises(ShapeError):
            conv2d(data, rng.normal(size=(2, 3, 3, 2)))  # non-square
        with pytest.raises(ShapeError):
            conv2d(data, rng.normal(size=(2, 3, 7, 7)))  # kernel too big


class TestPooling:
    def test_max_pool_simple(self):
        data = np.arange(16.0).reshape(1, 4, 4)
        out = max_pool2d(data, 2, 2)
        np.testing.assert_allclose(out[0], [[5, 7], [13, 15]])

    def test_max_pool_ceil_mode(self):
        # 5 wide, k=3, s=2 -> ceil((5-3)/2)+1 = 2 columns
        data = np.arange(25.0).reshape(1, 5, 5)
        out = max_pool2d(data, 3, 2)
        assert out.shape == (1, 2, 2)
        assert out[0, 1, 1] == 24

    def test_max_pool_ceil_partial_window(self):
        # 55 -> 27 like AlexNet pool1
        data = np.random.default_rng(0).normal(size=(2, 55, 55))
        assert max_pool2d(data, 3, 2).shape == (2, 27, 27)

    def test_ave_pool(self):
        data = np.ones((1, 4, 4))
        out = ave_pool2d(data, 2, 2)
        np.testing.assert_allclose(out, np.ones((1, 2, 2)))

    @pytest.mark.parametrize("pool", [max_pool2d, ave_pool2d])
    def test_pooling_leaves_its_input_alone(self, rng, pool):
        data = rng.normal(size=(2, 7, 7))
        before = data.copy()
        pool(data, 3, 2)
        np.testing.assert_array_equal(data, before)

    def test_max_pool_matches_bruteforce(self, rng):
        data = rng.normal(size=(3, 8, 8))
        out = max_pool2d(data, 2, 2)
        for c in range(3):
            for i in range(4):
                for j in range(4):
                    block = data[c, 2 * i : 2 * i + 2, 2 * j : 2 * j + 2]
                    assert out[c, i, j] == block.max()


class TestLRN:
    def test_unit_scale_when_alpha_zero(self, rng):
        data = rng.normal(size=(6, 3, 3))
        np.testing.assert_allclose(lrn(data, alpha=0.0), data)

    def test_matches_definition(self, rng):
        data = rng.normal(size=(6, 2, 2))
        out = lrn(data, local_size=5, alpha=1e-2, beta=0.75, k=1.0)
        c = 3
        lo, hi = 1, 6
        scale = 1.0 + (1e-2 / 5) * (data[lo:hi] ** 2).sum(axis=0)
        np.testing.assert_allclose(out[c], data[c] / scale**0.75)

    def test_edge_channels_use_truncated_window(self, rng):
        data = rng.normal(size=(3, 2, 2))
        out = lrn(data, local_size=5, alpha=1e-2)
        scale0 = 1.0 + (1e-2 / 5) * (data[0:3] ** 2).sum(axis=0)
        np.testing.assert_allclose(out[0], data[0] / scale0**0.75)


    @settings(max_examples=200, deadline=None)
    @given(
        shape=st.tuples(
            st.integers(1, 12), st.integers(1, 5), st.integers(1, 5)
        ),
        local_size=st.integers(1, 7),
        data=st.data(),
    )
    def test_matches_windowed_sum(self, shape, local_size, data):
        """Every channel against its own clipped window sum, including
        tensors with fewer channels than the window."""
        from hypothesis.extra.numpy import arrays

        x = data.draw(arrays(np.float64, shape, elements=st.floats(-1e6, 1e6)))
        half = local_size // 2
        expected = np.empty_like(x)
        for c in range(shape[0]):
            window = x[max(0, c - half): c + half + 1]
            scale = 1.0 + (1e-4 / local_size) * (window**2).sum(axis=0)
            expected[c] = x[c] / scale**0.75
        np.testing.assert_allclose(lrn(x, local_size), expected, rtol=1e-12, atol=0)


class TestFCAndSoftmax:
    def test_fc(self, rng):
        data = rng.normal(size=(2, 2, 2))
        weights = rng.normal(size=(3, 8))
        bias = rng.normal(size=3)
        out = fc(data, weights, bias)
        assert out.shape == (3, 1, 1)
        np.testing.assert_allclose(
            out.reshape(-1), weights @ data.reshape(-1) + bias
        )

    def test_fc_dim_mismatch(self, rng):
        with pytest.raises(ShapeError):
            fc(rng.normal(size=(2, 2, 2)), rng.normal(size=(3, 9)))

    def test_softmax_sums_to_one(self, rng):
        data = rng.normal(size=(10, 2, 2))
        out = softmax(data)
        np.testing.assert_allclose(out.sum(axis=0), np.ones((2, 2)))

    def test_softmax_stability(self):
        data = np.array([1000.0, 1001.0]).reshape(2, 1, 1)
        out = softmax(data)
        assert np.isfinite(out).all()

    def test_relu(self):
        np.testing.assert_allclose(
            relu(np.array([-1.0, 0.0, 2.0])), [0.0, 0.0, 2.0]
        )


class TestForward:
    def test_forward_alexnet_shapes(self, rng):
        net = models.alexnet()
        out = forward(net, rng.normal(size=net.input_spec.shape))
        assert out.shape == net.output_shape

    def test_forward_collect(self, rng):
        net = models.tiny_cnn()
        acts = forward(net, rng.normal(size=net.input_spec.shape), collect=True)
        assert set(acts) == {info.name for info in net}
        for info in net:
            assert acts[info.name].shape == info.output_shape

    def test_forward_rejects_bad_shape(self, rng):
        net = models.tiny_cnn()
        with pytest.raises(ShapeError):
            forward(net, rng.normal(size=(3, 5, 5)))

    def test_conv_relu_applied(self, rng):
        layer = ConvLayer(name="c", out_channels=4, kernel=3, pad=1, relu=True)
        params = {
            "weight": rng.normal(size=(4, 3, 3, 3)),
            "bias": rng.normal(size=4),
        }
        out = forward_layer(layer, rng.normal(size=(3, 6, 6)), params)
        assert (out >= 0).all()

    def test_forward_layer_requires_weights(self, rng):
        layer = FCLayer(name="f", out_features=2)
        with pytest.raises(UnsupportedLayerError):
            forward_layer(layer, rng.normal(size=(2, 2, 2)))

    def test_relu_layer(self, rng):
        out = forward_layer(ReLULayer(name="r"), rng.normal(size=(2, 3, 3)))
        assert (out >= 0).all()

    def test_init_weights_shapes(self):
        net = models.tiny_cnn()
        weights = init_weights(net)
        conv1 = net.layer("conv1")
        assert weights["conv1"]["weight"].shape == (8, 3, 3, 3)
        assert weights["conv1"]["bias"].shape == (8,)
        assert "pool1" not in weights

    def test_init_weights_deterministic_by_default(self):
        w1 = init_weights(models.tiny_cnn())
        w2 = init_weights(models.tiny_cnn())
        np.testing.assert_array_equal(w1["conv1"]["weight"], w2["conv1"]["weight"])


class TestForwardGraph:
    @pytest.mark.parametrize("name", ["tiny_resnet", "googlenet_graph"])
    def test_sink_matches_collected_bit_for_bit(self, rng, name):
        graph = models.graph_catalog()[name]()
        data = rng.normal(size=graph.input_spec.shape)
        weights = init_graph_weights(graph)
        sink = forward_graph(graph, data, weights)
        collected = forward_graph(graph, data, weights, collect=True)
        assert set(collected) == {info.name for info in graph}
        np.testing.assert_array_equal(sink, collected[graph.sink.name])

    def test_producer_listed_twice_by_one_consumer(self, rng):
        graph = Graph("twice", InputSpec(3, 6, 6), [
            GraphNode(
                name="conv1",
                layer=ConvLayer(name="conv1", out_channels=4, kernel=3, pad=1),
                inputs=("data",),
            ),
            GraphNode(
                name="sum1",
                layer=EltwiseLayer(name="sum1"),
                inputs=("conv1", "conv1"),
            ),
        ])
        data = rng.normal(size=(3, 6, 6))
        collected = forward_graph(graph, data, collect=True)
        np.testing.assert_array_equal(
            forward_graph(graph, data), 2 * collected["conv1"]
        )

    def test_activations_are_freed_after_their_last_use(self, rng):
        graph = models.googlenet_graph()
        data = rng.normal(size=graph.input_spec.shape)
        weights = init_graph_weights(graph)
        collected = forward_graph(graph, data, weights, collect=True)
        total = sum(blob.nbytes for blob in collected.values())
        del collected
        tracemalloc.start()
        try:
            forward_graph(graph, data, weights)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < total
