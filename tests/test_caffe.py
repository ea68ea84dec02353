"""Tests for the prototxt parser and serializer."""

import numpy as np
import pytest

from repro.check.artifacts import network_digest
from repro.errors import ParseError
from repro.nn import caffe, models
from repro.nn.caffe import (
    graph_from_prototxt,
    graph_to_prototxt,
    model_from_prototxt,
    network_from_prototxt,
    network_to_prototxt,
    parse_prototxt,
)
from repro.nn.functional import forward_graph, init_graph_weights
from repro.nn.layers import ConvLayer, LRNLayer, PoolLayer, ReLULayer
from repro.nn.modules import InceptionModule

SAMPLE = """
name: "sample"
input: "data"
input_dim: 1
input_dim: 3
input_dim: 32
input_dim: 32
layer {
  name: "conv1"
  type: "Convolution"
  bottom: "data"
  top: "conv1"
  convolution_param {
    num_output: 16
    kernel_size: 3
    pad: 1
    stride: 1
  }
}
layer {
  name: "relu1"
  type: "ReLU"
  bottom: "conv1"
  top: "conv1"
}
layer {
  name: "pool1"
  type: "Pooling"
  bottom: "conv1"
  top: "pool1"
  pooling_param {
    pool: MAX
    kernel_size: 2
    stride: 2
  }
}
layer {
  name: "norm1"
  type: "LRN"
  bottom: "pool1"
  top: "norm1"
  lrn_param {
    local_size: 5
    alpha: 0.0001
    beta: 0.75
  }
}
"""


class TestGenericParser:
    def test_scalar_fields(self):
        msg = parse_prototxt('name: "x"\ncount: 3\nratio: 0.5\nflag: true')
        assert msg.get_str("name") == "x"
        assert msg.get_int("count") == 3
        assert msg.get_float("ratio") == 0.5
        assert msg.get("flag") is True

    def test_nested_and_repeated(self):
        msg = parse_prototxt("a { v: 1 }\na { v: 2 }")
        values = [m.get_int("v") for m in msg.get_all("a")]
        assert values == [1, 2]

    def test_comments_ignored(self):
        msg = parse_prototxt("# leading comment\nx: 1 # trailing\n")
        assert msg.get_int("x") == 1

    def test_enum_atoms(self):
        msg = parse_prototxt("pool: MAX")
        assert msg.get("pool") == "MAX"

    def test_string_escapes(self):
        msg = parse_prototxt(r'name: "a\"b"')
        assert msg.get_str("name") == 'a"b'

    def test_message_without_colon(self):
        msg = parse_prototxt("param { x: 1 }")
        assert msg.get_message("param").get_int("x") == 1

    @pytest.mark.parametrize(
        "bad",
        ["}", "key", "a: {", "a: 1 }", 'a: "unterminated'],
    )
    def test_malformed_raises(self, bad):
        with pytest.raises(ParseError):
            parse_prototxt(bad)

    def test_negative_and_exponent_numbers(self):
        msg = parse_prototxt("a: -3\nb: 1e-4\nc: -2.5e2")
        assert msg.get_int("a") == -3
        assert msg.get_float("b") == pytest.approx(1e-4)
        assert msg.get_float("c") == pytest.approx(-250.0)


class TestNetworkLowering:
    def test_sample_layers(self):
        net = network_from_prototxt(SAMPLE)
        assert net.name == "sample"
        assert net.input_spec.shape == (3, 32, 32)
        assert [info.name for info in net] == ["conv1", "pool1", "norm1"]

    def test_relu_folded_into_conv(self):
        net = network_from_prototxt(SAMPLE)
        conv = net.layer("conv1").layer
        assert isinstance(conv, ConvLayer)
        assert conv.relu

    def test_pool_parameters(self):
        pool = network_from_prototxt(SAMPLE).layer("pool1").layer
        assert isinstance(pool, PoolLayer)
        assert pool.kernel == 2 and pool.stride == 2 and pool.mode == "max"

    def test_lrn_parameters(self):
        lrn = network_from_prototxt(SAMPLE).layer("norm1").layer
        assert isinstance(lrn, LRNLayer)
        assert lrn.local_size == 5
        assert lrn.alpha == pytest.approx(1e-4)

    def test_input_shape_message_form(self):
        text = 'input: "data"\ninput_shape { dim: 1 dim: 3 dim: 8 dim: 8 }\n' + (
            'layer { name: "c" type: "Convolution" bottom: "data" top: "c" '
            "convolution_param { num_output: 2 kernel_size: 3 pad: 1 } }"
        )
        net = network_from_prototxt(text)
        assert net.input_spec.shape == (3, 8, 8)

    def test_input_layer_form(self):
        text = (
            'layer { name: "data" type: "Input" input_param { shape '
            "{ dim: 1 dim: 3 dim: 8 dim: 8 } } }\n"
            'layer { name: "c" type: "Convolution" bottom: "data" top: "c" '
            "convolution_param { num_output: 2 kernel_size: 3 pad: 1 } }"
        )
        net = network_from_prototxt(text)
        assert net.input_spec.shape == (3, 8, 8)

    def test_missing_input_shape_raises(self):
        with pytest.raises(ParseError):
            network_from_prototxt('name: "x"')

    def test_non_linear_chain_rejected(self):
        text = SAMPLE + (
            '\nlayer { name: "c2" type: "Convolution" bottom: "conv1" top: "c2" '
            "convolution_param { num_output: 2 kernel_size: 1 } }"
        )
        with pytest.raises(ParseError):
            network_from_prototxt(text)

    def test_series_parallel_graph_rejected_at_its_fork(self):
        text = graph_to_prototxt(models.tiny_branch())
        with pytest.raises(ParseError, match=r"^line \d+: .*breaks the linear chain"):
            network_from_prototxt(text)

    def test_unsupported_layer_type(self):
        text = (
            'input: "d"\ninput_dim: 1\ninput_dim: 3\ninput_dim: 8\ninput_dim: 8\n'
            'layer { name: "x" type: "Eltwise" bottom: "d" top: "x" }'
        )
        with pytest.raises(ParseError):
            network_from_prototxt(text)

    def test_missing_conv_param(self):
        text = (
            'input: "d"\ninput_dim: 1\ninput_dim: 3\ninput_dim: 8\ninput_dim: 8\n'
            'layer { name: "x" type: "Convolution" bottom: "d" top: "x" }'
        )
        with pytest.raises(ParseError):
            network_from_prototxt(text)


#: One header shared by the malformed-input cases below (input on lines 1-5,
#: so every layer block starts at line 6).
_HEADER = (
    'name: "bad"\n'
    'input: "data"\n'
    "input_dim: 1\ninput_dim: 3\ninput_dim: 8\ninput_dim: 8\n"
)


class TestMalformedInputs:
    """Every malformed prototxt yields a one-line ParseError carrying the
    offending line number and field name."""

    @pytest.mark.parametrize(
        "body, line, field",
        [
            # Unknown layer type.
            (
                'layer {\n  name: "x"\n  type: "Deconvolution"\n}\n',
                9,
                "type",
            ),
            # Malformed value: a string where a number belongs.
            (
                'layer {\n  name: "c"\n  type: "Convolution"\n'
                "  convolution_param {\n"
                '    num_output: "many"\n    kernel_size: 3\n  }\n}\n',
                11,
                "num_output",
            ),
            # Malformed value: non-positive dimension.
            (
                'layer {\n  name: "c"\n  type: "Convolution"\n'
                "  convolution_param {\n"
                "    num_output: 16\n    kernel_size: 0\n  }\n}\n",
                12,
                "kernel_size",
            ),
            # Missing required nested message.
            (
                'layer {\n  name: "c"\n  type: "Convolution"\n}\n',
                7,
                "convolution_param",
            ),
            # Unsupported enum value in a known field.
            (
                'layer {\n  name: "p"\n  type: "Pooling"\n'
                "  pooling_param {\n"
                "    pool: STOCHASTIC\n    kernel_size: 2\n  }\n}\n",
                11,
                "pool",
            ),
            # Scalar where a message is required.
            (
                'layer {\n  name: "c"\n  type: "Convolution"\n'
                "  convolution_param: 3\n}\n",
                10,
                "convolution_param",
            ),
        ],
    )
    def test_error_carries_line_and_field(self, body, line, field):
        with pytest.raises(ParseError) as excinfo:
            network_from_prototxt(_HEADER + body)
        message = str(excinfo.value)
        assert "\n" not in message
        assert f"line {line}" in message
        assert field in message

    def test_layer_missing_name_points_at_block(self):
        text = _HEADER + 'layer {\n  type: "ReLU"\n}\n'
        with pytest.raises(ParseError) as excinfo:
            network_from_prototxt(text)
        assert "line 7" in str(excinfo.value)
        assert "name" in str(excinfo.value)

    def test_unterminated_message_points_at_opening(self):
        text = _HEADER + 'layer {\n  name: "x"\n  type: "ReLU"\n'
        with pytest.raises(ParseError) as excinfo:
            parse_prototxt(text)
        assert "line 7" in str(excinfo.value)


#: Zoo chains the writer can express (macro-layer Inception modules have
#: no prototxt form).
SERIALIZABLE_CHAINS = sorted(
    name
    for name, ctor in models.catalog().items()
    if not any(isinstance(layer, InceptionModule) for layer in ctor().layers)
)


class TestRoundTrip:
    @pytest.mark.parametrize("name", SERIALIZABLE_CHAINS)
    def test_zoo_chain_round_trips_exactly(self, name):
        original = models.catalog()[name]()
        parsed = network_from_prototxt(network_to_prototxt(original))
        assert network_digest(parsed) == network_digest(original)

    @pytest.mark.parametrize(
        "ctor",
        [models.tiny_cnn, models.alexnet, models.vgg_fused_prefix],
    )
    def test_serialize_then_parse_preserves_structure(self, ctor):
        original = ctor()
        text = network_to_prototxt(original)
        parsed = network_from_prototxt(text)
        assert len(parsed) == len(original)
        for a, b in zip(original, parsed):
            assert a.name == b.name
            assert type(a.layer) is type(b.layer)
            assert a.output_shape == b.output_shape

    def test_roundtrip_preserves_relu_flags(self):
        original = models.tiny_cnn()
        parsed = network_from_prototxt(network_to_prototxt(original))
        for a, b in zip(original.conv_infos(), parsed.conv_infos()):
            assert a.layer.relu == b.layer.relu

    def test_roundtrip_preserves_groups(self):
        original = models.alexnet(grouped=True)
        parsed = network_from_prototxt(network_to_prototxt(original))
        assert parsed.layer("conv2").layer.groups == 2


def _conv1x1(name, bottom, channels):
    return (
        f'layer {{ name: "{name}" type: "Convolution" bottom: "{bottom}" '
        f'top: "{name}" convolution_param {{ num_output: {channels} '
        "kernel_size: 1 } }\n"
    )


class TestReluFolding:
    def test_relu_not_folded_when_pre_relu_blob_is_read(self):
        # c3 reads conv1's pre-ReLU blob, so relu1 must stay a node.
        text = (
            'input: "data"\ninput_dim: 1\ninput_dim: 2\ninput_dim: 4\n'
            "input_dim: 4\n"
            + _conv1x1("conv1", "data", 3)
            + 'layer { name: "relu1" type: "ReLU" bottom: "conv1" top: "relu1" }\n'
            + _conv1x1("c2", "relu1", 2)
            + _conv1x1("c3", "conv1", 2)
            + 'layer { name: "cat" type: "Concat" bottom: "c2" bottom: "c3" '
            'top: "cat" }\n'
        )
        graph = graph_from_prototxt(text)
        assert not graph.node("conv1").layer.relu
        assert isinstance(graph.node("relu1").layer, ReLULayer)
        assert graph.node("relu1").inputs == ("conv1",)
        assert graph.node("c2").inputs == ("relu1",)
        assert graph.node("c3").inputs == ("conv1",)

        rng = np.random.default_rng(3)
        data = rng.normal(size=(2, 4, 4))
        weights = init_graph_weights(graph, rng, scale=1.0)

        def conv(name, x):
            w, b = weights[name]["weight"], weights[name]["bias"]
            return np.einsum("oc,chw->ohw", w[:, :, 0, 0], x) + b[:, None, None]

        pre = conv("conv1", data)
        assert (pre < 0).any()
        expected = np.concatenate(
            [conv("c2", np.maximum(pre, 0)), conv("c3", pre)]
        )
        np.testing.assert_allclose(forward_graph(graph, data, weights), expected)

    def test_doubled_relu_folds_into_one_flag(self):
        text = SAMPLE.replace(
            'layer {\n  name: "pool1"',
            'layer {\n  name: "relu1b"\n  type: "ReLU"\n'
            '  bottom: "conv1"\n  top: "conv1"\n}\nlayer {\n  name: "pool1"',
        )
        graph = graph_from_prototxt(text)
        assert graph.topo_order == ("conv1", "pool1", "norm1")
        assert graph.node("conv1").layer.relu
        assert graph.node("pool1").inputs == ("conv1",)


def test_model_from_prototxt_parses_once(monkeypatch):
    texts = []
    parse = caffe.parse_prototxt
    monkeypatch.setattr(
        caffe, "parse_prototxt", lambda text: texts.append(text) or parse(text)
    )
    model = model_from_prototxt(SAMPLE)
    assert texts == [SAMPLE]
    assert network_digest(model) == network_digest(network_from_prototxt(SAMPLE))
