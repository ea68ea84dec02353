"""Tests for Inception modules as macro-layers (paper S7.1)."""

import numpy as np
import pytest

from repro.errors import ShapeError, UnsupportedLayerError
from repro.hardware.device import get_device
from repro.nn import models
from repro.nn.functional import (
    conv2d,
    forward,
    forward_inception,
    forward_layer,
    init_weights,
    max_pool2d,
    relu,
)
from repro.nn.layers import ConvLayer, InputSpec
from repro.nn.modules import InceptionModule, InceptionSpec
from repro.nn.network import Network
from repro.perf.implement import Algorithm, candidate_algorithms, implement


@pytest.fixture
def spec():
    return InceptionSpec(b1=4, b3_reduce=6, b3=8, b5_reduce=2, b5=4, pool_proj=4)


@pytest.fixture
def module(spec):
    return InceptionModule(name="inc", spec=spec)


@pytest.fixture
def net(module):
    return Network("mini", InputSpec(8, 12, 12), [module])


class TestSpec:
    def test_out_channels(self, spec):
        assert spec.out_channels == 4 + 8 + 4 + 4

    def test_positive_widths_required(self):
        with pytest.raises(ShapeError):
            InceptionSpec(0, 1, 1, 1, 1, 1)

    def test_module_requires_spec(self):
        with pytest.raises(ShapeError):
            InceptionModule(name="x", spec=None)


class TestShapesAndCounts:
    def test_output_shape_preserves_extent(self, module):
        assert module.output_shape((8, 12, 12)) == (20, 12, 12)

    def test_branches_structure(self, module):
        branches = module.branches((8, 12, 12))
        assert set(branches) == {"b1", "b3", "b5", "pool"}
        assert len(branches["b1"]) == 1
        assert len(branches["b3"]) == 2
        assert branches["b3"][1].kernel == 3
        assert branches["b5"][1].kernel == 5

    def test_inner_layer_names_are_dotted(self, module):
        names = [layer.name for layer, _ in module.inner_layers((8, 12, 12))]
        assert "inc.b3r" in names and "inc.proj" in names

    def test_ops_is_sum_of_inner(self, module):
        inner_sum = sum(
            layer.ops(shape) for layer, shape in module.inner_layers((8, 12, 12))
        )
        assert module.ops((8, 12, 12)) == inner_sum

    def test_weight_count_counts_all_convs(self, module):
        expected = sum(
            layer.weight_count(shape)
            for layer, shape in module.inner_layers((8, 12, 12))
        )
        assert module.weight_count((8, 12, 12)) == expected

    def test_macs_positive(self, module):
        assert module.macs((8, 12, 12)) > 0


class TestFunctional:
    def test_forward_matches_manual_branches(self, net, module):
        rng = np.random.default_rng(4)
        weights = init_weights(net, rng)
        data = rng.normal(size=(8, 12, 12))
        out = forward(net, data, weights)

        def run(name, x, pad=0, kernel=None):
            params = weights[name]
            return relu(conv2d(x, params["weight"], params["bias"], pad=pad))

        b1 = run("inc.b1", data)
        b3 = run("inc.b3", run("inc.b3r", data), pad=1)
        b5 = run("inc.b5", run("inc.b5r", data), pad=2)
        pooled = max_pool2d(data, 3, 1, 1)
        proj = run("inc.proj", pooled)
        expected = np.concatenate([b1, b3, b5, proj], axis=0)
        np.testing.assert_allclose(out, expected, atol=1e-9)

    def test_forward_layer_requires_weight_dict(self, module):
        with pytest.raises(UnsupportedLayerError):
            forward_layer(module, np.zeros((8, 12, 12)))

    def test_forward_inception_direct(self, net, module):
        rng = np.random.default_rng(5)
        weights = init_weights(net, rng)
        data = rng.normal(size=(8, 12, 12))
        out = forward_inception(module, data, weights)
        np.testing.assert_allclose(out, forward(net, data, weights), atol=1e-12)


class TestGoogLeNet:
    def test_module_count(self):
        net = models.googlenet()
        modules = [i for i in net if isinstance(i.layer, InceptionModule)]
        assert len(modules) == 9

    def test_known_shapes(self):
        net = models.googlenet()
        assert net.layer("inception3a").output_shape == (256, 28, 28)
        assert net.layer("inception3b").output_shape == (480, 28, 28)
        assert net.layer("inception4a").output_shape == (512, 14, 14)
        assert net.layer("inception5b").output_shape == (1024, 7, 7)
        assert net.output_shape == (1024, 1, 1)

    def test_total_ops_scale(self):
        # GoogLeNet v1 is ~3.2 GOP (2 ops/MAC) — conv-dominated (paper S1)
        gop = models.googlenet().total_ops() / 1e9
        assert 2.8 < gop < 3.6

    def test_with_fc(self):
        assert models.googlenet(include_fc=True).output_shape == (1000, 1, 1)

    def test_prefix(self):
        prefix = models.googlenet_prefix(2)
        assert prefix[len(prefix) - 1].name == "inception3b"


class TestCostModel:
    def test_conventional_macro_engine_only(self):
        net = models.googlenet()
        info = net.layer("inception3a")
        assert candidate_algorithms(info) == [Algorithm.CONVENTIONAL]

    def test_implement_produces_sane_engine(self):
        net = models.googlenet()
        dev = get_device("zc706")
        info = net.layer("inception3a")
        impl = implement(info, Algorithm.CONVENTIONAL, 64, dev)
        assert impl.resources.dsp == 64
        assert impl.compute_cycles == -(-info.layer.macs(info.input_shape) // 64)
        assert impl.resources.bram18k > 0

    def test_winograd_rejected(self):
        from repro.errors import AlgorithmError

        net = models.googlenet()
        dev = get_device("zc706")
        with pytest.raises(AlgorithmError):
            implement(net.layer("inception3a"), Algorithm.WINOGRAD, 8, dev)


class TestSimulation:
    def test_streaming_matches_reference(self, net):
        from repro.optimizer.dp import optimize
        from repro.sim.simulator import simulate_strategy

        dev = get_device("testchip")
        strategy = optimize(net, dev, net.feature_map_bytes())
        rng = np.random.default_rng(6)
        weights = init_weights(net, rng)
        data = rng.normal(size=net.input_spec.shape)
        result = simulate_strategy(strategy, data, weights)
        expected = forward(net, data, weights)
        np.testing.assert_allclose(result.output, expected, atol=1e-8)

    def test_fused_with_neighbors(self):
        layers = [
            ConvLayer(name="c0", out_channels=8, kernel=3, pad=1),
            InceptionModule(
                name="inc", spec=InceptionSpec(4, 6, 8, 2, 4, 4)
            ),
            ConvLayer(name="c1", out_channels=8, kernel=1),
        ]
        net = Network("chain", InputSpec(3, 12, 12), layers)
        from repro.optimizer.dp import optimize
        from repro.sim.simulator import simulate_strategy

        dev = get_device("testchip")
        strategy = optimize(net, dev, net.min_fused_transfer_bytes())
        rng = np.random.default_rng(7)
        weights = init_weights(net, rng)
        data = rng.normal(size=net.input_spec.shape)
        result = simulate_strategy(strategy, data, weights)
        np.testing.assert_allclose(
            result.output, forward(net, data, weights), atol=1e-8
        )


class TestCodegen:
    def test_inception_template(self):
        from repro.codegen import templates
        from repro.hardware.device import get_device

        net = models.googlenet()
        dev = get_device("zc706")
        info = net.layer("inception3a")
        impl = implement(info, Algorithm.CONVENTIONAL, 32, dev)
        code = templates.render_layer(info, impl)
        assert "#pragma HLS DATAFLOW" in code
        assert "broadcast4" in code
        assert "concat_channels" in code
        # inner branch engines rendered
        assert "inception3a_b3" in code.replace(".", "_")


class TestArtifacts:
    """Inception networks digest structurally, so the artifacts that
    stamp a network digest (codegen manifests, saved strategies) work."""

    def test_digest_covers_the_channel_spec(self, net, spec):
        from dataclasses import replace

        from repro.check.artifacts import network_digest

        same = Network("mini", InputSpec(8, 12, 12), [
            InceptionModule(name="inc", spec=replace(spec))
        ])
        wider = Network("mini", InputSpec(8, 12, 12), [
            InceptionModule(name="inc", spec=replace(spec, b1=5))
        ])
        assert network_digest(net) == network_digest(same)
        assert network_digest(net) != network_digest(wider)

    def test_compile_emits_project_and_strategy_round_trips(self, tmp_path):
        from repro.optimizer.serialize import load_strategy, save_strategy
        from repro.toolflow import compile_model

        net = Network("mini", InputSpec(8, 12, 12), [
            ConvLayer(name="c1", out_channels=8, kernel=3, pad=1),
            InceptionModule(
                name="inc",
                spec=InceptionSpec(b1=4, b3_reduce=6, b3=8, b5_reduce=2,
                                   b5=4, pool_proj=4),
            ),
        ])
        compiled = compile_model(net, device="testchip")
        assert compiled.project is not None
        path = save_strategy(compiled.strategy, tmp_path / "strategy.json")
        loaded = load_strategy(path, network=net)
        assert loaded.latency_cycles == compiled.strategy.latency_cycles
