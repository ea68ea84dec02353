"""Tests for the end-to-end tool-flow."""

import numpy as np
import pytest

from repro.errors import OptimizationError
from repro.nn import models
from repro.nn.caffe import network_to_prototxt
from repro.toolflow import compile_model


@pytest.fixture(scope="module")
def tiny_result():
    net = models.tiny_cnn()
    return compile_model(net, device="testchip")


class TestCompileModel:
    def test_from_network_object(self, tiny_result):
        assert tiny_result.strategy.latency_cycles > 0
        assert len(tiny_result.project.files) >= 4

    def test_from_prototxt_text(self):
        text = network_to_prototxt(models.tiny_cnn())
        result = compile_model(text, device="testchip")
        assert len(result.network) == len(models.tiny_cnn())

    def test_from_prototxt_file(self, tmp_path):
        path = tmp_path / "model.prototxt"
        path.write_text(network_to_prototxt(models.tiny_cnn()))
        result = compile_model(path, device="testchip")
        assert result.network.name == "tiny_cnn"

    def test_writes_output_dir(self, tmp_path):
        compile_model(
            models.tiny_cnn(), device="testchip", output_dir=tmp_path / "hls"
        )
        assert (tmp_path / "hls" / "build.tcl").exists()

    def test_accelerated_only_strips_fc(self):
        result = compile_model(models.tiny_cnn(), device="testchip")
        # tiny_cnn has no FC; use alexnet with FC to check stripping
        from repro.nn.layers import is_accelerated

        net = models.tiny_cnn()
        assert all(is_accelerated(layer) for layer in result.network.layers)

    def test_transfer_constraint_respected(self):
        net = models.tiny_cnn()
        budget = net.min_fused_transfer_bytes()
        result = compile_model(net, device="testchip", transfer_constraint_bytes=budget)
        assert result.strategy.feature_transfer_bytes <= budget

    def test_default_constraint_is_unfused_traffic(self):
        net = models.tiny_cnn()
        result = compile_model(net, device="testchip")
        assert result.strategy.feature_transfer_bytes <= net.feature_map_bytes()

    def test_invalid_model_input(self):
        with pytest.raises(OptimizationError):
            compile_model("no-such-file.prototxt", device="testchip")

    def test_empty_network_rejected(self):
        from repro.nn.layers import FCLayer, InputSpec
        from repro.nn.network import Network

        fc_only = Network(
            "fc", InputSpec(4, 2, 2), [FCLayer(name="f", out_features=2)]
        )
        with pytest.raises(OptimizationError):
            compile_model(fc_only, device="testchip")


class TestSimulationHook:
    def test_simulate_default_input(self, tiny_result):
        sim = tiny_result.simulate()
        assert sim.output.shape == tiny_result.network.output_shape

    def test_simulate_matches_reference(self, tiny_result):
        from repro.nn.functional import forward, init_weights

        net = tiny_result.network
        weights = init_weights(net)
        data = np.random.default_rng(5).normal(size=net.input_spec.shape)
        sim = tiny_result.simulate(data, weights)
        np.testing.assert_allclose(sim.output, forward(net, data, weights), atol=1e-9)

    def test_summary_text(self, tiny_result):
        text = tiny_result.summary()
        assert "tool-flow result" in text
        assert "generated sources" in text


class TestGraphCompile:
    """A branching model compiles to the same CompileResult surface."""

    @pytest.fixture(scope="class")
    def graph_result(self):
        return compile_model(models.tiny_resnet(), device="testchip")

    def test_graph_strategy_without_project(self, graph_result):
        from repro.optimizer.graph_dp import GraphStrategy

        assert isinstance(graph_result.strategy, GraphStrategy)
        assert graph_result.project is None
        assert "generated sources" not in graph_result.summary()

    def test_simulate_matches_forward_graph(self, graph_result):
        from repro.nn.functional import forward_graph, init_graph_weights

        graph = graph_result.network
        weights = init_graph_weights(graph)
        data = np.random.default_rng(5).normal(size=graph.input_spec.shape)
        sim = graph_result.simulate(data, weights)
        np.testing.assert_allclose(
            sim.output, forward_graph(graph, data, weights), atol=1e-9
        )

    def test_serve(self, graph_result):
        result = graph_result.serve(replicas=2).run_open_loop(
            num_requests=30, load=1.5, seed=0
        )
        assert result.metrics.requests == 30

    def test_fallback_is_chain_only(self, graph_result):
        with pytest.raises(OptimizationError, match="chain-only"):
            graph_result.fallback_strategy()

    def test_codegen_outputs_rejected(self, tmp_path):
        with pytest.raises(OptimizationError, match="chain-only"):
            compile_model(
                models.tiny_resnet(), device="testchip", output_dir=tmp_path
            )


class TestFallbackStrategy:
    def test_fallback_keeps_the_compile_transfer_constraint(self):
        budget = 2 * 2**20
        result = compile_model(
            models.vgg_fused_prefix(), device="zc706",
            transfer_constraint_bytes=budget,
        )
        fallback = result.fallback_strategy()
        assert fallback.feature_transfer_bytes <= budget
        assert fallback.latency_cycles >= result.strategy.latency_cycles
        assert result.transfer_constraint_bytes == budget
