"""Tests for strategy save/load round-tripping."""

import json

import pytest

from repro.errors import (
    ArtifactError,
    ArtifactMismatchError,
    ArtifactVersionError,
)
from repro.hardware.device import get_device
from repro.nn import models
from repro.optimizer.dp import optimize
from repro.optimizer.serialize import (
    SCHEMA_VERSION,
    load_strategy,
    save_strategy,
    strategy_from_dict,
    strategy_to_dict,
)


@pytest.fixture(scope="module")
def setup():
    net = models.tiny_cnn()
    dev = get_device("testchip")
    strategy = optimize(net, dev, net.feature_map_bytes())
    return net, dev, strategy


class TestRoundTrip:
    def test_save_load_identical_cost(self, setup, tmp_path):
        net, dev, strategy = setup
        path = save_strategy(strategy, tmp_path / "s.json")
        reloaded = load_strategy(path, net)
        assert reloaded.latency_cycles == strategy.latency_cycles
        assert reloaded.feature_transfer_bytes == strategy.feature_transfer_bytes
        assert reloaded.boundaries == strategy.boundaries

    def test_choices_preserved(self, setup, tmp_path):
        net, dev, strategy = setup
        path = save_strategy(strategy, tmp_path / "s.json")
        reloaded = load_strategy(path, net)
        for a, b in zip(strategy.choices(), reloaded.choices()):
            assert a == b

    def test_dict_schema(self, setup):
        _, _, strategy = setup
        payload = strategy_to_dict(strategy)
        assert payload["schema_version"] == SCHEMA_VERSION
        assert payload["device"] == "testchip"
        total_layers = sum(len(g["layers"]) for g in payload["groups"])
        assert total_layers == len(strategy.network)

    def test_explicit_device_override(self, setup, tmp_path):
        net, dev, strategy = setup
        path = save_strategy(strategy, tmp_path / "s.json")
        reloaded = load_strategy(path, net, device=dev)
        assert reloaded.device is dev

    def test_file_is_valid_json(self, setup, tmp_path):
        _, _, strategy = setup
        path = save_strategy(strategy, tmp_path / "s.json")
        json.loads(path.read_text())

    def test_reloaded_strategy_simulates_identically(self, setup, tmp_path):
        """A reloaded strategy is the same *executable* artifact.

        Same seeded input and weights through the original and the
        round-tripped strategy must give identical simulated latency
        and identical functional output.
        """
        import numpy as np

        from repro.nn.functional import init_weights
        from repro.sim.simulator import simulate_strategy

        net, _, strategy = setup
        path = save_strategy(strategy, tmp_path / "s.json")
        reloaded = load_strategy(path, net)
        rng = np.random.default_rng(7)
        data = rng.normal(0, 0.5, net.input_spec.shape)
        weights = init_weights(net, np.random.default_rng(7))
        original = simulate_strategy(strategy, data, weights)
        roundtrip = simulate_strategy(reloaded, data, weights)
        assert roundtrip.latency_cycles == original.latency_cycles
        np.testing.assert_array_equal(roundtrip.output, original.output)

    def test_reloaded_strategy_same_service_model(self, setup, tmp_path):
        """Batched serving cost is preserved across the round trip."""
        from repro.sim.simulator import build_service_model

        net, _, strategy = setup
        path = save_strategy(strategy, tmp_path / "s.json")
        reloaded = load_strategy(path, net)
        original = build_service_model(strategy)
        roundtrip = build_service_model(reloaded)
        for size in (1, 4, 16):
            assert roundtrip.batch_cycles(size) == original.batch_cycles(size)


class TestValidation:
    def test_wrong_schema_version(self, setup):
        net, _, strategy = setup
        payload = strategy_to_dict(strategy)
        payload["schema_version"] = 999
        with pytest.raises(ArtifactVersionError) as excinfo:
            strategy_from_dict(payload, net)
        assert excinfo.value.code == "E_VERSION"

    def test_layer_name_mismatch(self, setup):
        net, _, strategy = setup
        payload = strategy_to_dict(strategy)
        payload["groups"][0]["layers"][0]["name"] = "imposter"
        with pytest.raises(ArtifactMismatchError) as excinfo:
            strategy_from_dict(payload, net)
        assert excinfo.value.code == "E_NETWORK"
        assert "groups[0].layers[0].name" in excinfo.value.json_path

    def test_stale_latency_detected(self, setup):
        net, _, strategy = setup
        payload = strategy_to_dict(strategy)
        payload["latency_cycles"] = 1
        with pytest.raises(ArtifactMismatchError, match="cost model"):
            strategy_from_dict(payload, net)

    def test_wrong_network_rejected(self, setup, tmp_path):
        _, _, strategy = setup
        path = save_strategy(strategy, tmp_path / "s.json")
        other = models.alexnet()
        with pytest.raises(ArtifactError) as excinfo:
            load_strategy(path, other)
        assert excinfo.value.code in ("E_NETWORK", "E_CHECKSUM")


class TestGraphStrategies:
    def test_compiled_dag_saves_loads_and_verifies(self, tmp_path):
        from repro.check.invariants import verify_strategy
        from repro.toolflow import compile_model

        graph = models.tiny_resnet()
        strategy = compile_model(graph, "testchip").strategy
        path = save_strategy(strategy, tmp_path / "dag.json")
        reloaded = load_strategy(path, graph)
        assert reloaded.report() == strategy.report()
        assert reloaded.latency_cycles == strategy.latency_cycles
        assert verify_strategy(reloaded).ok

    def test_graph_payload_needs_a_graph(self, tmp_path):
        from repro.toolflow import compile_model

        strategy = compile_model(models.tiny_resnet(), "testchip").strategy
        path = save_strategy(strategy, tmp_path / "dag.json")
        with pytest.raises(ArtifactError):
            load_strategy(path, models.tiny_cnn())

    def test_engine_drift_in_fused_block_detected(self):
        from repro.toolflow import compile_model

        graph = models.tiny_resnet()
        payload = strategy_to_dict(compile_model(graph, "zc706").strategy)
        fused = payload["segments"][1]
        assert fused["kind"] == "fused"
        fused["branches"][1][0]["parallelism"] //= 2
        with pytest.raises(ArtifactMismatchError) as excinfo:
            strategy_from_dict(payload, graph)
        assert excinfo.value.code == "E_DRIFT"

    def test_segment_kind_mismatch_is_typed(self):
        from repro.toolflow import compile_model

        graph = models.tiny_resnet()
        payload = strategy_to_dict(compile_model(graph, "testchip").strategy)
        payload["segments"][1]["kind"] = "chain"
        with pytest.raises(ArtifactMismatchError) as excinfo:
            strategy_from_dict(payload, graph)
        assert excinfo.value.code == "E_NETWORK"
        assert excinfo.value.json_path.endswith("segments[1].kind")
