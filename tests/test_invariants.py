"""Cross-cutting property tests on randomly generated networks.

Hypothesis builds small random (but valid) CNNs; for each one the whole
stack must uphold its invariants: shape inference is consistent, the
optimizer's strategies fit the device and the transfer budget, the
simulator reproduces the reference forward pass, and strategies survive
serialization.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.hardware.device import get_device
from repro.nn.functional import forward, init_weights
from repro.nn.layers import ConvLayer, InputSpec, LRNLayer, PoolLayer
from repro.nn.network import Network
from repro.optimizer.dp import optimize
from repro.optimizer.serialize import strategy_from_dict, strategy_to_dict
from repro.sim.simulator import simulate_strategy


@st.composite
def random_networks(draw):
    """A random 2-4 layer accelerated chain with valid shapes."""
    height = draw(st.integers(10, 20))
    channels = draw(st.integers(1, 4))
    layer_count = draw(st.integers(2, 4))
    layers = []
    shape = (channels, height, height)
    for index in range(layer_count):
        kind = draw(st.sampled_from(["conv", "conv", "pool", "lrn"]))
        if kind == "conv":
            kernel = draw(st.sampled_from([1, 3, 5]))
            stride = draw(st.sampled_from([1, 1, 2]))
            pad = kernel // 2
            out_channels = draw(st.integers(2, 8))
            layer = ConvLayer(
                name=f"l{index}",
                out_channels=out_channels,
                kernel=kernel,
                stride=stride,
                pad=pad,
                relu=draw(st.booleans()),
            )
        elif kind == "pool":
            layer = PoolLayer(
                name=f"l{index}",
                kernel=2,
                stride=2,
                mode=draw(st.sampled_from(["max", "ave"])),
            )
        else:
            layer = LRNLayer(name=f"l{index}", local_size=3)
        # keep spatial extent workable
        try:
            new_shape = layer.output_shape(shape)
        except Exception:
            continue
        if new_shape[1] < 4 or new_shape[2] < 4:
            continue
        layers.append(layer)
        shape = new_shape
    if not layers:
        layers = [ConvLayer(name="l0", out_channels=2, kernel=3, pad=1)]
    return Network("random", InputSpec(channels, height, height), layers)


class TestOptimizerInvariants:
    @settings(max_examples=12, deadline=None)
    @given(net=random_networks())
    def test_strategy_fits_device_and_budget(self, net):
        device = get_device("testchip")
        budget = net.feature_map_bytes()
        strategy = optimize(net, device, budget)
        strategy.validate(budget)
        assert strategy.feature_transfer_bytes <= budget
        for design in strategy.designs:
            assert design.resources.fits(device.resources)

    @settings(max_examples=8, deadline=None)
    @given(net=random_networks())
    def test_tighter_budget_never_faster(self, net):
        device = get_device("testchip")
        tight = net.min_fused_transfer_bytes()
        loose = net.feature_map_bytes()
        fused = optimize(net, device, tight)
        free = optimize(net, device, loose)
        assert free.latency_cycles <= fused.latency_cycles


class TestSimulatorInvariants:
    @settings(max_examples=8, deadline=None)
    @given(net=random_networks(), seed=st.integers(0, 2**16))
    def test_simulation_matches_reference(self, net, seed):
        device = get_device("testchip")
        strategy = optimize(net, device, net.feature_map_bytes())
        rng = np.random.default_rng(seed)
        weights = init_weights(net, rng)
        data = rng.normal(size=net.input_spec.shape)
        result = simulate_strategy(strategy, data, weights)
        expected = forward(net, data, weights)
        np.testing.assert_allclose(result.output, expected, atol=1e-7)
        assert result.latency_cycles > 0


class TestSerializationInvariants:
    @settings(max_examples=8, deadline=None)
    @given(net=random_networks())
    def test_roundtrip_preserves_cost(self, net):
        device = get_device("testchip")
        strategy = optimize(net, device, net.feature_map_bytes())
        payload = strategy_to_dict(strategy)
        reloaded = strategy_from_dict(payload, net)
        assert reloaded.latency_cycles == strategy.latency_cycles
        assert reloaded.choices() == strategy.choices()

    @settings(max_examples=6, deadline=None)
    @given(net=random_networks())
    def test_optimized_strategy_passes_validators(self, net):
        from repro.check import verify_strategy

        device = get_device("testchip")
        budget = net.feature_map_bytes()
        strategy = optimize(net, device, budget)
        report = verify_strategy(strategy, transfer_constraint_bytes=budget)
        assert report.ok, report.summary()


class TestPartitionPlanInvariants:
    @settings(max_examples=6, deadline=None)
    @given(net=random_networks())
    def test_plan_roundtrip_and_validators(self, net):
        from repro.check import verify_plan
        from repro.partition.plan import plan_from_dict
        from repro.toolflow import partition_model

        plan = partition_model(net, devices="testchip,testchip")
        report = verify_plan(plan)
        assert report.ok, report.summary()
        reloaded = plan_from_dict(plan.to_dict(), plan.network)
        assert reloaded.num_stages == plan.num_stages
        assert reloaded.bottleneck_seconds == plan.bottleneck_seconds
        assert reloaded.latency_seconds == plan.latency_seconds
        assert [p.device_index for p in reloaded.placements] == [
            p.device_index for p in plan.placements
        ]
        assert [t.tensor_bytes for t in reloaded.transfers] == [
            t.tensor_bytes for t in plan.transfers
        ]
        assert verify_plan(reloaded).ok


class TestFusedBlockInvariants:
    """A fused fork-join block is checked engine by engine, then
    recomposed through the search's own fused composition."""

    def _tampered(self, scale_compute=1, scale_total=1):
        from dataclasses import replace

        from repro.nn import models
        from repro.toolflow import compile_model

        strategy = compile_model(models.tiny_resnet(), "zc706").strategy
        index = [s.kind for s in strategy.segments].index("fused")
        segment = strategy.segments[index]
        branches = list(segment.branch_implementations)
        engines = list(branches[1])
        engines[0] = replace(
            engines[0], compute_cycles=engines[0].compute_cycles * scale_compute
        )
        branches[1] = tuple(engines)
        strategy.segments[index] = replace(
            segment,
            branch_implementations=tuple(branches),
            compute_cycles=segment.compute_cycles * scale_total,
        )
        return strategy, index

    def test_clean_block_verifies(self):
        from repro.check.invariants import verify_strategy

        strategy, _ = self._tampered()
        assert verify_strategy(strategy).ok

    def test_branch_engine_drift_is_caught(self):
        from repro.check.invariants import V_COST_DRIFT, verify_strategy

        strategy, index = self._tampered(scale_compute=7)
        report = verify_strategy(strategy)
        assert not report.ok
        assert any(
            v.code == V_COST_DRIFT
            and v.where == f"segments[{index}].branches[1].layers[0]"
            for v in report.violations
        )

    def test_recorded_totals_must_recompose(self):
        from repro.check.invariants import V_CYCLES, verify_strategy

        strategy, index = self._tampered(scale_total=2)
        report = verify_strategy(strategy)
        assert [(v.code, v.where) for v in report.violations] == [
            (V_CYCLES, f"segments[{index}]"),
        ]
        assert "compute_cycles" in report.violations[0].message
