"""Tests for device variants and the sweeps that run them."""

import pytest

from repro.dse.grid import GridSpec
from repro.dse.sweep import sweep_grid
from repro.errors import OptimizationError
from repro.hardware.device import get_device
from repro.hardware.dse import scale_bandwidth, scale_fabric
from repro.nn import models
from repro.optimizer.dp import optimize
from repro.perf.cost import EvalContext
from repro.perf.implement import Algorithm


@pytest.fixture(scope="module")
def setup():
    net = models.tiny_cnn()
    dev = get_device("testchip")
    return net, dev, net.feature_map_bytes()


class TestScaling:
    def test_scale_bandwidth(self):
        dev = get_device("testchip")
        scaled = scale_bandwidth(dev, 2.0)
        assert scaled.bandwidth_bytes_per_s == pytest.approx(
            2 * dev.bandwidth_bytes_per_s
        )
        assert scaled.resources == dev.resources
        assert "bw2x" in scaled.name

    def test_scale_fabric(self):
        dev = get_device("testchip")
        scaled = scale_fabric(dev, 0.5)
        assert scaled.resources.dsp == dev.resources.dsp // 2
        assert scaled.bandwidth_bytes_per_s == dev.bandwidth_bytes_per_s

    def test_invalid_factors(self):
        dev = get_device("testchip")
        with pytest.raises(OptimizationError):
            scale_bandwidth(dev, 0)
        with pytest.raises(OptimizationError):
            scale_fabric(dev, -1)


class TestSweeps:
    def test_bandwidth_sweep_monotone(self, setup, tmp_path):
        net, dev, budget = setup
        spec = GridSpec(
            models=("tiny_cnn",),
            devices=(dev.name,),
            bandwidth_factors=(0.5, 1.0, 4.0),
            transfer_bytes=(budget,),
        )
        result = sweep_grid(spec, tmp_path / "out")
        assert result.ok
        latencies = [r["result"]["latency_cycles"] for r in result.records]
        # More bandwidth can never hurt the optimum.
        assert latencies == sorted(latencies, reverse=True) or len(set(latencies)) == 1

    def test_fabric_sweep_monotone(self, setup):
        net, dev, budget = setup
        context = EvalContext()
        latencies = [
            optimize(net, scale_fabric(dev, factor), budget, context=context)
            .latency_cycles
            for factor in (0.5, 1.0, 2.0)
        ]
        assert latencies[0] >= latencies[-1]

    def test_sweep_points_carry_strategies(self, setup):
        net, dev, budget = setup
        variant = scale_bandwidth(dev, 1.0)
        strategy = optimize(net, variant, budget, context=EvalContext())
        winograd_layers = sum(
            choice.algorithm == Algorithm.WINOGRAD
            for choice in strategy.choices()
        )
        assert strategy.effective_gops() > 0
        assert winograd_layers >= 0
        assert strategy.peak_resources.fits(variant.resources)
