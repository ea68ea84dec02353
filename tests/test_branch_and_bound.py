"""Tests for Algorithm 2 (the fused-group branch-and-bound)."""

import pytest

from repro.errors import OptimizationError
from repro.hardware.device import FPGADevice, get_device
from repro.hardware.resources import ResourceVector
from repro.nn import models
from repro.nn.layers import ConvLayer, InputSpec, PoolLayer
from repro.nn.network import Network
from repro.optimizer.branch_and_bound import GroupSearch, fuse_group
from repro.optimizer.exhaustive import best_group_design
from repro.perf.implement import Algorithm
from repro.toolflow import compile_model


@pytest.fixture
def testchip():
    return get_device("testchip")


@pytest.fixture
def tiny(testchip):
    return models.tiny_cnn()


class TestFusion:
    def test_matches_exhaustive_on_single_layers(self, tiny, testchip):
        search = GroupSearch(tiny, testchip)
        for i in range(len(tiny)):
            bb = search.fusion(i, i + 1)
            oracle = best_group_design(tiny, i, i + 1, testchip)
            assert bb is not None and oracle is not None
            assert bb.latency_cycles == oracle.latency_cycles

    def test_matches_exhaustive_on_pairs(self, tiny, testchip):
        search = GroupSearch(tiny, testchip)
        for i in range(len(tiny) - 1):
            bb = search.fusion(i, i + 2)
            oracle = best_group_design(tiny, i, i + 2, testchip)
            assert bb.latency_cycles == oracle.latency_cycles

    def test_matches_exhaustive_full_group(self, tiny, testchip):
        bb = GroupSearch(tiny, testchip).fusion(0, len(tiny))
        oracle = best_group_design(tiny, 0, len(tiny), testchip)
        assert bb.latency_cycles == oracle.latency_cycles

    def test_mixed_net_matches_exhaustive(self, mixed_net, testchip):
        search = GroupSearch(mixed_net, testchip)
        bb = search.fusion(0, 3)
        oracle = best_group_design(mixed_net, 0, 3, testchip)
        assert bb.latency_cycles == oracle.latency_cycles

    def test_cache_returns_same_object(self, tiny, testchip):
        search = GroupSearch(tiny, testchip)
        assert search.fusion(0, 2) is search.fusion(0, 2)

    def test_out_of_range(self, tiny, testchip):
        search = GroupSearch(tiny, testchip)
        with pytest.raises(OptimizationError):
            search.fusion(0, 99)
        with pytest.raises(OptimizationError):
            search.fusion(2, 2)

    def test_one_shot_helper(self, tiny, testchip):
        design = fuse_group(tiny, 0, 2, testchip)
        assert design is not None
        assert len(design.implementations) == 2


class TestConstraints:
    def test_depth_cap_counts_convs_only(self, testchip):
        # 5 convs + pool exceeds testchip's max_fusion_depth of 4 convs
        layers = [
            ConvLayer(name=f"c{i}", out_channels=4, kernel=3, pad=1) for i in range(5)
        ]
        net = Network("deep", InputSpec(2, 12, 12), layers)
        search = GroupSearch(net, testchip)
        assert search.fusion(0, 5) is None
        assert search.fusion(0, 4) is not None

    def test_infeasible_on_starved_device(self, tiny):
        starved = FPGADevice(
            name="starved",
            resources=ResourceVector(bram18k=2, dsp=4, ff=10_000, lut=6_000),
            bandwidth_bytes_per_s=1e9,
            frequency_hz=100e6,
        )
        search = GroupSearch(tiny, starved)
        assert search.fusion(0, len(tiny)) is None

    def test_fifo_overhead_past_device_is_infeasible(self, testchip):
        # 45 FIFO channels need 18,000 LUTs, more than testchip's 16,000;
        # pools do not count toward the fusion-depth cap, so only the
        # resource guard stops this group.
        layers = [ConvLayer(name="c", out_channels=4, kernel=3, pad=1)] + [
            PoolLayer(name=f"p{i}", kernel=3, stride=1, pad=1) for i in range(45)
        ]
        net = Network("long", InputSpec(2, 6, 6), layers)
        assert GroupSearch(net, testchip).fusion(0, 46) is None
        result = compile_model(net, device=testchip)
        assert result.strategy.boundaries[-1][1] == 46
        for design in result.strategy.designs:
            assert design.resources.fits(testchip.resources)

    def test_design_fits_device(self, tiny, testchip):
        design = GroupSearch(tiny, testchip).fusion(0, len(tiny))
        assert design.resources.fits(testchip.resources)

    def test_algorithm_filter_restricts_convs(self, tiny, testchip):
        conventional_only = GroupSearch(
            tiny,
            testchip,
            algorithm_filter=lambda info, algo: not isinstance(
                info.layer, ConvLayer
            )
            or algo == Algorithm.CONVENTIONAL,
        )
        design = conventional_only.fusion(0, len(tiny))
        for impl in design.implementations:
            assert impl.algorithm != Algorithm.WINOGRAD

    def test_filter_never_worse_than_restricted_space(self, tiny, testchip):
        free = GroupSearch(tiny, testchip).fusion(0, len(tiny))
        pinned = GroupSearch(
            tiny,
            testchip,
            algorithm_filter=lambda info, algo: algo != Algorithm.WINOGRAD,
        ).fusion(0, len(tiny))
        assert free.latency_cycles <= pinned.latency_cycles


class TestNodeBudget:
    def test_budget_returns_incumbent(self, tiny, testchip):
        capped = GroupSearch(tiny, testchip, node_budget=10)
        design = capped.fusion(0, len(tiny))
        assert design is not None  # best incumbent, not necessarily optimal
        exact = GroupSearch(tiny, testchip, node_budget=0).fusion(0, len(tiny))
        assert design.latency_cycles >= exact.latency_cycles

    def test_unbounded_budget_is_exact(self, tiny, testchip):
        exact = GroupSearch(tiny, testchip, node_budget=0).fusion(0, len(tiny))
        oracle = best_group_design(tiny, 0, len(tiny), testchip)
        assert exact.latency_cycles == oracle.latency_cycles
