"""Tests for Algorithm 1 (the transfer-constrained DP) in both forms."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import OptimizationError
from repro.hardware.device import get_device
from repro.nn import models
from repro.optimizer.dp import (
    FrontierOptimizer,
    minimum_transfer_bytes,
    optimize,
    optimize_many,
    transfer_latency_frontier,
    transfer_units,
    TRANSFER_UNIT_BYTES,
)
from repro.optimizer.exhaustive import exhaustive_optimize, optimize_tabular
from repro.perf.cost import EvalContext
from tests.test_invariants import random_networks

KB = 1024
MB = 1024 * KB


@pytest.fixture
def testchip():
    return get_device("testchip")


@pytest.fixture
def tiny():
    return models.tiny_cnn()


class TestTransferUnits:
    def test_rounds_up(self):
        assert transfer_units(1) == 1
        assert transfer_units(TRANSFER_UNIT_BYTES) == 1
        assert transfer_units(TRANSFER_UNIT_BYTES + 1) == 2
        assert transfer_units(0) == 0

    def test_negative_rejected(self):
        with pytest.raises(OptimizationError):
            transfer_units(-5)


class TestOptimize:
    def test_matches_exhaustive_oracle(self, tiny, testchip):
        for budget in (
            tiny.min_fused_transfer_bytes(),
            tiny.feature_map_bytes() // 2,
            tiny.feature_map_bytes(),
        ):
            ours = optimize(tiny, testchip, budget)
            oracle = exhaustive_optimize(tiny, testchip, budget)
            assert ours.latency_cycles == oracle.latency_cycles, budget

    def test_respects_transfer_constraint(self, tiny, testchip):
        budget = tiny.min_fused_transfer_bytes()
        strategy = optimize(tiny, testchip, budget)
        assert strategy.feature_transfer_bytes <= budget

    def test_latency_monotone_in_budget(self, tiny, testchip):
        budgets = [
            tiny.min_fused_transfer_bytes(),
            2 * tiny.min_fused_transfer_bytes(),
            tiny.feature_map_bytes(),
        ]
        latencies = [optimize(tiny, testchip, b).latency_cycles for b in budgets]
        assert latencies == sorted(latencies, reverse=True) or len(set(latencies)) < 3

    def test_infeasible_budget_raises(self, tiny, testchip):
        with pytest.raises(OptimizationError):
            optimize(tiny, testchip, 100)  # 100 bytes is hopeless

    def test_mixed_net_strided_conv_conventional(self, mixed_net, testchip):
        strategy = optimize(mixed_net, testchip, mixed_net.feature_map_bytes())
        by_name = {c.layer_name: c for c in strategy.choices()}
        assert by_name["c1"].algorithm.value == "conventional"  # stride 2

    def test_optimize_many_matches_individual(self, tiny, testchip):
        budgets = [tiny.min_fused_transfer_bytes(), tiny.feature_map_bytes()]
        batch = optimize_many(tiny, testchip, budgets)
        for budget, strategy in zip(budgets, batch):
            assert (
                strategy.latency_cycles
                == optimize(tiny, testchip, budget).latency_cycles
            )


class TestFrontier:
    def test_frontier_sorted_and_non_dominated(self, tiny, testchip):
        frontier = transfer_latency_frontier(tiny, testchip)
        transfers = [t for t, _ in frontier]
        latencies = [l for _, l in frontier]
        assert transfers == sorted(transfers)
        assert latencies == sorted(latencies, reverse=True)

    def test_minimum_transfer_is_fused_boundary(self, tiny, testchip):
        assert minimum_transfer_bytes(tiny, testchip) == tiny.min_fused_transfer_bytes()

    def test_best_plan_picks_cheapest_feasible(self, tiny, testchip):
        optimizer = FrontierOptimizer(tiny, testchip)
        plan = optimizer.best_plan(tiny.feature_map_bytes())
        frontier = optimizer.frontier(0, len(tiny))
        assert plan.latency_cycles == min(p.latency_cycles for p in frontier)

    def test_infeasible_plan_message_has_minimum(self, tiny, testchip):
        optimizer = FrontierOptimizer(tiny, testchip)
        with pytest.raises(OptimizationError, match="minimum achievable"):
            optimizer.best_plan(10)


def _filtered(plans, budget):
    return [plan for plan in plans if plan.transfer_bytes <= budget]


class TestBudgetedFrontier:
    """A budget only gates which ``fusion[i][j]`` are searched: the
    answer is the unbudgeted frontier filtered to the budget."""

    @settings(max_examples=30, deadline=None)
    @given(net=random_networks(), data=st.data())
    def test_equals_filtered_unbudgeted_frontier(self, net, data):
        device = get_device("testchip")
        n = len(net)
        start = data.draw(st.integers(0, n - 1), label="start")
        stop = data.draw(st.integers(start + 1, n), label="stop")
        full = FrontierOptimizer(net, device).frontier(start, stop)
        edges = [plan.transfer_bytes + d for plan in full for d in (-1, 0)]
        top = net.feature_map_bytes(device.element_bytes)
        budgets = data.draw(
            st.lists(
                st.one_of(st.integers(0, top), st.sampled_from(edges or [0])),
                min_size=1, max_size=3,
            ),
            label="budgets",
        )
        # One optimizer answers every budget in turn, so later queries
        # exercise both the cached filter and the rebuild.
        optimizer = FrontierOptimizer(net, device)
        for budget in budgets:
            assert optimizer.frontier(start, stop, budget) == _filtered(
                full, budget
            ), budget

    @settings(max_examples=6, deadline=None)
    @given(net=random_networks(), data=st.data())
    def test_optimize_matches_exhaustive_oracle(self, net, data):
        device = get_device("testchip")
        low = min(
            plan.transfer_bytes
            for plan in FrontierOptimizer(net, device).frontier(0, len(net))
        )
        budget = data.draw(
            st.integers(low, net.feature_map_bytes(device.element_bytes)),
            label="budget",
        )
        context = EvalContext()
        ours = optimize(net, device, budget, context=context)
        oracle = exhaustive_optimize(net, device, budget, context=context)
        assert ours.latency_cycles == oracle.latency_cycles
        assert ours.feature_transfer_bytes <= budget

    @settings(max_examples=15, deadline=None)
    @given(net=random_networks(), data=st.data())
    def test_infeasible_budget_hint_is_exact_minimum(self, net, data):
        device = get_device("testchip")
        minimum = minimum_transfer_bytes(net, device)
        budget = data.draw(st.integers(0, minimum - 1), label="budget")
        with pytest.raises(
            OptimizationError,
            match=f"the minimum achievable is {minimum} bytes$",
        ):
            FrontierOptimizer(net, device).best_plan(budget)

    @pytest.mark.parametrize(
        "name, build, budget",
        [
            ("vgg_e", models.vgg_fused_prefix, 2 * MB),
            (
                "alexnet_prefix8",
                lambda: models.alexnet().prefix(8, name="alexnet_prefix8"),
                512 * KB,
            ),
        ],
    )
    def test_thread_prewarm_searches_what_serial_does(self, name, build, budget):
        zc706 = get_device("zc706")
        network = build()
        serial_ctx, threaded_ctx = EvalContext(), EvalContext()
        serial = optimize(network, zc706, budget, context=serial_ctx)
        threaded = optimize(
            network, zc706, budget, workers=2, context=threaded_ctx
        )
        assert threaded.boundaries == serial.boundaries
        assert threaded.latency_cycles == serial.latency_cycles
        for field in ("groups_searched", "nodes_visited", "nodes_pruned"):
            assert getattr(threaded_ctx.stats, field) == getattr(
                serial_ctx.stats, field
            ), field
        if name == "vgg_e":
            # Table 1's 2 MB admits one range, [0:7].
            assert serial_ctx.stats.groups_searched == 1
            assert serial.latency_cycles == 2_600_192


class TestTabular:
    def test_tabular_matches_frontier(self, tiny, testchip):
        # Coarse unit keeps the cubic loops fast; generous budget so the
        # unit quantization is not binding.
        budget = tiny.feature_map_bytes()
        frontier = optimize(tiny, testchip, budget)
        tabular = optimize_tabular(tiny, testchip, budget, unit_bytes=1024)
        assert tabular.latency_cycles == frontier.latency_cycles

    def test_tabular_tight_budget(self, tiny, testchip):
        budget = tiny.min_fused_transfer_bytes()
        tabular = optimize_tabular(tiny, testchip, budget, unit_bytes=256)
        assert tabular.feature_transfer_bytes <= budget + 256 * len(tiny)

    def test_tabular_infeasible_raises(self, tiny, testchip):
        with pytest.raises(OptimizationError):
            optimize_tabular(tiny, testchip, 64, unit_bytes=64)

    def test_tabular_group_structure_valid(self, tiny, testchip):
        strategy = optimize_tabular(
            tiny, testchip, tiny.feature_map_bytes(), unit_bytes=1024
        )
        strategy.validate()


class TestEmptyNetwork:
    def test_empty_rejected(self, testchip):
        empty = models.tiny_cnn().prefix(0)
        with pytest.raises(OptimizationError):
            optimize(empty, testchip, 10**9)
        with pytest.raises(OptimizationError):
            optimize_tabular(empty, testchip, 10**9)
