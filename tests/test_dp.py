"""Tests for Algorithm 1 (the transfer-constrained DP) in both forms.

The Pareto-frontier DP is checked against the brute-force oracle and
against :func:`optimize_tabular`, the paper's Algorithm 1 as its literal
triple loop over quantized transfer budgets.
"""

from typing import List, Optional, Tuple

import pytest
from hypothesis import given, settings, strategies as st

from repro.arch.fusion import group_min_transfer_bytes
from repro.errors import OptimizationError
from repro.hardware.device import FPGADevice, get_device
from repro.nn import models
from repro.nn.network import Network
from repro.optimizer.branch_and_bound import GroupSearch
from repro.optimizer.dp import (
    FrontierOptimizer,
    minimum_transfer_bytes,
    optimize,
    optimize_many,
    transfer_latency_frontier,
    transfer_units,
    TRANSFER_UNIT_BYTES,
)
from repro.optimizer.exhaustive import exhaustive_optimize, exhaustive_optimize_many
from repro.optimizer.strategy import Strategy
from repro.perf.cost import CostModel, EvalContext
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
        budgets = [
            tiny.min_fused_transfer_bytes(),
            tiny.feature_map_bytes() // 2,
            tiny.feature_map_bytes(),
        ]
        oracles = exhaustive_optimize_many(tiny, testchip, budgets)
        for budget, oracle in zip(budgets, oracles):
            ours = optimize(tiny, testchip, budget)
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
    def test_phase_split_matches_lazy_optimize(self, name, build, budget):
        # perfbench times the compile as separate phases: every range
        # searched up front, then the unbudgeted frontier, the pick
        # under T and materialize.  That order must reach the lazy
        # compile's strategy.
        zc706 = get_device("zc706")
        network = build()
        lazy_ctx = EvalContext()
        lazy = optimize(network, zc706, budget, context=lazy_ctx)
        optimizer = FrontierOptimizer(network, zc706, context=EvalContext())
        optimizer.search.precompute()
        optimizer.frontier(0, len(network))
        phased = optimizer.materialize(optimizer.best_plan(budget))
        assert phased.boundaries == lazy.boundaries
        assert phased.latency_cycles == lazy.latency_cycles
        if name == "vgg_e":
            # Table 1's 2 MB admits one range, [0:7].
            assert lazy_ctx.stats.groups_searched == 1
            assert lazy.latency_cycles == 2_600_192


# -- the paper's literal Algorithm 1 ------------------------------------------

_INF = float("inf")


def optimize_tabular(
    network: Network,
    device: FPGADevice,
    transfer_constraint_bytes: int,
    unit_bytes: int = TRANSFER_UNIT_BYTES,
    context: Optional[CostModel] = None,
) -> Strategy:
    """The paper's Algorithm 1, verbatim structure.

    Builds ``L[i][j][t]`` bottom-up over quantized transfer budgets with
    ``k_mark``/``t_mark`` backtracking, then materializes the strategy
    and regenerates each group's implementation details (Algorithm 1,
    lines 22-24).  Complexity O(N^3 T^2): keep ``unit_bytes`` coarse or
    budgets small; :func:`repro.optimizer.dp.optimize` is the fast
    equivalent, and the tests cross-check the two.
    """
    n = len(network)
    if n == 0:
        raise OptimizationError("cannot optimize an empty network")
    t_units = transfer_units(transfer_constraint_bytes, unit_bytes) + 1
    search = GroupSearch(network, device, context=context)

    # fusion[i][j] and min_t[i][j] (inclusive j), as in the paper.
    fusion: List[List[Optional[float]]] = [[None] * n for _ in range(n)]
    min_t: List[List[int]] = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            design = search.fusion(i, j + 1)
            fusion[i][j] = design.latency_cycles if design is not None else None
            min_t[i][j] = transfer_units(
                group_min_transfer_bytes(network, i, j + 1, device.element_bytes),
                unit_bytes,
            )

    # L[i][j][t], k_mark, t_mark.  j outer ascending, i descending, as in
    # the paper's loop nest.
    L = [[[_INF] * t_units for _ in range(n)] for _ in range(n)]
    k_mark = [[[-1] * t_units for _ in range(n)] for _ in range(n)]
    t_mark = [[[-1] * t_units for _ in range(n)] for _ in range(n)]
    for j in range(n):
        for i in range(j, -1, -1):
            for t in range(t_units):
                if t < min_t[i][j]:
                    continue  # L stays infinity
                fused = fusion[i][j]
                min_latency = fused if fused is not None else _INF
                k_flag, t_flag = j, t
                for k in range(i, j):
                    # Both halves must at least afford their minimal
                    # transfers (paper line 11).
                    if t < min_t[i][k] + min_t[k + 1][j]:
                        continue
                    for x in range(min_t[i][k], t - min_t[k + 1][j] + 1):
                        candidate = L[i][k][x] + L[k + 1][j][t - x]
                        if candidate < min_latency:
                            min_latency = candidate
                            k_flag, t_flag = k, x
                L[i][j][t] = min_latency
                k_mark[i][j][t] = k_flag
                t_mark[i][j][t] = t_flag

    final = L[0][n - 1][t_units - 1]
    if final == _INF:
        raise OptimizationError(
            f"no strategy fits transfer constraint {transfer_constraint_bytes} "
            f"bytes on {device.name}"
        )

    # Backtrack the fused structure (Algorithm 1, line 22).
    boundaries: List[Tuple[int, int]] = []

    def backtrack(i: int, j: int, t: int) -> None:
        k = k_mark[i][j][t]
        if k == j:
            boundaries.append((i, j + 1))
            return
        x = t_mark[i][j][t]
        backtrack(i, k, x)
        backtrack(k + 1, j, t - x)

    backtrack(0, n - 1, t_units - 1)
    boundaries.sort()
    designs = []
    for start, stop in boundaries:
        design = search.fusion(start, stop)
        if design is None:
            raise OptimizationError("backtracked group is infeasible")
        designs.append(design)
    return Strategy(
        network, device, boundaries, designs,
        telemetry=search.context.stats,
    )


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
