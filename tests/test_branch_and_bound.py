"""Tests for Algorithm 2 (the fused-group branch-and-bound)."""

import itertools
import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.errors import OptimizationError
from repro.hardware.device import DEVICES, FPGADevice, get_device
from repro.hardware.resources import ResourceVector
from repro.nn import models
from repro.nn.layers import ConvLayer, InputSpec, LRNLayer, PoolLayer
from repro.nn.modules import InceptionModule, InceptionSpec
from repro.nn.network import Network
from repro.optimizer.branch_and_bound import (
    NO_LAYERS,
    GroupSearch,
    extend_floors,
    fuse_group,
)
from repro.optimizer.exhaustive import best_group_design
from repro.perf.cost import EvalContext
from repro.perf.implement import (
    WINOGRAD_M,
    Algorithm,
    candidate_algorithms,
    candidate_parallelisms,
    candidate_weight_modes,
    candidate_winograd_tiles,
    implement,
)
from repro.toolflow import compile_model
from tests.test_cost_model import IndexKeyedContext


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
            algorithms=(Algorithm.CONVENTIONAL,),
        )
        design = conventional_only.fusion(0, len(tiny))
        for impl in design.implementations:
            assert impl.algorithm != Algorithm.WINOGRAD

    def test_filter_never_worse_than_restricted_space(self, tiny, testchip):
        free = GroupSearch(tiny, testchip).fusion(0, len(tiny))
        pinned = GroupSearch(
            tiny,
            testchip,
            algorithms=(Algorithm.CONVENTIONAL,),
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


@st.composite
def small_chains(draw):
    """Chains of 1-3 layers, at most two of them convolutions (the
    exhaustive oracle enumerates every combination of their menus)."""
    kinds = draw(
        st.lists(st.sampled_from(["conv", "pool", "lrn"]), min_size=1, max_size=3)
        .filter(lambda kinds: kinds.count("conv") <= 2)
    )
    layers = []
    for i, kind in enumerate(kinds):
        if kind == "conv":
            kernel = draw(st.sampled_from([1, 3, 5]))
            layers.append(ConvLayer(
                name=f"c{i}",
                out_channels=draw(st.integers(1, 1024)),
                kernel=kernel,
                stride=draw(st.sampled_from([1, 2])),
                pad=kernel // 2,
            ))
        elif kind == "pool":
            layers.append(PoolLayer(name=f"p{i}", kernel=3, stride=1, pad=1))
        else:
            layers.append(LRNLayer(name=f"n{i}", local_size=3))
    # Wide, small maps make weight traffic matter, so the DRAM floors
    # decide prunes.
    spec = InputSpec(
        draw(st.integers(1, 1024)), draw(st.integers(2, 32)), draw(st.integers(2, 32))
    )
    return Network("chain", spec, layers)


@st.composite
def engine_layers(draw):
    """One layer of any engine kind: a conv (grouped, strided or
    Winograd-eligible), a pool, an LRN or an Inception module."""
    channels = draw(st.integers(1, 48))
    size = draw(st.integers(4, 40))
    kind = draw(st.sampled_from(["conv", "pool", "lrn", "inception"]))
    if kind == "conv":
        kernel = draw(st.integers(1, min(7, size)))
        groups = draw(st.sampled_from([g for g in (1, 2, 3, 4) if channels % g == 0]))
        layer = ConvLayer(
            name="c",
            out_channels=groups * draw(st.integers(1, 24)),
            kernel=kernel,
            stride=draw(st.integers(1, 3)),
            pad=draw(st.integers(0, kernel // 2)),
            groups=groups,
        )
    elif kind == "pool":
        layer = PoolLayer(
            name="p", kernel=draw(st.integers(1, 3)), stride=draw(st.integers(1, 2))
        )
    elif kind == "lrn":
        layer = LRNLayer(name="n", local_size=draw(st.sampled_from([1, 3, 5, 7])))
    else:
        widths = draw(st.lists(st.integers(1, 32), min_size=6, max_size=6))
        layer = InceptionModule(name="i", spec=InceptionSpec(*widths))
    return Network("ladder", InputSpec(channels, size, size), [layer])[0]


class TestLadderInvariants:
    """What the search's per-option scan bisects on: along
    ``candidate_parallelisms`` (descending) compute and fill never fall,
    no resource ever grows, and weight traffic is constant — on every
    catalog device and every menu option."""

    @settings(max_examples=80, deadline=None)
    @given(info=engine_layers())
    def test_ladders_are_monotone(self, info):
        for device in DEVICES.values():
            for algorithm in candidate_algorithms(info):
                tiles = (
                    candidate_winograd_tiles(info, explore=True)
                    if algorithm == Algorithm.WINOGRAD
                    else [WINOGRAD_M]
                )
                for m in tiles:
                    for mode in candidate_weight_modes(info, algorithm, device, m):
                        ladder = [
                            implement(
                                info, algorithm, p, device,
                                weight_mode=mode, winograd_m=m,
                            )
                            for p in candidate_parallelisms(info, algorithm, device)
                        ]
                        for fast, slow in zip(ladder, ladder[1:]):
                            assert slow.parallelism < fast.parallelism
                            assert slow.compute_cycles >= fast.compute_cycles
                            assert slow.fill_cycles >= fast.fill_cycles
                            for field in ("bram18k", "dsp", "ff", "lut"):
                                assert getattr(slow.resources, field) <= getattr(
                                    fast.resources, field
                                )
                            assert slow.weight_dram_bytes == fast.weight_dram_bytes


class TestAdmissibleBounds:
    """Every pruning bound is a true lower bound, so an unbudgeted search
    always returns the optimum — also at vc709's fractional 85.3 B/cycle."""

    @pytest.mark.parametrize("device_name", ["testchip", "zc706", "vc709"])
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
    )
    @given(network=small_chains())
    def test_unbudgeted_search_matches_exhaustive(self, device_name, network):
        device = get_device(device_name)
        design = GroupSearch(network, device, node_budget=0).fusion(0, len(network))
        oracle = best_group_design(network, 0, len(network), device)
        if oracle is None:
            assert design is None
        else:
            assert design is not None
            assert design.latency_cycles == oracle.latency_cycles

    @pytest.mark.parametrize(
        "channels, height, width, layers",
        [
            (47, 4, 6, [
                ConvLayer(name="c0", out_channels=558, kernel=3, pad=1),
                PoolLayer(name="p1", kernel=3, stride=1, pad=1),
            ]),
            (960, 5, 2, [
                ConvLayer(name="c0", out_channels=622, kernel=1, stride=2),
                LRNLayer(name="n1", local_size=3),
            ]),
            (780, 3, 29, [
                ConvLayer(name="c0", out_channels=235, kernel=3, pad=1),
                PoolLayer(name="p1", kernel=3, stride=1, pad=1),
                ConvLayer(name="c2", out_channels=94, kernel=1, stride=2),
            ]),
        ],
    )
    def test_fractional_rate_keeps_the_optimum(self, channels, height, width, layers):
        # Dividing the transfer floors by vc709's whole 85 B/cycle instead
        # of its exact 85.33 pruned the optimum of each of these chains.
        vc709 = get_device("vc709")
        network = Network("chain", InputSpec(channels, height, width), layers)
        design = GroupSearch(network, vc709, node_budget=0).fusion(0, len(network))
        oracle = best_group_design(network, 0, len(network), vc709)
        assert design.latency_cycles == oracle.latency_cycles

    def test_floors_are_the_knapsack_optimum(self):
        rng = random.Random(7)
        max_dsp = 40
        menus = [
            [
                (rng.randrange(0, 25), rng.randrange(0, 500), rng.randrange(0, 900))
                for _ in range(rng.randrange(1, 6))
            ]
            for _ in range(4)
        ]
        floors = NO_LAYERS
        for depth in range(len(menus) - 1, -1, -1):
            floors = extend_floors(floors, menus[depth], max_dsp)
            suffix = menus[depth:]
            dsps, fills, transfers = floors
            for free in range(max_dsp + 1):
                fitting = [
                    combo
                    for combo in itertools.product(*suffix)
                    if sum(row[0] for row in combo) <= free
                ]
                j = sum(1 for d in dsps if d <= free)
                if not fitting:
                    assert j == 0
                    continue
                # The floors relax only the other resources: over the
                # DSP-feasible completions they are exact, so no feasible
                # completion can beat them.
                assert fills[j - 1] == min(
                    sum(row[1] for row in combo) for combo in fitting
                )
                assert transfers[j - 1] == min(
                    sum(row[2] for row in combo) for combo in fitting
                )


def test_alexnet_groups_finish_under_budget():
    searches = {}

    class Recording(EvalContext):
        def record_search(self, network_name, device_name, start, stop,
                          seconds, nodes_visited, nodes_pruned):
            super().record_search(network_name, device_name, start, stop,
                                  seconds, nodes_visited, nodes_pruned)
            searches[(start, stop)] = nodes_visited

    result = compile_model(models.alexnet(), device="zc706", context=Recording())
    assert result.strategy.latency_cycles == 1_424_226
    # Every search finishes under the default 250,000-node budget, so
    # every group is searched to proven optimality.
    assert searches
    assert max(searches.values()) < 250_000


@st.composite
def repeated_chains(draw):
    """Chains whose layers repeat: a shape-preserving unit of 1-2 layers
    repeated 2-3 times, so distinct ranges share layer signatures."""
    channels = draw(st.integers(1, 256))
    unit = []
    for kind in draw(
        st.lists(st.sampled_from(["conv", "pool", "lrn"]), min_size=1, max_size=2)
    ):
        if kind == "conv":
            kernel = draw(st.sampled_from([1, 3]))
            args = dict(out_channels=channels, kernel=kernel, pad=kernel // 2)
            unit.append((ConvLayer, args))
        elif kind == "pool":
            unit.append((PoolLayer, dict(kernel=3, stride=1, pad=1)))
        else:
            unit.append((LRNLayer, dict(local_size=3)))
    layers = [
        cls(name=f"l{r}_{i}", **args)
        for r in range(draw(st.integers(2, 3)))
        for i, (cls, args) in enumerate(unit)
    ]
    spec = InputSpec(channels, draw(st.integers(2, 24)), draw(st.integers(2, 24)))
    return Network("repeats", spec, layers)


def _all_ranges(network):
    n = len(network)
    return [(start, stop) for start in range(n) for stop in range(start + 1, n + 1)]


class TestGroupMemo:
    """Recalled designs are the designs a fresh search finds."""

    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(network=repeated_chains())
    def test_recall_matches_a_fresh_search(self, network):
        import tempfile

        from repro.dse.store import CostStore

        testchip = get_device("testchip")
        with tempfile.TemporaryDirectory() as root:
            # Memory tier: repeated ranges inside one search are recalled.
            context = EvalContext(store=CostStore(root))
            search = GroupSearch(network, testchip, node_budget=0, context=context)
            search.precompute()
            context.flush_store()
            keys = {
                search._group_key(start, stop)
                for start, stop in _all_ranges(network)
                if sum(isinstance(info.layer, ConvLayer)
                       for info in network.infos[start:stop])
                <= testchip.max_fusion_depth
            }
            assert len(keys) < len(_all_ranges(network))
            assert context.stats.groups_searched == len(keys)
            # Store tier: a fresh context reads every design back.
            warm_context = EvalContext(store=CostStore(root))
            warm = GroupSearch(network, testchip, context=warm_context)
            for start, stop in _all_ranges(network):
                fresh = GroupSearch(network, testchip, node_budget=0).fusion(
                    start, stop
                )
                assert search.fusion(start, stop) == fresh
                assert warm.fusion(start, stop) == fresh
            assert warm_context.stats.groups_searched == 0
            assert warm_context.stats.nodes_visited == 0

    def test_filtered_and_unfiltered_share_a_context(self, tiny, testchip):
        from repro.baselines.homogeneous import homogeneous_optimize
        from repro.optimizer.dp import optimize
        from repro.optimizer.serialize import strategy_to_dict

        budget = tiny.feature_map_bytes()
        runs = [
            lambda context: optimize(tiny, testchip, budget, context=context),
        ] + [
            lambda context, algorithm=algorithm: homogeneous_optimize(
                tiny, testchip, budget, algorithm, context=context
            )
            for algorithm in (Algorithm.CONVENTIONAL, Algorithm.WINOGRAD)
        ]
        private = [strategy_to_dict(run(EvalContext())) for run in runs]
        # Unfiltered first, then filtered first: a pinned menu must never
        # see the free search's designs, nor the reverse.
        for order in (runs, runs[::-1]):
            shared = EvalContext()
            results = [strategy_to_dict(run(shared)) for run in order]
            expected = private if order is runs else private[::-1]
            assert results == expected

    def test_repeated_baseline_recalls_every_search(self, tiny, testchip):
        from repro.baselines.homogeneous import homogeneous_optimize
        from repro.optimizer.serialize import strategy_to_dict

        budget = tiny.feature_map_bytes()
        shared = EvalContext()
        first = homogeneous_optimize(
            tiny, testchip, budget, Algorithm.CONVENTIONAL, context=shared
        )
        searched = shared.stats.groups_searched
        assert searched > 0
        again = homogeneous_optimize(
            tiny, testchip, budget, Algorithm.CONVENTIONAL, context=shared
        )
        assert shared.stats.groups_searched == searched
        assert strategy_to_dict(again) == strategy_to_dict(first)

    def test_pin_keys_only_ranges_it_cuts(self, tiny, testchip):
        """After a free compile on one context, a conventional-only
        search re-searches only ranges holding a Winograd-capable conv;
        the rest recall the free searches, with identical designs."""
        from repro.perf.implement import candidate_algorithms

        class Recording(EvalContext):
            def __init__(self):
                super().__init__()
                self.searched = []

            def record_search(self, network_name, device_name, start,
                              stop, *counts):
                super().record_search(
                    network_name, device_name, start, stop, *counts
                )
                self.searched.append((start, stop))

        def cut(info):
            return len(candidate_algorithms(info)) > 1  # conv + Winograd

        shared = Recording()
        GroupSearch(tiny, testchip, context=shared).precompute()
        free_ranges = len(shared.searched)
        pinned = GroupSearch(
            tiny, testchip, algorithms=(Algorithm.CONVENTIONAL,),
            context=shared,
        )
        pinned.precompute()
        again = shared.searched[free_ranges:]
        assert again
        for start, stop in again:
            assert any(cut(info) for info in tiny.infos[start:stop])
        private = GroupSearch(
            tiny, testchip, algorithms=(Algorithm.CONVENTIONAL,)
        )
        for start, stop in _all_ranges(tiny):
            assert pinned.fusion(start, stop) == private.fusion(start, stop)

    def test_bandwidth_variant_searches_afresh(self, tiny, testchip):
        from repro.hardware.dse import scale_bandwidth
        from repro.optimizer.dp import optimize
        from repro.optimizer.serialize import strategy_to_dict

        budget = tiny.feature_map_bytes()
        slow = scale_bandwidth(testchip, 0.25)
        shared = EvalContext()
        optimize(tiny, testchip, budget, context=shared)
        searched = shared.stats.groups_searched
        variant = optimize(tiny, slow, budget, context=shared)
        private = EvalContext()
        expected = optimize(tiny, slow, budget, context=private)
        # Every search of the variant runs: none hits the base device's
        # entries, although their implement() points are shared.
        assert shared.stats.groups_searched - searched == (
            private.stats.groups_searched
        )
        assert strategy_to_dict(variant) == strategy_to_dict(expected)

    def test_index_keyed_context_has_no_memo(self, tiny, testchip):
        context = IndexKeyedContext()
        GroupSearch(tiny, testchip, context=context).precompute()
        searched = context.stats.groups_searched
        GroupSearch(tiny, testchip, context=context).precompute()
        assert context.stats.groups_searched == 2 * searched
