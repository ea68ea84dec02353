"""Tests for the signature-keyed evaluation layer (:mod:`repro.perf.cost`).

Covers the three properties the refactor must preserve:

1. *Correctness of sharing* — shape-identical layers resolve to the same
   cache key, strided/shape-distinct layers do not, and cached results
   are re-labelled for the querying layer.
2. *Strategy preservation* — sharing a context (across calls, across
   constraint sweeps, or against an index-keyed context) never changes
   the chosen strategy; the optimizer still matches the exhaustive
   oracle choice for choice.
3. *Telemetry* — the context reports what the search actually did.
"""

import pytest

from repro.hardware.device import get_device
from repro.nn import models
from repro.nn.layers import ConvLayer, InputSpec, PoolLayer
from repro.nn.network import Network
from repro.optimizer.branch_and_bound import GroupSearch
from repro.optimizer.dp import optimize, optimize_many
from repro.optimizer.exhaustive import exhaustive_optimize
from repro.perf.cost import EvalContext, device_signature, layer_signature
from repro.perf.implement import Algorithm


@pytest.fixture
def testchip():
    return get_device("testchip")


@pytest.fixture
def tiny():
    return models.tiny_cnn()


@pytest.fixture
def repeated_net():
    """Two shape-identical convs (c2, c3) plus a strided variant (c4)."""
    layers = [
        ConvLayer(name="c1", out_channels=8, kernel=3, pad=1),
        ConvLayer(name="c2", out_channels=8, kernel=3, pad=1),
        ConvLayer(name="c3", out_channels=8, kernel=3, pad=1),
        ConvLayer(name="c4", out_channels=8, kernel=3, stride=2, pad=1),
        PoolLayer(name="p1", kernel=2, stride=2),
    ]
    return Network("repeated", InputSpec(8, 16, 16), layers)


class IndexKeyedContext(EvalContext):
    """The legacy per-layer cache, kept as a reference: the layer index
    joins every ``implement()`` key, and no group search is recalled."""

    def key_for(self, info, *args, **kwargs):
        return (info.index, super().key_for(info, *args, **kwargs))

    def recall_group(self, key):
        return None


def choice_triples(strategy):
    return [
        (c.layer_name, c.group_id, c.algorithm, c.parallelism)
        for c in strategy.choices()
    ]


class TestSignatures:
    def test_identical_layers_share_signature(self, repeated_net):
        c2, c3 = repeated_net[1], repeated_net[2]
        assert layer_signature(c2) == layer_signature(c3)

    def test_strided_layer_distinct(self, repeated_net):
        c3, c4 = repeated_net[2], repeated_net[3]
        assert layer_signature(c3) != layer_signature(c4)

    def test_different_types_distinct(self, repeated_net):
        conv, pool = repeated_net[3], repeated_net[4]
        assert layer_signature(conv) != layer_signature(pool)

    def test_device_signature_ignores_bandwidth(self, testchip):
        from dataclasses import replace

        faster = replace(
            testchip,
            name="testchip_bw2x",
            bandwidth_bytes_per_s=testchip.bandwidth_bytes_per_s * 2,
        )
        assert device_signature(testchip) == device_signature(faster)


class TestEvalContext:
    def test_identical_layers_share_cache_entry(self, repeated_net, testchip):
        ctx = EvalContext()
        c2, c3 = repeated_net[1], repeated_net[2]
        first = ctx.implement(c2, Algorithm.CONVENTIONAL, 4, testchip)
        second = ctx.implement(c3, Algorithm.CONVENTIONAL, 4, testchip)
        assert ctx.stats.evaluations == 1
        assert ctx.stats.cache_hits == 1
        assert len(ctx) == 1
        # The hit is re-labelled for the querying layer; all cost fields
        # are identical because the layers are.
        assert first.layer_name == "c2"
        assert second.layer_name == "c3"
        assert second.compute_cycles == first.compute_cycles
        assert second.resources == first.resources

    def test_strided_layer_gets_own_entry(self, repeated_net, testchip):
        ctx = EvalContext()
        ctx.implement(repeated_net[2], Algorithm.CONVENTIONAL, 4, testchip)
        ctx.implement(repeated_net[3], Algorithm.CONVENTIONAL, 4, testchip)
        assert ctx.stats.evaluations == 2
        assert ctx.stats.cache_hits == 0

    def test_flags_are_keyword_only(self):
        with pytest.raises(TypeError):
            EvalContext(object())

    def test_results_match_direct_implement(self, tiny, testchip):
        from repro.perf.implement import implement

        ctx = EvalContext()
        info = tiny.conv_infos()[0]
        direct = implement(info, Algorithm.CONVENTIONAL, 4, testchip)
        via_ctx = ctx.implement(info, Algorithm.CONVENTIONAL, 4, testchip)
        assert via_ctx == direct

    @pytest.mark.parametrize("device_name", ["zc706", "vc707", "testchip"])
    def test_option_memo_matches_direct_implement(self, device_name):
        """A context evaluates each option's parallelism-free terms once;
        every catalog point still equals ``implement()`` field for field:
        each layer, menu option (every Winograd m, each weight mode and
        the default) and parallelism, through one shared context."""
        from repro.perf.implement import (
            WINOGRAD_M,
            candidate_algorithms,
            candidate_parallelisms,
            candidate_weight_modes,
            candidate_winograd_tiles,
            implement,
        )

        device = get_device(device_name)
        ctx = EvalContext()
        points = 0
        for factory in models.catalog().values():
            network = factory()
            for index in range(len(network)):
                info = network[index]
                for algorithm in candidate_algorithms(info):
                    tiles = (
                        candidate_winograd_tiles(info, explore=True)
                        if algorithm == Algorithm.WINOGRAD
                        else [WINOGRAD_M]
                    )
                    for m in tiles:
                        modes = candidate_weight_modes(info, algorithm, device, m)
                        for mode in [None, *modes]:
                            for p in candidate_parallelisms(info, algorithm, device):
                                direct = implement(
                                    info, algorithm, p, device,
                                    weight_mode=mode, winograd_m=m,
                                )
                                assert ctx.implement(
                                    info, algorithm, p, device,
                                    weight_mode=mode, winograd_m=m,
                                ) == direct
                                points += 1
        assert ctx.stats.evaluations + ctx.stats.cache_hits == points
        assert ctx.stats.cache_hits  # shape-identical layers share points


class TestStrategyPreservation:
    def test_matches_exhaustive_oracle_choice_for_choice(self, tiny, testchip):
        budget = tiny.feature_map_bytes()
        shared = EvalContext()
        ours = optimize(tiny, testchip, budget, context=shared)
        oracle = exhaustive_optimize(tiny, testchip, budget, context=shared)
        assert ours.latency_cycles == oracle.latency_cycles
        assert ours.feature_transfer_bytes == oracle.feature_transfer_bytes
        assert choice_triples(ours) == choice_triples(oracle)

    def test_sharing_does_not_change_strategy(self, repeated_net, testchip):
        budget = repeated_net.feature_map_bytes()
        fresh = optimize(repeated_net, testchip, budget)
        shared = optimize(
            repeated_net, testchip, budget, context=EvalContext()
        )
        legacy = optimize(
            repeated_net,
            testchip,
            budget,
            context=IndexKeyedContext(),
        )
        assert choice_triples(fresh) == choice_triples(shared)
        assert choice_triples(fresh) == choice_triples(legacy)
        assert fresh.latency_cycles == shared.latency_cycles == legacy.latency_cycles

    def test_warm_context_reused_across_calls(self, tiny, testchip):
        budget = tiny.feature_map_bytes()
        ctx = EvalContext()
        cold = optimize(tiny, testchip, budget, context=ctx)
        evaluations_after_cold = ctx.stats.evaluations
        warm = optimize(tiny, testchip, budget, context=ctx)
        assert choice_triples(cold) == choice_triples(warm)
        # The second run answers every implement() query from cache.
        assert ctx.stats.evaluations == evaluations_after_cold

    def test_precompute_shares_rows_and_floors(self):
        search = GroupSearch(models.vgg_fused_prefix(), get_device("zc706"))
        search.precompute()
        # Ranges share the knapsack floor tables, built once per suffix.
        assert search._floors
        # Each menu option's rows hold its parallelisms in order, and the
        # ladder's bisected columns mirror its rows.
        for menu in search._menus:
            for ladder in menu.ladders:
                rows = ladder.rows
                parallelisms = ladder.parallelisms
                assert [row[-1].parallelism for row in rows] == (
                    parallelisms[: len(rows)]
                )
                assert ladder.fills == [row[1] for row in rows]
                assert ladder.totals == [row[0] + row[1] for row in rows]
                assert ladder.dsps == [-row[4] for row in rows]

    @pytest.mark.parametrize("name", ["vgg16_conv3_4", "identical_convs"])
    def test_repeated_shapes_searched_once(self, name):
        # VGG16 conv3_1..conv4_3 repeats conv3_2/3_3 and conv4_2/4_3;
        # in a chain of identical convs every range of one length is one
        # search.
        zc706 = get_device("zc706")
        network = {
            "vgg16_conv3_4": lambda: models.vgg16().slice(6, 13),
            "identical_convs": lambda: Network(
                "identical", InputSpec(128, 28, 28),
                [ConvLayer(f"c{i}", out_channels=128, kernel=3, pad=1)
                 for i in range(5)],
            ),
        }[name]()
        ctx = EvalContext()
        search = GroupSearch(network, zc706, context=ctx)
        search.precompute()
        keys = {search._group_key(*pair) for pair in search._fusion_cache}
        assert len(keys) < len(search._fusion_cache)
        assert ctx.stats.groups_searched == len(keys)
        # A recalled design carries its own range's layer names.
        for (start, stop), design in search._fusion_cache.items():
            assert [impl.layer_name for impl in design.implementations] == [
                info.name for info in network.infos[start:stop]
            ]

    def test_optimize_many_honors_knobs(self, tiny, testchip):
        budgets = [tiny.min_fused_transfer_bytes(), tiny.feature_map_bytes()]
        batch = optimize_many(tiny, testchip, budgets, explore_tile_sizes=True)
        for budget, strategy in zip(budgets, batch):
            single = optimize(tiny, testchip, budget, explore_tile_sizes=True)
            assert choice_triples(strategy) == choice_triples(single)


class TestTelemetry:
    def test_strategy_carries_telemetry(self, tiny, testchip):
        strategy = optimize(tiny, testchip, tiny.feature_map_bytes())
        stats = strategy.telemetry
        assert stats is not None
        assert stats.evaluations > 0
        assert stats.cache_hits > 0
        assert stats.nodes_visited > 0
        assert stats.nodes_pruned > 0
        assert stats.groups_searched > 0
        assert stats.wall_time_s >= 0.0
        assert 0.0 < stats.hit_rate < 1.0

    def test_summary_mentions_all_counters(self, tiny, testchip):
        strategy = optimize(tiny, testchip, tiny.feature_map_bytes())
        text = strategy.telemetry.summary()
        for needle in (
            "implement() evaluations",
            "cache hits",
            "B&B nodes visited",
            "B&B nodes pruned",
            "groups searched",
            "wall time",
            "slowest groups",
        ):
            assert needle in text

    def test_sweep_shares_one_context(self, tiny, testchip):
        budgets = [tiny.min_fused_transfer_bytes(), tiny.feature_map_bytes()]
        ctx = EvalContext()
        strategies = optimize_many(tiny, testchip, budgets, context=ctx)
        assert all(s.telemetry is ctx.stats for s in strategies)
        # fusion[i][j] is searched once per group, not once per budget.
        n = len(tiny.accelerated_prefix())
        assert ctx.stats.groups_searched <= n * (n + 1) // 2
