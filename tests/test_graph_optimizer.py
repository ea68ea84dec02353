"""Branch-aware optimization stack tests.

The acceptance-critical properties of the DAG refactor:

* chain degeneracy — the graph DP on a linear model is *bit-identical*
  to the chain optimizer (same boundaries, designs, and costs);
* native branch optimization — fork-join models produce parallel
  segments with full node coverage and verified join pricing;
* the downstream layers (simulator, serving, partitioning, persistent
  cost keys) agree with the chain stack on shared structure.

A Hypothesis sweep generates random series-parallel graphs and checks
shape-inference consistency, deterministic topological order, and
DAG-to-chain degeneracy on the linear draws.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.check.invariants import verify_graph_strategy
from repro.nn import models
from repro.nn.functional import forward_graph, init_graph_weights
from repro.nn.graph import Graph, GraphNode, sp_leaf_names
from repro.nn.layers import ConcatLayer, ConvLayer, EltwiseLayer, InputSpec
from repro.optimizer.dp import optimize
from repro.optimizer.graph_dp import optimize_graph
from repro.partition.fleet import DeviceFleet
from repro.partition.cut import partition_network
from repro.perf.cost import EvalContext, layer_signature
from repro.sim.graph import build_graph_service_model, simulate_graph_strategy


def _optimize_graph(graph, device, **kwargs):
    budget = graph.feature_map_bytes(element_bytes=device.element_bytes)
    return optimize_graph(graph, device, budget, **kwargs)


class TestChainDegeneracy:
    def test_bit_identical_to_chain_optimizer(self, tiny_net, testchip):
        """Acceptance criterion: linear models lose nothing to the DAG IR."""
        budget = tiny_net.feature_map_bytes()
        chain = optimize(tiny_net, testchip, budget)
        graph = optimize_graph(Graph.from_network(tiny_net), testchip, budget)
        assert len(graph.segments) == 1
        segment = graph.segments[0]
        assert segment.kind == "chain"
        inner = segment.strategy
        assert inner.boundaries == chain.boundaries
        assert inner.latency_cycles == chain.latency_cycles
        assert inner.feature_transfer_bytes == chain.feature_transfer_bytes
        assert inner.weight_transfer_bytes == chain.weight_transfer_bytes
        def implementations(strategy):
            return [
                (i.layer_name, i.algorithm, i.parallelism)
                for d in strategy.designs
                for i in d.implementations
            ]

        assert implementations(inner) == implementations(chain)
        assert graph.latency_cycles == chain.latency_cycles

    def test_constrained_degeneracy(self, tiny_net, testchip):
        budget = tiny_net.feature_map_bytes() // 2
        chain = optimize(tiny_net, testchip, budget)
        graph = optimize_graph(Graph.from_network(tiny_net), testchip, budget)
        assert graph.latency_cycles == chain.latency_cycles
        assert graph.feature_transfer_bytes == chain.feature_transfer_bytes


class TestBranchOptimization:
    def test_tiny_branch_has_parallel_segment(self, testchip):
        graph = models.tiny_branch()
        strategy = _optimize_graph(graph, testchip)
        kinds = [s.kind for s in strategy.segments]
        assert any(k in ("parallel", "fused") for k in kinds)
        assert sorted(strategy.node_names()) == sorted(
            info.name for info in graph.infos
        )
        verify_graph_strategy(strategy).raise_if_failed()

    def test_branch_structure_visible_in_report(self, testchip):
        strategy = _optimize_graph(models.tiny_branch(), testchip)
        report = strategy.report()
        assert "branch" in report or "fused" in report

    def test_resnet_eltwise_join_priced(self, testchip):
        graph = models.tiny_resnet()
        strategy = _optimize_graph(graph, testchip)
        verify_graph_strategy(strategy).raise_if_failed()
        parallel = [s for s in strategy.segments if s.kind == "parallel"]
        assert parallel
        # An eltwise join costs a DRAM round trip; concat would be free.
        assert parallel[0].join_kind == "eltwise"
        assert parallel[0].join_transfer_bytes > 0
        assert parallel[0].join_latency_cycles > 0

    def test_googlenet_prefix_compiles_natively(self, testchip):
        graph = models.googlenet_graph_prefix(1).accelerated_subgraph()
        strategy = _optimize_graph(graph, testchip)
        verify_graph_strategy(strategy).raise_if_failed()
        assert any(s.kind in ("parallel", "fused") for s in strategy.segments)

    def test_validate_rejects_tight_transfer_budget(self, testchip):
        from repro.errors import OptimizationError

        graph = models.tiny_branch()
        with pytest.raises(OptimizationError):
            optimize_graph(graph, testchip, 1)

    def test_macro_inception_fits_budgets_native_cannot(self, zc706):
        # Native branches win at loose T (678,012 vs 994,287 cycles), but
        # their least feature transfer is 4,566,016 B against the macro
        # path's 1,053,696 B: below that only the macro path has a design.
        from repro.errors import OptimizationError

        budget = 4 * 2**20
        macro_net = models.googlenet_prefix(2).accelerated_prefix()
        macro = optimize(macro_net, zc706, budget)
        assert macro.feature_transfer_bytes <= budget
        graph = models.googlenet_graph_prefix(2).accelerated_subgraph()
        with pytest.raises(OptimizationError, match="4566016 bytes"):
            optimize_graph(graph, zc706, budget)


class TestDownstreamAgreement:
    def test_simulation_matches_functional_reference(self, testchip):
        graph = models.tiny_branch()
        strategy = _optimize_graph(graph, testchip)
        rng = np.random.default_rng(0)
        data = rng.normal(0, 0.5, graph.input_spec.shape)
        weights = init_graph_weights(graph, np.random.default_rng(0))
        sim = simulate_graph_strategy(strategy, data, weights)
        expected = forward_graph(graph, data, weights)
        np.testing.assert_allclose(sim.output, expected)
        assert sim.latency_cycles > 0

    def test_service_model_covers_all_stages(self, testchip):
        strategy = _optimize_graph(models.tiny_resnet(), testchip)
        service = build_graph_service_model(strategy)
        assert service.groups
        assert service.single_image_cycles > 0

    def test_graph_partition_covers_graph(self, testchip):
        graph = models.tiny_branch()
        fleet = DeviceFleet.from_spec("testchip,testchip")
        plan = partition_network(graph, fleet)
        covered = sorted(n for p in plan.placements for n in p.nodes)
        assert covered == sorted(info.name for info in graph.infos)
        for placement in plan.placements:
            verify_graph_strategy(placement.strategy).raise_if_failed()

    def test_cost_signature_is_graph_position_independent(self, testchip):
        """PR 6 cost-store rows stay valid: same layer, same key, chain
        or branch."""
        graph = models.tiny_branch()
        chain_net = graph.subgraph(
            ("b3",),
            "solo",
            input_name="conv1",
            input_spec=InputSpec(*graph.producer_shape("conv1")),
        ).to_network()
        sig_graph = {
            info.name: layer_signature(info)
            for info in chain_net.infos
        }
        # The same conv optimized as part of the branch shares the key.
        context = EvalContext()
        _optimize_graph(graph, testchip, context=context)
        hits_before = context.stats.evaluations
        _optimize_graph(graph, testchip, context=context)
        # A second compile through the shared context is answered
        # entirely from the signature-keyed cache.
        assert context.stats.evaluations == hits_before
        assert sig_graph  # the branch conv produced a signature at all

    def test_shared_context_warms_graph_from_chain(self, tiny_net, testchip):
        context = EvalContext()
        budget = tiny_net.feature_map_bytes()
        optimize(tiny_net, testchip, budget, context=context)
        evaluations = context.stats.evaluations
        optimize_graph(
            Graph.from_network(tiny_net), testchip, budget, context=context
        )
        assert context.stats.evaluations == evaluations


# -- Hypothesis: random series-parallel graphs -------------------------------


def _chain_nodes(prefix, source, channels, depth):
    """A linear run of conv nodes feeding off ``source``."""
    nodes = []
    for i in range(depth):
        name = f"{prefix}c{i}"
        nodes.append(
            GraphNode(
                name,
                ConvLayer(name, out_channels=channels, kernel=3, pad=1),
                (source,),
            )
        )
        source = name
    return nodes, source


@st.composite
def sp_graphs(draw):
    """Small random SP graphs: chain runs interleaved with fork-joins."""
    channels = draw(st.sampled_from([4, 8]))
    spec = InputSpec(3, 8, 8)
    nodes, source = _chain_nodes("pre", "data", channels, draw(st.integers(1, 2)))
    num_blocks = draw(st.integers(0, 2))
    for b in range(num_blocks):
        num_branches = draw(st.integers(2, 3))
        join_kind = draw(st.sampled_from(["concat", "eltwise"]))
        tails = []
        for i in range(num_branches):
            depth = draw(st.integers(0 if join_kind == "eltwise" else 1, 2))
            if depth == 0:
                tails.append(source)  # identity branch (ResNet skip)
                continue
            branch, tail = _chain_nodes(f"b{b}_{i}", source, channels, depth)
            nodes.extend(branch)
            tails.append(tail)
        # Joins reject duplicate inputs, so collapse repeated identity
        # branches; a join needs at least two distinct producers.
        tails = list(dict.fromkeys(tails))
        if len(tails) < 2:
            continue
        join_name = f"join{b}"
        if join_kind == "eltwise":
            layer = EltwiseLayer(join_name)
        else:
            layer = ConcatLayer(join_name)
        nodes.append(GraphNode(join_name, layer, tuple(tails)))
        source = join_name
        if join_kind == "concat":
            channels = channels * sum(1 for _ in tails)
    post, source = _chain_nodes("post", source, channels, draw(st.integers(0, 1)))
    nodes.extend(post)
    return Graph("hyp", spec, nodes)


@settings(max_examples=25, deadline=None)
@given(graph=sp_graphs())
def test_random_sp_graph_consistency(graph):
    # Shape inference: every edge agrees end to end.
    for info in graph.infos:
        shapes = tuple(
            graph.input_spec.shape if src == graph.input_name
            else graph.producer_shape(src)
            for src in info.inputs
        )
        assert info.input_shapes == shapes
        if isinstance(info.layer, ConcatLayer):
            assert info.output_shape[0] == sum(s[0] for s in shapes)
            assert all(s[1:] == info.output_shape[1:] for s in shapes)
        elif isinstance(info.layer, EltwiseLayer):
            assert all(s == info.output_shape for s in shapes)
        else:
            assert info.output_shape == info.layer.output_shape(shapes[0])
    # Topological order: deterministic, edge-respecting, complete.
    order = graph.topo_order
    assert order == graph.topo_order
    assert sorted(order) == sorted(info.name for info in graph.infos)
    positions = {name: i for i, name in enumerate(order)}
    for info in graph.infos:
        for src in info.inputs:
            if src != graph.input_name:
                assert positions[src] < positions[info.name]
    # SP decomposition covers every node exactly once.
    tree = graph.decompose()
    assert sorted(sp_leaf_names(tree)) == sorted(order)
    # Chain draws degenerate to Networks and back without loss.
    if graph.is_chain:
        net = graph.to_network()
        back = Graph.from_network(net)
        assert [i.name for i in back.infos] == [i.name for i in graph.infos]
        assert back.output_shape == graph.output_shape


@settings(max_examples=8, deadline=None)
@given(graph=sp_graphs())
def test_random_sp_graph_optimizes_and_verifies(graph):
    from repro.hardware.device import get_device

    device = get_device("testchip")
    strategy = optimize_graph(
        graph, device, graph.feature_map_bytes(element_bytes=device.element_bytes)
    )
    verify_graph_strategy(strategy).raise_if_failed()
    assert sorted(strategy.node_names()) == sorted(i.name for i in graph.infos)


# -- saved graph strategies ---------------------------------------------------


def _assert_round_trip(strategy, model, tmp_path):
    """Save, load and compare everything a strategy's consumers read."""
    from repro.optimizer.serialize import load_strategy, save_strategy
    from repro.sim.simulator import build_service_model, simulate_strategy

    path = save_strategy(strategy, tmp_path / "graph_strategy.json")
    loaded = load_strategy(path, model)
    assert loaded.report() == strategy.report()
    assert loaded.to_dict() == strategy.to_dict()
    assert loaded.latency_cycles == strategy.latency_cycles
    assert loaded.feature_transfer_bytes == strategy.feature_transfer_bytes
    assert verify_graph_strategy(loaded).ok
    rng = np.random.default_rng(3)
    data = rng.normal(0, 0.5, model.input_spec.shape)
    weights = init_graph_weights(model, rng)
    original = simulate_strategy(strategy, data, weights)
    reloaded = simulate_strategy(loaded, data, weights)
    np.testing.assert_array_equal(reloaded.output, original.output)
    assert reloaded.latency_cycles == original.latency_cycles
    assert reloaded.segment_traces == original.segment_traces
    assert build_service_model(loaded) == build_service_model(strategy)


@settings(max_examples=10, deadline=None)
@given(graph=sp_graphs(), device_name=st.sampled_from(["testchip", "zc706"]))
def test_random_sp_graph_strategy_round_trips(graph, device_name, tmp_path_factory):
    from repro.hardware.device import get_device

    strategy = _optimize_graph(graph, get_device(device_name))
    _assert_round_trip(strategy, graph, tmp_path_factory.mktemp("sp"))


def test_googlenet_graph_strategy_round_trips(tmp_path):
    from repro.hardware.device import get_device

    graph = models.googlenet_graph()
    strategy = _optimize_graph(graph, get_device("zc706"))
    assert {s.kind for s in strategy.segments} >= {"chain", "parallel"}
    _assert_round_trip(strategy, graph, tmp_path)


def test_saved_fused_block_round_trips(tmp_path):
    from repro.hardware.device import get_device

    graph = models.tiny_resnet()
    strategy = _optimize_graph(graph, get_device("zc706"))
    assert [s.kind for s in strategy.segments] == ["chain", "fused", "chain"]
    _assert_round_trip(strategy, graph, tmp_path)
