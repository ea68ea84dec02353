"""Partition subsystem tests: fleet model, cut DP, simulation, serving.

Everything runs at testchip/tiny_cnn scale — the same code paths the
vgg_e acceptance run exercises, minus the search time.
"""

import dataclasses
import json

import numpy as np
import pytest

from repro.check.invariants import V_LINKS, verify_plan
from repro.errors import PartitionError
from repro.hardware.device import get_device
from repro.nn import models
from repro.nn.functional import (
    forward,
    forward_graph,
    init_graph_weights,
    init_weights,
)
from repro.nn.graph import Graph
from repro.optimizer.dp import FrontierOptimizer
from repro.optimizer.graph_dp import GraphOptimizer, GraphStrategy
from repro.optimizer.serialize import strategy_to_dict
from repro.partition import (
    DEFAULT_LINK_BANDWIDTH,
    CutOptimizer,
    DeviceFleet,
    Link,
    PartitionPlan,
    load_plan,
    partition_network,
)
from repro.resilience import replan_survivors
from repro.sim.gantt import render_fleet_gantt
from repro.toolflow import compile_model, partition_model


@pytest.fixture(scope="module")
def two_chip_plan():
    """tiny_cnn split across two testchips over the default link."""
    return partition_model(models.tiny_cnn(), devices="testchip,testchip")


@pytest.fixture(scope="module")
def single_compiled():
    return compile_model(models.tiny_cnn(), device="testchip")


@pytest.fixture(scope="module")
def dag_plan():
    """tiny_resnet (a DAG with a skip block) across two testchips."""
    return partition_model(models.tiny_resnet(), devices="testchip,testchip")


class TestLink:
    def test_transfer_seconds(self):
        link = Link(bandwidth_bytes_per_s=1e9, latency_s=1e-6)
        assert link.transfer_seconds(5 * 10**8) == pytest.approx(0.5 + 1e-6)

    def test_default_bandwidth(self):
        assert Link().bandwidth_bytes_per_s == DEFAULT_LINK_BANDWIDTH

    def test_rejects_bad_parameters(self):
        with pytest.raises(PartitionError):
            Link(bandwidth_bytes_per_s=0)
        with pytest.raises(PartitionError):
            Link(latency_s=-1e-6)
        with pytest.raises(PartitionError):
            Link().transfer_seconds(-1)


class TestDeviceFleet:
    def test_from_spec_string(self):
        fleet = DeviceFleet.from_spec("testchip, zc706")
        assert [d.name for d in fleet.devices] == ["testchip", "zc706"]
        assert len(fleet.links) == 1
        assert not fleet.is_homogeneous

    def test_from_spec_mixed_sequence(self):
        fleet = DeviceFleet.from_spec([get_device("zc706"), "zc706"])
        assert fleet.is_homogeneous
        assert fleet.name == "zc706+zc706"

    def test_reference_clock_is_first_device(self):
        fleet = DeviceFleet.from_spec("testchip,zcu102")
        assert fleet.reference_frequency_hz == get_device("testchip").frequency_hz

    def test_custom_link_replicated(self):
        link = Link(bandwidth_bytes_per_s=5e9)
        fleet = DeviceFleet.from_spec("zc706,zc706,zc706", link=link)
        assert all(entry == link for entry in fleet.links)

    def test_empty_spec_rejected(self):
        with pytest.raises(PartitionError):
            DeviceFleet.from_spec("")
        with pytest.raises(PartitionError):
            DeviceFleet([])

    def test_wrong_link_count_rejected(self):
        devices = [get_device("zc706"), get_device("zc706")]
        with pytest.raises(PartitionError):
            DeviceFleet(devices, links=[Link(), Link()])

    def test_describe_lists_stages_and_links(self):
        text = DeviceFleet.from_spec("testchip,zc706").describe()
        assert "stage 0: testchip" in text
        assert "stage 1: zc706" in text
        assert "link 0" in text


class TestCutDP:
    def test_single_device_degenerates_bit_identically(self, single_compiled):
        plan = partition_model(models.tiny_cnn(), devices="testchip")
        assert plan.num_stages == 1
        assert not plan.transfers
        assert strategy_to_dict(plan.placements[0].strategy) == strategy_to_dict(
            single_compiled.strategy
        )
        assert plan.bottleneck_seconds == plan.latency_seconds
        assert plan.pipelined_speedup() == pytest.approx(1.0)

    def test_two_devices_beat_the_bottleneck(self, two_chip_plan, single_compiled):
        assert two_chip_plan.num_stages == 2
        single_seconds = single_compiled.strategy.latency_seconds()
        assert two_chip_plan.baseline_latency_seconds == pytest.approx(
            single_seconds
        )
        assert two_chip_plan.bottleneck_seconds < single_seconds
        assert two_chip_plan.pipelined_speedup() > 1.0

    def test_stages_tile_the_network(self, two_chip_plan):
        boundaries = [p.start for p in two_chip_plan.placements]
        boundaries.append(two_chip_plan.placements[-1].stop)
        assert boundaries[0] == 0
        assert boundaries[-1] == len(two_chip_plan.network)
        assert boundaries == sorted(boundaries)

    def test_slow_link_collapses_to_one_stage(self):
        crawl = Link(bandwidth_bytes_per_s=1e3)
        plan = partition_model(
            models.tiny_cnn(), devices="testchip,testchip", link=crawl
        )
        assert plan.num_stages == 1

    def test_heterogeneous_fleet(self):
        plan = partition_model(models.tiny_cnn(), devices="testchip,zc706")
        devices = {p.device.name for p in plan.placements}
        assert devices <= {"testchip", "zc706"}
        # Seconds-based timing: every span is finite and positive.
        assert all(s > 0 for s in plan.stage_seconds)

    def test_infeasible_budget_raises(self):
        fleet = DeviceFleet.from_spec("testchip,testchip")
        with pytest.raises(PartitionError):
            partition_network(
                models.tiny_cnn().accelerated_prefix(),
                fleet,
                transfer_constraint_bytes=1,
            )

    def test_telemetry_counts_partition_work(self, two_chip_plan):
        stats = two_chip_plan.telemetry
        assert stats.partition_stage_queries > 0
        assert stats.partition_cuts_considered > 0
        assert "partition stage costs" in stats.summary()

    def test_shared_optimizer_for_homogeneous_fleet(self):
        optimizer = CutOptimizer(
            models.tiny_cnn().accelerated_prefix(),
            DeviceFleet.from_spec("testchip,testchip"),
        )
        optimizer.solve()
        assert len(optimizer._optimizers) == 1
        (search,) = optimizer._optimizers.values()
        assert type(search) is FrontierOptimizer

    def test_shared_search_for_homogeneous_fleet_on_a_dag(self):
        """One graph search per distinct device, not one per unit range."""
        optimizer = CutOptimizer(
            models.tiny_resnet().accelerated_subgraph(),
            DeviceFleet.from_spec("testchip,testchip"),
        )
        plan = optimizer.solve()
        assert plan.num_stages == 2
        assert len(optimizer._optimizers) == 1
        (search,) = optimizer._optimizers.values()
        assert type(search) is GraphOptimizer

    def test_one_search_per_distinct_device(self):
        optimizer = CutOptimizer(
            models.tiny_cnn().accelerated_prefix(),
            DeviceFleet.from_spec("testchip,zc706,testchip"),
        )
        optimizer.solve()
        assert len(optimizer._optimizers) == 2

    def test_chain_graph_partitions_like_the_network(self):
        network = models.tiny_cnn().accelerated_prefix()
        fleet = DeviceFleet.from_spec("testchip,testchip")
        chain = partition_network(network, fleet)
        graph = partition_network(Graph.from_network(network), fleet)
        assert [(p.start, p.stop) for p in graph.placements] == [
            (p.start, p.stop) for p in chain.placements
        ]
        assert graph.stage_seconds == chain.stage_seconds
        assert graph.bottleneck_seconds == chain.bottleneck_seconds
        assert all(
            isinstance(p.strategy, GraphStrategy) for p in graph.placements
        )


class TestDagPlan:
    def test_verify_plan_passes(self, dag_plan):
        assert verify_plan(dag_plan).ok

    def test_verify_plan_rejects_corrupted_cut_tensor(self, dag_plan):
        corrupted = PartitionPlan(
            dag_plan.network,
            dag_plan.fleet,
            dag_plan.placements,
            [
                dataclasses.replace(t, tensor_bytes=t.tensor_bytes + 2)
                for t in dag_plan.transfers
            ],
        )
        report = verify_plan(corrupted)
        assert not report.ok
        assert [v.code for v in report.violations] == [V_LINKS]

    def test_replan_survivors(self, dag_plan):
        survivor = replan_survivors(dag_plan, 1)
        assert survivor.num_stages == 1
        assert isinstance(survivor.placements[0].strategy, GraphStrategy)
        assert verify_plan(survivor).ok

    def test_report_uses_the_plan_layout(self, dag_plan):
        text = dag_plan.report()
        assert "Partition of tiny_resnet" in text
        assert "cut tensor" in text

    def test_simulate_matches_forward_graph(self, dag_plan, rng):
        graph = dag_plan.network
        data = rng.normal(0, 0.5, graph.input_spec.shape)
        weights = init_graph_weights(graph, rng)
        result = dag_plan.simulate(data=data, weights=weights)
        expected = forward_graph(graph, data, weights)
        np.testing.assert_allclose(result.output, expected, atol=1e-8)
        assert len(result.stages) == dag_plan.num_stages
        assert len(result.transfers) == len(dag_plan.transfers)

    def test_serve_serves_every_request(self, dag_plan):
        fleet = dag_plan.serve()
        result = fleet.run_open_loop(num_requests=40, load=1.5, seed=0)
        assert result.metrics.requests == 40
        assert result.metrics.failed == 0
        assert len(result.metrics.replica_stats) == dag_plan.num_stages

    def test_save_load_verify_replan(self, dag_plan, tmp_path):
        path = dag_plan.save(tmp_path / "plan.json")
        reloaded = load_plan(path, dag_plan.network)
        assert reloaded.to_dict() == dag_plan.to_dict()
        assert reloaded.report() == dag_plan.report()
        assert reloaded.stage_seconds == dag_plan.stage_seconds
        assert verify_plan(reloaded).ok
        survivor = replan_survivors(reloaded, 1)
        assert survivor.to_dict() == replan_survivors(dag_plan, 1).to_dict()
        assert verify_plan(survivor).ok

    def test_saved_stage_strategies_match_the_search(self, dag_plan, tmp_path):
        reloaded = load_plan(dag_plan.save(tmp_path / "plan.json"), dag_plan.network)
        for original, loaded in zip(dag_plan.placements, reloaded.placements):
            assert loaded.strategy.graph.name == original.strategy.graph.name
            assert loaded.strategy.report() == original.strategy.report()
            assert loaded.nodes == original.nodes


class TestPlanArtifact:
    def test_report_mentions_stages_and_speedup(self, two_chip_plan):
        text = two_chip_plan.report()
        assert "2 stage(s)" in text
        assert "cut tensor" in text
        assert "pipelined speedup" in text

    def test_roundtrip_through_json(self, two_chip_plan, tmp_path):
        path = two_chip_plan.save(tmp_path / "plan.json")
        restored = load_plan(path, two_chip_plan.network)
        assert restored.num_stages == two_chip_plan.num_stages
        assert restored.bottleneck_seconds == pytest.approx(
            two_chip_plan.bottleneck_seconds
        )
        for original, rebuilt in zip(
            two_chip_plan.placements, restored.placements
        ):
            assert (original.start, original.stop) == (rebuilt.start, rebuilt.stop)
            assert strategy_to_dict(original.strategy) == strategy_to_dict(
                rebuilt.strategy
            )
        assert [t.tensor_bytes for t in restored.transfers] == [
            t.tensor_bytes for t in two_chip_plan.transfers
        ]

    def test_to_dict_is_json_serializable(self, two_chip_plan):
        payload = json.loads(json.dumps(two_chip_plan.to_dict()))
        assert payload["schema_version"] == 1
        assert payload["fleet"]["devices"] == ["testchip", "testchip"]

    def test_unknown_schema_version_rejected(self, two_chip_plan):
        from repro.errors import ArtifactVersionError
        from repro.partition import plan_from_dict

        payload = two_chip_plan.to_dict()
        payload["schema_version"] = 99
        with pytest.raises(ArtifactVersionError) as excinfo:
            plan_from_dict(payload, two_chip_plan.network)
        assert excinfo.value.code == "E_VERSION"
        assert "schema_version" in excinfo.value.json_path

    def test_non_contiguous_stages_rejected(self, two_chip_plan):
        placements = list(two_chip_plan.placements)
        with pytest.raises(PartitionError):
            PartitionPlan(
                two_chip_plan.network,
                two_chip_plan.fleet,
                placements[1:],  # drops the first stage: gap at layer 0
                [],
            )


class TestFleetSimulation:
    def test_output_matches_reference_forward(self, two_chip_plan, rng):
        network = two_chip_plan.network
        data = rng.normal(0, 0.5, network.input_spec.shape)
        weights = init_weights(network, rng)
        result = two_chip_plan.simulate(data=data, weights=weights)
        expected = forward(network, data, weights)
        np.testing.assert_allclose(result.output, expected, atol=1e-8)

    def test_degenerate_matches_single_device_simulation(self, single_compiled):
        plan = partition_model(models.tiny_cnn(), devices="testchip")
        fleet_sim = plan.simulate(seed=7)
        single_sim = single_compiled.simulate(seed=7)
        np.testing.assert_array_equal(fleet_sim.output, single_sim.output)
        assert fleet_sim.stages[0].sim.latency_cycles == pytest.approx(
            single_sim.latency_cycles
        )

    def test_timeline_spans_are_ordered(self, two_chip_plan):
        result = two_chip_plan.simulate()
        clock = 0.0
        for stage in result.stages:
            assert stage.start_s >= clock
            assert stage.end_s > stage.start_s
            clock = stage.end_s
        assert result.latency_seconds == pytest.approx(result.stages[-1].end_s)
        assert len(result.transfers) == 1
        assert result.pipeline_interval_seconds <= result.latency_seconds

    def test_gantt_has_device_and_link_rows(self, two_chip_plan):
        chart = render_fleet_gantt(two_chip_plan.simulate())
        assert "testchip[0]" in chart
        assert "testchip[1]" in chart
        assert "link[0]" in chart


class TestPipelineServing:
    def test_pipeline_beats_single_replica_under_load(
        self, two_chip_plan, single_compiled
    ):
        pipeline = two_chip_plan.serve(max_batch=4).run_open_loop(
            150, load=1.5, rng=np.random.default_rng(0)
        )
        single = single_compiled.serve(replicas=1, max_batch=4).run_open_loop(
            150, load=1.5, rng=np.random.default_rng(0)
        )
        assert pipeline.metrics.requests == 150
        assert (
            pipeline.metrics.requests_per_second
            > single.metrics.requests_per_second
        )

    def test_one_device_plan_is_a_flat_fleet(self, single_compiled):
        """A one-device plan is the one-stage pipeline of a flat fleet:
        under a brownout and the control plane it serves the same
        records and walks the same recovery ladder."""
        from repro.resilience import ResiliencePolicy
        from repro.serve.scheduler import FleetScheduler

        plan = partition_model(models.tiny_cnn(), devices="testchip")
        flat = FleetScheduler.for_strategy(
            single_compiled.strategy, replicas=2
        )
        window = 200 * flat.saturating_interarrival(2.5)
        faults = f"brownout:replica=1,at=0,for={window:.0f},scale=3"
        expected = FleetScheduler.for_strategy(
            single_compiled.strategy, replicas=2, faults=faults,
            resilience=ResiliencePolicy(),
        ).run_open_loop(400, load=2.5, seed=3)
        got = plan.serve(
            pipelines=2, faults=faults, resilience=ResiliencePolicy()
        ).run_open_loop(400, load=2.5, seed=3)
        assert got.records == expected.records
        assert got.failures == expected.failures
        assert got.metrics.recovery == expected.metrics.recovery
        kinds = [e["kind"] for e in expected.metrics.recovery["events"]]
        assert "degraded" in kinds and "ladder" in kinds

    def test_metrics_expose_one_row_per_stage(self, two_chip_plan):
        result = two_chip_plan.serve().run_open_loop(
            40, load=1.0, rng=np.random.default_rng(1)
        )
        assert len(result.metrics.replica_stats) == two_chip_plan.num_stages

    def test_latency_floor_is_pipeline_traversal(self, two_chip_plan):
        fleet = two_chip_plan.serve(max_wait_cycles=0.0)
        result = fleet.run([0.0])
        record = result.records[0]
        assert record.latency_cycles == pytest.approx(
            fleet.service_model.single_image_cycles
        )

    def test_batches_stay_ordered_per_stage(self, two_chip_plan):
        result = two_chip_plan.serve(max_batch=2).run(
            [0.0, 0.0, 1.0, 1.0, 2.0, 2.0]
        )
        by_dispatch = sorted(result.records, key=lambda r: r.dispatch_cycle)
        completions = [r.completion_cycle for r in by_dispatch]
        assert completions == sorted(completions)
