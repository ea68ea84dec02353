"""Tests for the replica executor and the batched service model."""

import numpy as np
import pytest

from repro.faults import FaultInjector, FaultSpec
from repro.optimizer.dp import optimize
from repro.serve.batcher import InferenceRequest, ServingError
from repro.serve.runtime import PipelineServiceModel, Replica
from repro.serve.scheduler import FleetScheduler
from repro.sim.simulator import (
    GroupServiceModel,
    ServiceModel,
    build_service_model,
    simulate_strategy,
)


@pytest.fixture(scope="module")
def tiny_strategy():
    from repro.nn import models
    from repro.hardware.device import get_device

    net = models.tiny_cnn()
    dev = get_device("testchip")
    return optimize(net, dev, net.feature_map_bytes(dev.element_bytes))


def flat_model(preload=0.0, first=100.0, steady=100.0):
    return ServiceModel(
        groups=(
            GroupServiceModel(
                group_id=0,
                preload_cycles=preload,
                first_image_cycles=first,
                steady_interval_cycles=steady,
            ),
        )
    )


class TestServiceModel:
    def test_single_image_matches_simulator(self, tiny_strategy):
        """batch_cycles(1) is the single-image simulator latency."""
        model = build_service_model(tiny_strategy)
        data = np.random.default_rng(0).normal(
            0, 0.5, tiny_strategy.network.input_spec.shape
        )
        sim = simulate_strategy(tiny_strategy, data)
        assert model.single_image_cycles == pytest.approx(
            sim.latency_cycles, rel=1e-12
        )

    def test_batching_amortizes(self, tiny_strategy):
        """A batch is cheaper than the same images served one by one."""
        model = build_service_model(tiny_strategy)
        for size in (2, 4, 8):
            assert model.batch_cycles(size) < size * model.single_image_cycles

    def test_batch_cycles_monotone(self, tiny_strategy):
        model = build_service_model(tiny_strategy)
        costs = [model.batch_cycles(b) for b in range(1, 9)]
        assert costs == sorted(costs)
        assert all(b > a for a, b in zip(costs, costs[1:]))

    def test_steady_interval_bounded_by_pipeline(self, tiny_strategy):
        for group in build_service_model(tiny_strategy).groups:
            assert 0 < group.steady_interval_cycles <= group.first_image_cycles

    def test_hand_computed_batch_cost(self):
        model = flat_model(preload=10, first=100, steady=40)
        assert model.batch_cycles(1) == 110
        assert model.batch_cycles(4) == 10 + 100 + 3 * 40
        assert model.throughput_per_cycle(4) == pytest.approx(4 / 230)

    def test_batch_size_must_be_positive(self):
        with pytest.raises(Exception):
            flat_model().batch_cycles(0)


def one_board(model, replica_id=0):
    """A replica running ``model`` as one link-free stage."""
    return Replica(replica_id, [PipelineServiceModel.of(model)])


class TestReplica:
    def batch(self, ids, t=0.0):
        return [InferenceRequest(i, t) for i in ids]

    def test_execute_spans_service_time(self):
        replica = one_board(flat_model(preload=10, first=100, steady=40))
        attempt = replica.execute_attempt(self.batch([0, 1]), 5.0)
        assert attempt.start_cycle == 5.0
        assert attempt.end_cycle == 5.0 + 150.0  # 10 + 100 + 1 * 40
        assert replica.busy_until == attempt.end_cycle

    def test_back_to_back_batches_serialize(self):
        replica = one_board(flat_model())
        end1 = replica.execute_attempt(self.batch([0]), 0.0).end_cycle
        second = replica.execute_attempt(self.batch([1]), 0.0)
        assert second.start_cycle == end1
        assert second.end_cycle == end1 + 100.0

    def test_stats_accumulate(self):
        replica = one_board(flat_model(), replica_id=3)
        replica.execute_attempt(self.batch([0, 1, 2]), 0.0)
        replica.execute_attempt(self.batch([3]), 0.0)
        (stats,) = replica.stats()
        assert stats.replica_id == 3
        assert stats.batches == 2
        assert stats.requests == 4
        assert stats.busy_cycles == pytest.approx(300 + 100)
        assert stats.utilization(800) == pytest.approx(0.5)

    def test_empty_batch_rejected(self):
        replica = one_board(flat_model())
        with pytest.raises(ServingError):
            replica.execute_attempt([], 0.0)

    def test_for_strategy(self, tiny_strategy):
        model = build_service_model(tiny_strategy)
        attempt = one_board(model).execute_attempt(self.batch(range(4)), 0.0)
        assert attempt.end_cycle == model.batch_cycles(4)

    def test_two_stages_book_exact_service_under_injector(self):
        """Busy cycles are the stages' exact service times, not the
        rounded spans: here ``(0.1 + 0.2) - 0.1 != 0.2``."""
        assert (0.1 + 0.2) - 0.1 != 0.2
        stage = flat_model(first=0.2, steady=0.2)  # 0.2 cycles per image
        pipeline = PipelineServiceModel([stage, stage], [lambda size: 0.1])
        replica = Replica(0, [pipeline])
        # A brownout long after the run: attached, but it never fires.
        injector = FaultInjector(
            FaultSpec.parse("brownout:replica=0,at=1e9,for=1,scale=2"),
            links=1,
            stages=2,
        )
        attempt = replica.execute_attempt(self.batch([0]), 0.1, injector)
        assert attempt.ok and attempt.start_cycle == 0.1
        head, tail = replica.stats()
        assert head.busy_cycles == tail.busy_cycles == 0.2
        assert head.wasted_cycles == tail.wasted_cycles == 0.0


class TestFleet:
    def test_build_fleet_ids(self):
        fleet = FleetScheduler(flat_model(), replicas=3)
        result = fleet.run([0.0] * 24)
        ids = [s.replica_id for s in result.metrics.replica_stats]
        assert ids == [0, 1, 2]

    def test_fleet_needs_a_replica(self):
        with pytest.raises(ServingError):
            FleetScheduler(flat_model(), replicas=0)
