"""Multi-tenant scheduler tests: degeneracy, fairness, priority, swaps.

The load-bearing contract is *exact* degeneracy — one tenant with
default knobs must reproduce :class:`FleetScheduler` bit-for-bit — plus
the fairness properties the sharing disciplines promise: weighted-fair
throughput proportional to weight, and strict priority that starves the
low class unless a ``min_share`` floor is configured.

Fairness is measured over completions within the arrival horizon (the
last arrival cycle): finite traces always drain eventually, so the
*steady-state* share is what completes while both tenants still offer
load.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.capacity import (
    CapacityError,
    MultiTenantScheduler,
    SHARING_KINDS,
    Tenant,
)
from repro.resilience import ResiliencePolicy
from repro.serve.batcher import ServingError
from repro.serve.scheduler import FleetScheduler, Policy, synthetic_arrivals
from repro.sim.simulator import GroupServiceModel, ServiceModel
from repro.toolflow import compile_model


def flat_model(preload=0.0, first=100.0, steady=100.0):
    """batch_cycles(B) = preload + first + (B-1)*steady."""
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


def make_tenant(name, **kwargs):
    return Tenant(name=name, service_model=flat_model(), **kwargs)


@pytest.fixture(scope="module")
def tiny_strategy():
    from repro.nn import models

    return compile_model(models.tiny_cnn(), device="testchip").strategy


@pytest.fixture(scope="module")
def other_strategy():
    from repro.nn import models

    return compile_model(
        models.tiny_cnn(height=24, width=24), device="testchip"
    ).strategy


def saturating_trace(per_tenant_gap, num=1000):
    """One tenant's arrivals at fixed spacing, starting at cycle 0."""
    return [float(i * per_tenant_gap) for i in range(num)]


def completions_within(result, name, horizon):
    return sum(
        1
        for record in result.per_tenant[name].records
        if record.completion_cycle <= horizon
    )


class TestDegeneracy:
    """A single default tenant IS the FleetScheduler, bit for bit."""

    def assert_identical(self, strategy, arrivals, **kwargs):
        single = FleetScheduler.for_strategy(
            strategy, verify=False, **kwargs
        )
        expected = single.run(arrivals)
        shared = MultiTenantScheduler.for_strategies(
            {strategy.network.name: strategy}, verify=False, **kwargs
        )
        outcome = shared.run({strategy.network.name: arrivals})
        got = outcome.per_tenant[strategy.network.name]
        assert got.records == expected.records
        assert got.failures == expected.failures
        # A shared fleet reports its recovery log fleet-wide.
        flat = expected.metrics.to_dict()
        assert outcome.recovery == flat["recovery"]
        assert got.metrics.to_dict() == {**flat, "recovery": None}
        assert outcome.swaps == 0 and outcome.swap_cycles == 0.0
        return expected

    def test_fault_free(self, tiny_strategy):
        fleet = FleetScheduler.for_strategy(tiny_strategy, verify=False)
        arrivals = synthetic_arrivals(
            200,
            fleet.saturating_interarrival(1.5),
            np.random.default_rng(0),
        )
        for replicas in (1, 3):
            for policy in Policy:
                self.assert_identical(
                    tiny_strategy,
                    arrivals,
                    replicas=replicas,
                    policy=policy,
                    max_batch=4,
                )

    def test_under_faults(self, tiny_strategy):
        fleet = FleetScheduler.for_strategy(tiny_strategy, verify=False)
        arrivals = synthetic_arrivals(
            150,
            fleet.saturating_interarrival(2.0),
            np.random.default_rng(1),
        )
        self.assert_identical(
            tiny_strategy,
            arrivals,
            replicas=2,
            faults="crash:replica=0,at=50000;transient:p=0.1",
            fault_seed=3,
            max_queue=8,
        )

    def test_resilience_under_brownout(self, tiny_strategy):
        """One tenant arms the latency trigger like the flat fleet: a
        brownout degrades the replica and walks the same ladder."""
        fleet = FleetScheduler.for_strategy(tiny_strategy, verify=False)
        arrivals = synthetic_arrivals(
            400,
            fleet.saturating_interarrival(2.5),
            np.random.default_rng(3),
        )
        expected = self.assert_identical(
            tiny_strategy,
            arrivals,
            replicas=2,
            faults=f"brownout:replica=1,at=0,for={arrivals[200]:.0f},scale=3",
            resilience=ResiliencePolicy(),
        )
        kinds = [e["kind"] for e in expected.metrics.recovery["events"]]
        assert "degraded" in kinds and "ladder" in kinds

    def test_bursty_arrivals(self, tiny_strategy):
        fleet = FleetScheduler.for_strategy(tiny_strategy, verify=False)
        arrivals = synthetic_arrivals(
            120,
            fleet.saturating_interarrival(1.0),
            np.random.default_rng(2),
            pattern="uniform",
        )
        self.assert_identical(
            tiny_strategy, arrivals, replicas=2, max_batch=8
        )


class TestWeightedFair:
    """Throughput under saturation tracks the configured weights."""

    def run_pair(self, heavy_weight, sharing="weighted_fair", **tenant_kw):
        tenants = [
            make_tenant("heavy", weight=heavy_weight, **tenant_kw),
            make_tenant("light", weight=1.0),
        ]
        scheduler = MultiTenantScheduler(
            tenants, replicas=1, sharing=sharing, max_batch=4
        )
        # Each tenant offers 2x one replica's full-batch capacity: the
        # fleet is 4x oversubscribed, so shares are scheduler-chosen.
        gap = flat_model().batch_cycles(4) / 4 / 2  # 50 cycles
        arrivals = {
            "heavy": saturating_trace(gap * 2),
            "light": saturating_trace(gap * 2),
        }
        horizon = max(max(a) for a in arrivals.values())
        result = scheduler.run(arrivals)
        return (
            completions_within(result, "heavy", horizon),
            completions_within(result, "light", horizon),
        )

    @given(weight=st.floats(min_value=1.0, max_value=5.0))
    @settings(max_examples=8, deadline=None)
    def test_throughput_tracks_weight(self, weight):
        heavy, light = self.run_pair(weight)
        assert light > 0, "the light tenant must never fully starve"
        ratio = heavy / light
        assert ratio == pytest.approx(weight, rel=0.25), (
            f"weight {weight:.2f} yielded throughput ratio {ratio:.2f}"
        )

    def test_equal_weights_split_evenly(self):
        heavy, light = self.run_pair(1.0)
        assert heavy == pytest.approx(light, rel=0.1)


class TestStrictPriority:
    def run_pair(self, min_share):
        tenants = [
            make_tenant("hi", priority=1),
            make_tenant("lo", priority=0, min_share=min_share),
        ]
        scheduler = MultiTenantScheduler(
            tenants, replicas=1, sharing="strict_priority", max_batch=4
        )
        gap = flat_model().batch_cycles(4) / 4 / 2
        arrivals = {
            "hi": saturating_trace(gap * 2),
            "lo": saturating_trace(gap * 2),
        }
        horizon = max(max(a) for a in arrivals.values())
        result = scheduler.run(arrivals)
        hi = completions_within(result, "hi", horizon)
        lo = completions_within(result, "lo", horizon)
        return hi, lo

    def test_no_floor_starves_low_priority(self):
        hi, lo = self.run_pair(min_share=0.0)
        assert lo == 0
        assert hi > 0

    @given(floor=st.floats(min_value=0.1, max_value=0.35))
    @settings(max_examples=6, deadline=None)
    def test_floor_guarantees_minimum_share(self, floor):
        hi, lo = self.run_pair(min_share=floor)
        share = lo / (hi + lo)
        # The floor is honored (within one-batch quantization) and the
        # high class still dominates the remainder.
        assert share >= floor * 0.7
        assert hi > lo

    def test_unknown_sharing_rejected(self):
        with pytest.raises(CapacityError):
            MultiTenantScheduler(
                [make_tenant("a")], sharing="lottery"
            )
        assert "lottery" not in SHARING_KINDS


class TestWarmSwaps:
    def test_swaps_charged_on_model_change_only(self):
        tenants = [
            make_tenant("a", swap_cycles=100.0),
            make_tenant("b", swap_cycles=200.0),
        ]
        scheduler = MultiTenantScheduler(tenants, replicas=1)
        # Well-separated arrivals serialize: a (initial load, free),
        # then b (one 200-cycle swap), then a again (one 100-cycle swap).
        result = scheduler.run({"a": [0.0, 5000.0], "b": [2000.0]})
        assert result.swaps == 2
        assert result.swap_cycles == pytest.approx(300.0)

    def test_single_tenant_never_swaps(self):
        scheduler = MultiTenantScheduler(
            [make_tenant("a", swap_cycles=500.0)], replicas=1
        )
        result = scheduler.run({"a": [0.0, 1000.0, 2000.0, 3000.0]})
        assert result.swaps == 0
        assert result.swap_cycles == 0.0

    def test_for_strategy_defaults_swap_to_weight_transfer(
        self, tiny_strategy
    ):
        tenant = Tenant.for_strategy("a", tiny_strategy, verify=False)
        device = tiny_strategy.device
        expected = (
            tiny_strategy.weight_transfer_bytes
            / device.bandwidth_bytes_per_s
            * device.frequency_hz
        )
        assert tenant.swap_cycles == pytest.approx(expected)

    def test_two_models_swap_accounting(self, tiny_strategy, other_strategy):
        scheduler = MultiTenantScheduler.for_strategies(
            {"a": tiny_strategy, "b": other_strategy},
            verify=False,
            replicas=1,
        )
        result = scheduler.run(
            {"a": [0.0, 10_000.0, 500_000.0], "b": [0.0, 600_000.0]}
        )
        assert result.swaps > 0
        assert result.swap_cycles > 0
        served = sum(
            r.metrics.requests for r in result.per_tenant.values()
        )
        assert served == 5

    def test_graph_and_chain_tenants_share_a_fleet(self, tiny_strategy):
        from repro.nn import models

        graph = compile_model(models.tiny_resnet(), device="testchip").strategy
        scheduler = MultiTenantScheduler.for_strategies(
            {"chain": tiny_strategy, "graph": graph}, replicas=1
        )
        result = scheduler.run(
            {"chain": [0.0, 500_000.0], "graph": [0.0, 600_000.0]}
        )
        assert result.per_tenant["graph"].metrics.requests == 2
        assert result.per_tenant["chain"].metrics.requests == 2
        assert result.swaps > 0


class TestDeterminism:
    def test_bit_identical_reruns(self, tiny_strategy, other_strategy):
        def run():
            scheduler = MultiTenantScheduler.for_strategies(
                {"a": tiny_strategy, "b": other_strategy},
                weights={"a": 2.0, "b": 1.0},
                verify=False,
                replicas=2,
                faults="transient:p=0.05",
                fault_seed=9,
            )
            arrivals = {
                "a": saturating_trace(300, num=120),
                "b": saturating_trace(500, num=80),
            }
            return scheduler.run(arrivals).to_dict()

        assert run() == run()


class TestValidation:
    def test_tenant_knobs(self):
        with pytest.raises(CapacityError):
            make_tenant("")
        with pytest.raises(CapacityError):
            make_tenant("a", weight=0.0)
        with pytest.raises(CapacityError):
            make_tenant("a", min_share=1.5)
        with pytest.raises(CapacityError):
            make_tenant("a", swap_cycles=-1.0)

    def test_scheduler_shape(self):
        with pytest.raises(CapacityError):
            MultiTenantScheduler([])
        with pytest.raises(CapacityError):
            MultiTenantScheduler([make_tenant("a"), make_tenant("a")])
        with pytest.raises(CapacityError):
            MultiTenantScheduler([make_tenant("a")], replicas=0)
        with pytest.raises(CapacityError):
            MultiTenantScheduler(
                [
                    make_tenant("a", min_share=0.6),
                    make_tenant("b", min_share=0.6),
                ]
            )
        with pytest.raises(ServingError):
            MultiTenantScheduler([make_tenant("a")], max_queue=0)

    def test_mixed_frequencies_rejected(self):
        slow = Tenant(name="a", service_model=flat_model(), frequency_hz=1e6)
        fast = Tenant(name="b", service_model=flat_model(), frequency_hz=2e6)
        with pytest.raises(CapacityError):
            MultiTenantScheduler([slow, fast])

    def test_arrival_mapping_must_match_tenants(self):
        scheduler = MultiTenantScheduler([make_tenant("a"), make_tenant("b")])
        with pytest.raises(CapacityError):
            scheduler.run({"a": [0.0]})
        with pytest.raises(CapacityError):
            scheduler.run({"a": [0.0], "b": [0.0], "c": [0.0]})
        with pytest.raises(ServingError):
            scheduler.run({"a": [0.0], "b": []})
