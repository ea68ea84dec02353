"""Resilience control-plane tests.

The load-bearing contracts, in order of importance:

1. **Zero-fault bit-identity** — attaching a :class:`ResiliencePolicy`
   to a fault-free run changes *nothing*: same records, same metrics,
   ``metrics.recovery is None``.  The control plane observes; it only
   acts on evidence.
2. **Determinism** — same seed + fault spec + policy produce a
   bit-identical decision log (and ``recovery_log`` payload).
3. **The ladder is monotone** — no rung ever demands more resources
   than its predecessor (property-tested over the policy space).
4. **Online re-partitioning works** — a confirmed stage death on a
   pipelined fleet re-plans over the survivors, readmits traffic, and
   reports MTTR and goodput retention.

Flat-fleet scenarios reuse the hand-sized service model from
``test_serve_scheduler`` (batch of B costs exactly 100*B cycles).
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.faults import RetryPolicy
from repro.resilience import (
    HealthMonitor,
    RecoveryController,
    ReplicaState,
    ResilienceError,
    ResiliencePolicy,
    build_ladder,
    handover_cycles,
    recovery_log_payload,
    replan_survivors,
    surviving_fleet,
)
from repro.serve.scheduler import FleetScheduler, synthetic_arrivals
from repro.sim.simulator import GroupServiceModel, ServiceModel
from repro.toolflow import compile_model, partition_model


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


def scheduler(**kwargs):
    defaults = dict(
        service_model=flat_model(),
        replicas=2,
        max_batch=4,
        max_wait_cycles=0.0,
    )
    defaults.update(kwargs)
    return FleetScheduler(**defaults)


@pytest.fixture(scope="module")
def two_chip_plan():
    from repro.nn import models

    return partition_model(models.tiny_cnn(), devices="testchip,testchip")


@pytest.fixture(scope="module")
def compiled():
    from repro.nn import models

    return compile_model(models.tiny_cnn(), device="testchip")


class TestPolicyValidation:
    def test_defaults_are_valid(self):
        ResiliencePolicy()

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(ewma_alpha=0.0),
            dict(ewma_alpha=1.5),
            dict(degrade_after_failures=0),
            dict(recover_after_successes=0),
            dict(latency_degrade_factor=1.0),
            dict(confirm_down_cycles=0),
            dict(shrink_factor=0.0),
            dict(shrink_factor=1.5),
            dict(min_batch=0),
            dict(shed_queue=0),
            dict(replan_latency_s=-1.0),
            dict(max_ladder_steps=-1),
        ],
    )
    def test_bad_knobs_rejected(self, kwargs):
        with pytest.raises(ResilienceError):
            ResiliencePolicy(**kwargs)


class TestHealthMonitor:
    def test_single_failure_does_not_flap(self):
        monitor = HealthMonitor(num_replicas=1)
        assert monitor.observe_failure(0) is None
        assert monitor.state(0) == ReplicaState.UP

    def test_hysteretic_degrade_and_recover(self):
        monitor = HealthMonitor(
            num_replicas=1, degrade_after_failures=2, recover_after_successes=3
        )
        assert monitor.observe_failure(0) is None
        assert monitor.observe_failure(0) == "degraded"
        assert monitor.state(0) == ReplicaState.DEGRADED
        # Another failure is not a new edge.
        assert monitor.observe_failure(0) is None
        assert monitor.observe_success(0, 4) is None
        assert monitor.observe_success(0, 4) is None
        # A failure mid-streak resets the recovery count.
        assert monitor.observe_failure(0) is None
        assert monitor.observe_success(0, 4) is None
        assert monitor.observe_success(0, 4) is None
        assert monitor.observe_success(0, 4) == "recovered"
        assert monitor.state(0) == ReplicaState.UP

    def test_latency_inflation_degrades(self):
        monitor = HealthMonitor(
            num_replicas=1, alpha=1.0, latency_degrade_factor=1.5
        )
        assert monitor.observe_success(0, 4, latency_ratio=1.0) is None
        assert monitor.observe_success(0, 4, latency_ratio=2.0) == "degraded"

    def test_mark_down_is_idempotent(self):
        monitor = HealthMonitor(num_replicas=2)
        assert monitor.mark_down(1)
        assert not monitor.mark_down(1)
        assert monitor.state(1) == ReplicaState.DOWN
        monitor.mark_rebuilt(1)
        assert monitor.state(1) == ReplicaState.UP


class TestLadder:
    def test_rung_order_and_knobs(self):
        ladder = build_ladder(
            ResiliencePolicy(), base_max_batch=8, base_max_queue=None,
            fallback_available=True,
        )
        assert [r.kind for r in ladder] == [
            "shrink_batch", "fallback_swap", "shed",
        ]
        assert ladder[0].max_batch == 4
        assert ladder[1].fallback
        assert ladder[2].max_queue == 4  # policy.shed_queue

    def test_no_fallback_rung_without_fallback(self):
        ladder = build_ladder(
            ResiliencePolicy(), 8, None, fallback_available=False
        )
        assert [r.kind for r in ladder] == ["shrink_batch", "shed"]

    def test_shed_never_loosens_a_bounded_queue(self):
        ladder = build_ladder(ResiliencePolicy(shed_queue=16), 8, 2, False)
        assert ladder[-1].max_queue == 2

    def test_max_ladder_steps_truncates(self):
        ladder = build_ladder(
            ResiliencePolicy(max_ladder_steps=1), 8, None, True
        )
        assert [r.kind for r in ladder] == ["shrink_batch"]

    @given(
        shrink=st.floats(min_value=0.05, max_value=1.0),
        min_batch=st.integers(min_value=1, max_value=16),
        shed_queue=st.integers(min_value=1, max_value=64),
        base_batch=st.integers(min_value=1, max_value=64),
        base_queue=st.one_of(
            st.none(), st.integers(min_value=1, max_value=64)
        ),
        fallback=st.booleans(),
    )
    @settings(max_examples=200, deadline=None)
    def test_rung_demands_are_monotone(
        self, shrink, min_batch, shed_queue, base_batch, base_queue, fallback
    ):
        """Walking down the ladder never increases any demand component."""
        policy = ResiliencePolicy(
            shrink_factor=shrink, min_batch=min_batch, shed_queue=shed_queue
        )
        ladder = build_ladder(policy, base_batch, base_queue, fallback)
        base_demand = (
            base_batch,
            math.inf if base_queue is None else base_queue,
            1,
        )
        previous = base_demand
        for rung in ladder:
            demand = rung.demand()
            assert all(d <= p for d, p in zip(demand, previous))
            previous = demand


class TestZeroFaultBitIdentity:
    """Control plane attached + zero faults == plain scheduler."""

    def test_flat_fleet(self):
        arrivals = synthetic_arrivals(
            60, 120.0, np.random.default_rng(0)
        )
        plain = scheduler().run(arrivals)
        watched = scheduler(resilience=ResiliencePolicy()).run(arrivals)
        assert watched.records == plain.records
        assert watched.failures == plain.failures
        assert watched.metrics.recovery is None
        assert watched.metrics.to_dict() == plain.metrics.to_dict()

    def test_pipeline_fleet(self, two_chip_plan):
        plain = two_chip_plan.serve(pipelines=2).run_open_loop(
            num_requests=50, load=2.0, rng=np.random.default_rng(1)
        )
        watched = two_chip_plan.serve(
            pipelines=2, resilience=ResiliencePolicy()
        ).run_open_loop(
            num_requests=50, load=2.0, rng=np.random.default_rng(1)
        )
        assert watched.records == plain.records
        assert watched.metrics.recovery is None
        assert watched.metrics.to_dict() == plain.metrics.to_dict()

    def test_multi_tenant_fleet(self, compiled):
        from repro.capacity import MultiTenantScheduler

        strategy = compiled.strategy
        arrivals = synthetic_arrivals(48, 300.0, np.random.default_rng(2))
        runs = []
        for policy in (None, ResiliencePolicy()):
            shared = MultiTenantScheduler.for_strategies(
                {"t": strategy}, verify=False, replicas=2, resilience=policy
            )
            runs.append(shared.run({"t": arrivals}))
        plain, watched = runs
        assert (
            watched.per_tenant["t"].records == plain.per_tenant["t"].records
        )
        assert watched.recovery is None


class TestLadderInAction:
    def test_sustained_failures_walk_the_shrink_rung(self):
        # Every attempt fails: each replica degrades after 2 consecutive
        # failures, each degraded edge walks one rung.
        result = scheduler(
            faults="transient:p=1",
            retry=RetryPolicy(max_attempts=2, backoff_cycles=10),
            resilience=ResiliencePolicy(),
        ).run([0.0] * 8)
        recovery = result.metrics.recovery
        assert recovery is not None
        assert recovery["ladder_steps"] >= 1
        kinds = [e["kind"] for e in recovery["events"]]
        assert "degraded" in kinds and "ladder" in kinds
        rung1 = next(
            e for e in recovery["events"] if e["kind"] == "ladder"
        )
        assert "shrink_batch" in rung1["detail"]
        assert "max_batch=2" in rung1["detail"]  # 4 * shrink_factor 0.5

    def test_recovery_edge_logged_after_fault_window(self):
        # A brownout in [0, 2000) doubles service time: the latency
        # EWMA degrades the replica; once the window closes, a streak of
        # clean batches flips it back and the log says so.
        result = scheduler(
            replicas=1,
            faults="brownout:replica=0,at=0,for=2000,scale=2",
            resilience=ResiliencePolicy(recover_after_successes=3),
        ).run([float(i) * 150.0 for i in range(40)])
        recovery = result.metrics.recovery
        assert recovery is not None
        kinds = [e["kind"] for e in recovery["events"]]
        assert "recovered" in kinds
        assert recovery["health"]["0"]["state"] == "up"

    def test_fallback_swap_serves_the_lower_resource_strategy(
        self, compiled
    ):
        fallback = compiled.fallback_strategy()
        # The conventional-algorithm fallback trades speed for resources.
        assert fallback.latency_cycles >= compiled.strategy.latency_cycles
        fleet = FleetScheduler.for_strategy(
            compiled.strategy,
            replicas=2,
            max_batch=8,
            faults="transient:p=0.9",
            retry=RetryPolicy(max_attempts=6, backoff_cycles=100),
            resilience=ResiliencePolicy(),
            fallback=fallback,
        )
        result = fleet.run(
            synthetic_arrivals(64, 200.0, np.random.default_rng(3))
        )
        recovery = result.metrics.recovery
        assert recovery is not None
        assert recovery["ladder_steps"] >= 2
        swap = next(
            e for e in recovery["events"]
            if e["kind"] == "ladder" and "fallback" in e["detail"]
        )
        assert swap is not None
        # Work still completes after the swap.
        assert result.metrics.requests > 0

    def test_fallback_without_resilience_rejected(self, compiled):
        from repro.serve.batcher import ServingError

        with pytest.raises(ServingError):
            FleetScheduler.for_strategy(
                compiled.strategy, fallback=compiled.fallback_strategy()
            )


class TestSurvivingFleet:
    def test_interior_and_edge_removal(self, two_chip_plan):
        fleet = two_chip_plan.fleet
        for dead in range(len(fleet.devices)):
            survivors = surviving_fleet(fleet, dead)
            assert len(survivors.devices) == len(fleet.devices) - 1
            assert len(survivors.links) == max(0, len(fleet.links) - 1)

    def test_no_survivors_rejected(self, two_chip_plan):
        from repro.errors import ReproError
        from repro.partition.fleet import DeviceFleet

        lone = DeviceFleet(two_chip_plan.fleet.devices[:1], links=[])
        with pytest.raises(ReproError):
            surviving_fleet(lone, 0)

    def test_replan_covers_whole_network(self, two_chip_plan):
        survivor = replan_survivors(two_chip_plan, dead_stage=0)
        assert len(survivor.fleet.devices) == 1
        covered = [
            (p.start, p.stop) for p in survivor.placements
        ]
        assert covered[0][0] == 0
        assert covered[-1][1] == two_chip_plan.placements[-1].stop
        for (_, stop), (start, _) in zip(covered, covered[1:]):
            assert stop == start  # contiguous, no gaps
        assert handover_cycles(survivor) > 0


class TestOnlineRepartitioning:
    POLICY = ResiliencePolicy(confirm_down_cycles=1e4)
    FAULTS = "crash:replica=0,stage=1,at=20000"

    def run_crash(self, plan):
        fleet = plan.serve(
            pipelines=1, faults=self.FAULTS, resilience=self.POLICY
        )
        return fleet.run_open_loop(
            num_requests=48, load=1.5, rng=np.random.default_rng(0)
        )

    def test_stage_death_replans_and_readmits(self, two_chip_plan):
        result = self.run_crash(two_chip_plan)
        recovery = result.metrics.recovery
        assert recovery is not None
        assert recovery["rebuilds"] == 1
        kinds = [e["kind"] for e in recovery["events"]]
        assert "down" in kinds and "replan" in kinds
        assert recovery["mttr_cycles"] > 0
        assert recovery["mttr_ms"] == pytest.approx(
            recovery["mttr_cycles"]
            / two_chip_plan.fleet.reference_frequency_hz
            * 1e3
        )
        # The acceptance bar: recovered steady-state goodput >= 80% of
        # the pre-fault rate (the survivor plan is slower per image but
        # the single pipeline was not saturated).
        assert recovery["goodput_retention"] is not None
        assert recovery["goodput_retention"] >= 0.8
        # Every offered request completes: traffic stalls during the
        # outage, then drains on the rebuilt pipeline.
        assert result.metrics.requests == 48

    def test_recovery_log_bit_identical_across_runs(self, two_chip_plan):
        first = self.run_crash(two_chip_plan)
        again = self.run_crash(two_chip_plan)
        assert first.records == again.records
        assert first.metrics.recovery == again.metrics.recovery
        payloads = [
            recovery_log_payload(
                self.POLICY, r.metrics.recovery,
                faults=self.FAULTS, seed=0,
            )
            for r in (first, again)
        ]
        assert payloads[0] == payloads[1]

    def test_saved_artifact_round_trips(self, two_chip_plan, tmp_path):
        from repro.check.artifacts import load_envelope
        from repro.resilience import RECOVERY_LOG_KIND, save_recovery_log

        result = self.run_crash(two_chip_plan)
        path = save_recovery_log(
            tmp_path / "recovery.json",
            self.POLICY,
            result.metrics.recovery,
            faults=self.FAULTS,
            seed=0,
        )
        payload = load_envelope(path, expected_kind=RECOVERY_LOG_KIND).payload
        assert payload["schema_version"] == 1
        assert payload["summary"]["rebuilds"] == 1
        assert len(payload["events"]) == len(
            result.metrics.recovery["events"]
        )


class TestZeroCompletionSummary:
    def test_flat_summary_has_no_nan(self):
        result = scheduler(
            replicas=1,
            faults="crash:replica=0,at=0",
            retry=RetryPolicy(max_attempts=1),
        ).run([0.0, 10.0])
        text = result.summary()
        assert "nan" not in text.lower()
        assert "no completed requests" in text

    def test_multi_tenant_summary_reports_starved_tenant(self, compiled):
        from repro.capacity import MultiTenantScheduler

        shared = MultiTenantScheduler.for_strategies(
            {"t": compiled.strategy},
            verify=False,
            replicas=1,
            faults="crash:replica=0,at=0",
            retry=RetryPolicy(max_attempts=1),
        )
        outcome = shared.run({"t": [0.0, 10.0]})
        text = outcome.summary()
        assert "nan cycles" not in text  # the old p95-of-nothing output
        assert "no completed requests" in text
