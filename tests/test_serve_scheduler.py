"""Scheduler tests: hand-computed virtual-clock traces for both policies."""

import numpy as np
import pytest

from repro.faults import RetryPolicy
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


def scheduler(**kwargs):
    defaults = dict(
        service_model=flat_model(),  # batch of B costs exactly 100*B cycles
        replicas=2,
        policy=Policy.LEAST_LOADED,
        max_batch=4,
        max_wait_cycles=0.0,
    )
    defaults.update(kwargs)
    return FleetScheduler(**defaults)


def by_id(result):
    return {r.request_id: r for r in result.records}


class TestHandTraces:
    """Arrivals [0,0,0,0,10,20], 2 replicas, max_batch 4, max_wait 0.

    The four cycle-0 requests form a full batch on replica 0 occupying
    cycles 0-400.  Request 4 (t=10) dispatches alone to replica 1
    (10-110).  Request 5 (t=20) is where the policies diverge:
    round-robin rotates back to busy replica 0 (starts at 400),
    least-loaded picks replica 1 as soon as it frees (starts at 110).
    """

    ARRIVALS = [0, 0, 0, 0, 10, 20]

    def test_round_robin(self):
        result = scheduler(policy="round_robin").run(self.ARRIVALS)
        records = by_id(result)
        for i in range(4):
            assert records[i].replica_id == 0
            assert records[i].dispatch_cycle == 0
            assert records[i].completion_cycle == 400
            assert records[i].batch_size == 4
        assert records[4].replica_id == 1
        assert records[4].dispatch_cycle == 10
        assert records[4].completion_cycle == 110
        assert records[5].replica_id == 0
        assert records[5].dispatch_cycle == 400
        assert records[5].completion_cycle == 500
        assert records[5].latency_cycles == 480

    def test_least_loaded(self):
        result = scheduler(policy="least_loaded").run(self.ARRIVALS)
        records = by_id(result)
        assert records[4].replica_id == 1
        assert records[4].completion_cycle == 110
        # The straggler rides the replica that frees first instead of
        # waiting out the big batch.
        assert records[5].replica_id == 1
        assert records[5].dispatch_cycle == 110
        assert records[5].completion_cycle == 210
        assert records[5].latency_cycles == 190

    def test_policy_changes_tail_latency(self):
        rr = scheduler(policy="round_robin").run(self.ARRIVALS)
        ll = scheduler(policy="least_loaded").run(self.ARRIVALS)
        assert rr.metrics.p99_latency_cycles == 480
        assert ll.metrics.p99_latency_cycles == 400


class TestBatchFormation:
    def test_arrivals_before_deadline_join_batch(self):
        """[0, 5, 8] with max_wait 10 fill the batch and dispatch at 8."""
        result = scheduler(
            replicas=1, max_batch=3, max_wait_cycles=10.0
        ).run([0, 5, 8])
        records = by_id(result)
        for i in range(3):
            assert records[i].batch_size == 3
            assert records[i].dispatch_cycle == 8
            assert records[i].completion_cycle == 8 + 300

    def test_deadline_cuts_partial_batch(self):
        """[0, 5, 30] with max_wait 10: [0,5] go at the cycle-10 deadline."""
        result = scheduler(
            replicas=1, max_batch=3, max_wait_cycles=10.0
        ).run([0, 5, 30])
        records = by_id(result)
        assert records[0].batch_size == 2
        assert records[0].dispatch_cycle == 10
        assert records[0].completion_cycle == 210
        # Request 2 waits for the busy replica, then runs alone.
        assert records[2].batch_size == 1
        assert records[2].dispatch_cycle == 210
        assert records[2].completion_cycle == 310
        assert records[2].latency_cycles == 280

    def test_single_request_runs_at_floor(self):
        result = scheduler(replicas=1).run([40])
        record = result.records[0]
        assert record.dispatch_cycle == 40
        assert record.latency_cycles == 100  # no queueing, no batching


class TestDeterminism:
    def test_identical_runs(self):
        arrivals = synthetic_arrivals(64, 30, np.random.default_rng(3))
        a = scheduler().run(arrivals)
        b = scheduler().run(arrivals)
        assert a.records == b.records
        assert a.metrics == b.metrics

    def test_no_wall_clock_dependence(self):
        """Virtual-clock metrics are exact, not timing-sensitive."""
        result = scheduler(replicas=1, max_batch=1).run([0, 0, 0])
        completions = sorted(r.completion_cycle for r in result.records)
        assert completions == [100, 200, 300]


class TestValidation:
    def test_empty_trace_rejected(self):
        with pytest.raises(ServingError):
            scheduler().run([])

    def test_negative_arrival_rejected(self):
        with pytest.raises(ServingError):
            scheduler().run([-1.0])

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            scheduler(policy="fastest_finger")

    def test_bad_load_rejected(self):
        with pytest.raises(ServingError):
            scheduler().saturating_interarrival(load=0)


class TestEdgeCases:
    def test_empty_open_loop_rejected(self):
        """num_requests=0 is caught before the event loop ever starts."""
        with pytest.raises(ServingError):
            scheduler().run_open_loop(0, load=1.0)

    def test_single_replica_policies_agree(self):
        """With one replica there is nothing to place: identical traces."""
        arrivals = synthetic_arrivals(48, 60, np.random.default_rng(7))
        rr = scheduler(replicas=1, policy="round_robin").run(arrivals)
        ll = scheduler(replicas=1, policy="least_loaded").run(arrivals)
        assert rr.records == ll.records

    def test_least_loaded_ties_break_to_lowest_id(self):
        """Three idle replicas, three back-to-back singleton batches:
        equal busy_until must resolve 0, 1, 2 — not arbitrarily."""
        result = scheduler(
            replicas=3, max_batch=1, policy="least_loaded"
        ).run([0, 0, 0])
        records = by_id(result)
        assert [records[i].replica_id for i in range(3)] == [0, 1, 2]

    def test_tie_breaking_is_deterministic(self):
        arrivals = [0.0] * 12
        a = scheduler(replicas=4, max_batch=1).run(arrivals)
        b = scheduler(replicas=4, max_batch=1).run(arrivals)
        assert [r.replica_id for r in a.records] == [
            r.replica_id for r in b.records
        ]


class TestFallbackSwap:
    def test_later_batches_are_charged_the_fallback_model(self):
        """After the warm swap every batch costs the fallback's
        ``batch_cycles(size)``, including batch sizes the replica had
        already served on the main model."""
        main = flat_model(first=100.0, steady=40.0)
        fallback = flat_model(preload=50.0, first=130.0, steady=70.0)
        fleet = FleetScheduler(
            main,
            replicas=2,
            max_batch=8,
            max_wait_cycles=50.0,
            faults="transient:p=0.4",
            fault_seed=1,
            retry=RetryPolicy(max_attempts=8, backoff_cycles=20),
            resilience=ResiliencePolicy(max_ladder_steps=2),
            fallback_model=fallback,
            fallback_swap_cycles=500.0,
        )
        result = fleet.run(
            synthetic_arrivals(300, 30.0, np.random.default_rng(2))
        )
        swap = next(
            e["cycle"] for e in result.metrics.recovery["events"]
            if e["kind"] == "ladder" and "fallback" in e["detail"]
        )
        # Transient faults leave completed batches at their exact
        # service time; each batch starts at its record's dispatch.
        before = [r for r in result.records if r.dispatch_cycle < swap]
        after = [r for r in result.records if r.dispatch_cycle >= swap]
        for records, model in ((before, main), (after, fallback)):
            assert records
            for r in records:
                assert r.completion_cycle == (
                    r.dispatch_cycle + model.batch_cycles(r.batch_size)
                )
        served = {(r.replica_id, r.batch_size) for r in before}
        assert served & {(r.replica_id, r.batch_size) for r in after}

    def test_pipelined_fallback_is_charged_its_tail(self):
        """A swap to a two-stage fallback also charges the fallback's
        link and second stage: every later batch spans its full
        ``batch_cycles(size)``.  Links and second stages are faster than
        any head, so no batch queues downstream."""
        from repro.serve.runtime import PipelineServiceModel

        def pipeline(head, link, tail):
            return PipelineServiceModel([head, tail], [lambda size: link * size])

        main = pipeline(flat_model(first=100.0, steady=40.0), 5.0,
                        flat_model(first=20.0, steady=10.0))
        fallback = pipeline(flat_model(preload=50.0, first=130.0, steady=70.0),
                            10.0, flat_model(first=30.0, steady=10.0))
        fleet = FleetScheduler(
            main,
            replicas=2,
            max_batch=8,
            max_wait_cycles=50.0,
            faults="transient:p=0.4",
            fault_seed=1,
            retry=RetryPolicy(max_attempts=8, backoff_cycles=20),
            resilience=ResiliencePolicy(max_ladder_steps=2),
            fallback_model=fallback,
            fallback_swap_cycles=500.0,
        )
        result = fleet.run(
            synthetic_arrivals(300, 30.0, np.random.default_rng(2))
        )
        swap = next(
            e["cycle"] for e in result.metrics.recovery["events"]
            if e["kind"] == "ladder" and "fallback" in e["detail"]
        )
        before = [r for r in result.records if r.dispatch_cycle < swap]
        after = [r for r in result.records if r.dispatch_cycle >= swap]
        for records, model in ((before, main), (after, fallback)):
            assert records
            for r in records:
                # The stages and link add up in another order than
                # batch_cycles, so the sums may differ in the last bit.
                assert r.completion_cycle == pytest.approx(
                    r.dispatch_cycle + model.batch_cycles(r.batch_size),
                    rel=1e-12,
                )
        served = {(r.replica_id, r.batch_size) for r in before}
        assert served & {(r.replica_id, r.batch_size) for r in after}


class TestSyntheticArrivals:
    def test_starts_at_zero_and_sorted(self):
        trace = synthetic_arrivals(100, 50, np.random.default_rng(1))
        assert trace[0] == 0.0
        assert trace == sorted(trace)
        assert len(trace) == 100

    def test_constant_pattern(self):
        trace = synthetic_arrivals(4, 10, pattern="constant")
        assert trace == [0.0, 10.0, 20.0, 30.0]

    def test_seed_reproducible(self):
        a = synthetic_arrivals(50, 20, np.random.default_rng(9))
        b = synthetic_arrivals(50, 20, np.random.default_rng(9))
        assert a == b

    def test_unknown_pattern(self):
        with pytest.raises(ServingError):
            synthetic_arrivals(10, 10, pattern="bursty")


class TestCompiledIntegration:
    """End to end on a real compiled strategy (timing-only, so fast)."""

    @pytest.fixture(scope="class")
    def compiled(self):
        from repro.nn import models

        return compile_model(models.tiny_cnn(), device="testchip")

    def test_serve_hook_and_latency_floor(self, compiled):
        fleet = compiled.serve(replicas=2, max_batch=4)
        result = fleet.run_open_loop(120, load=2.0, rng=np.random.default_rng(0))
        metrics = result.metrics
        floor = fleet.service_model.single_image_cycles
        assert metrics.requests == 120
        assert metrics.p99_latency_cycles >= metrics.p50_latency_cycles
        assert metrics.p50_latency_cycles >= floor * (1 - 1e-12)

    def test_replicas_scale_throughput(self, compiled):
        """Under 6x overload, 4 replicas do >= 3x one replica's rate."""
        rates = {}
        for replicas in (1, 4):
            fleet = compiled.serve(replicas=replicas, max_batch=4)
            result = fleet.run_open_loop(
                200, load=6.0, rng=np.random.default_rng(0)
            )
            rates[replicas] = result.metrics.throughput_per_mcycle
        assert rates[4] >= 3.0 * rates[1]
