"""Golden digests of the serving event loop.

Each scenario serves a seeded trace and hashes everything the run
produced: completed records, failures, ``metrics.to_dict()``, plus the
multi-tenant result dict and the recovery-log payload where the run has
them.  The digests are hard-coded, so any change to a scheduling
decision, a service-time charge, a metric or a control-plane event
fails here with the scenario's name — the corpus that lets the serving
loop be restructured without moving its behaviour.

Regenerate only for a deliberate behaviour change::

    PYTHONPATH=src python tests/test_serving_golden.py
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from repro.capacity import MultiTenantScheduler
from repro.faults import RetryPolicy
from repro.nn import models
from repro.resilience import ResiliencePolicy, recovery_log_payload
from repro.serve.scheduler import FleetScheduler, synthetic_arrivals
from repro.toolflow import compile_model, partition_model

GOLDEN = {
    "flat_round_robin": "b4b231d6824b0a5c85794de9fa1fe1fc59d5ed766431545eda12e34ccfa3345c",
    "flat_least_loaded": "b42c3f7ee2ce13b173bc8ca93182a063a6db8d29b55e54d04064eeed83937cb2",
    "flat_faults_queue_deadline": "8c38d76b4bac4960cd1bb0e5571463cb07af0f1fe7648216a98bf67ec7276eb4",
    "flat_resilience_fallback": "9d77211ab9b453f652ecf94ed99b40259d60848d6f986fc6ac19393c3e67b985",
    "flat_resilience_dead_fleet": "1ccf7334aefd24ca38a550acd5a3c84a8e5d85d4cb0afdee0a1894a0039fe470",
    "flat_chaos_brownout": "9afa99228f46b25d2fa236bb75d8d51e41d3fc8c8a10c9baf00245aa42df67b2",
    "pipeline_stage_death_replan": "a4a52f9f9ec7491f91e0b99c28e9b057c81498c22fd2daf4bd4e9dd90a1cc4f1",
    "multitenant_weighted_fair": "4a9498f63b8cc49e0d0f62e96ea139e30586c6d394f94872f45c044b66ad5b1d",
    "multitenant_strict_priority_floor": "c88245493cca1ed9b6996777a28f3dc4e5068f655cbeedff25c65cb4bf4e1803",
    "multitenant_faults_shed": "19d6b9490036ad6644658cc8168aa5fe497a9893fbfc2f15641cf3e498d44dc8",
    "multitenant_dead_fleet": "f0aef74f99bc4adc96597cca665358b2dcc6cbc3d54c902c66a81eecbb7df48c",
}


def _digest(*parts) -> str:
    text = json.dumps(parts, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()


def _serving_parts(result) -> tuple:
    return (
        repr(result.records),
        repr(result.failures),
        result.metrics.to_dict(),
    )


def _recovery_parts(policy, recovery, faults, seed) -> dict:
    return recovery_log_payload(policy, recovery, faults=faults, seed=seed)


class _Corpus:
    """Compiled inputs shared by every scenario (compiled once)."""

    def __init__(self):
        compiled = compile_model(models.tiny_cnn(), device="testchip")
        self.main = compiled.strategy
        self.fallback = compiled.fallback_strategy()
        self.other = compile_model(
            models.tiny_cnn(height=24, width=24), device="testchip"
        ).strategy
        self.plan = partition_model(
            models.tiny_cnn(), devices="testchip,testchip"
        )

        single = FleetScheduler.for_strategy(self.main, verify=False)
        self.floor = single.service_model.single_image_cycles
        self.unit_gap = single.saturating_interarrival(1.0)

    def arrivals(self, num, load, seed):
        return synthetic_arrivals(
            num, self.unit_gap / load, np.random.default_rng(seed)
        )

    def tenant_arrivals(self, num, load, seed):
        return {
            "a": self.arrivals(num, load, seed),
            "b": self.arrivals(num, 2 * load, seed + 1),
        }


def flat_round_robin(c: _Corpus) -> str:
    fleet = FleetScheduler.for_strategy(
        c.main, replicas=3, policy="round_robin", max_batch=4, verify=False
    )
    return _digest(*_serving_parts(fleet.run(c.arrivals(400, 2.5, 11))))


def flat_least_loaded(c: _Corpus) -> str:
    fleet = FleetScheduler.for_strategy(
        c.main, replicas=3, policy="least_loaded", max_batch=4, verify=False
    )
    return _digest(*_serving_parts(fleet.run(c.arrivals(400, 2.8, 12))))


def flat_faults_queue_deadline(c: _Corpus) -> str:
    arrivals = c.arrivals(400, 2.5, 13)
    fleet = FleetScheduler.for_strategy(
        c.main,
        replicas=3,
        max_batch=4,
        faults=(
            "transient:p=0.15;"
            f"crash:replica=1,at={arrivals[80]:.0f},down={arrivals[60]:.0f}"
        ),
        fault_seed=5,
        retry=RetryPolicy(
            max_attempts=3, deadline_cycles=arrivals[40]
        ),
        max_queue=12,
        verify=False,
    )
    return _digest(*_serving_parts(fleet.run(arrivals)))


def flat_resilience_fallback(c: _Corpus) -> str:
    policy = ResiliencePolicy()
    faults = "transient:p=0.9"
    fleet = FleetScheduler.for_strategy(
        c.main,
        replicas=2,
        max_batch=8,
        faults=faults,
        fault_seed=3,
        retry=RetryPolicy(max_attempts=6, backoff_cycles=100),
        resilience=policy,
        fallback=c.fallback,
        verify=False,
    )
    result = fleet.run(
        synthetic_arrivals(96, 200.0, np.random.default_rng(3))
    )
    kinds = [e["detail"] for e in result.metrics.recovery["events"]]
    assert any("fallback" in detail for detail in kinds)
    return _digest(
        *_serving_parts(result),
        _recovery_parts(policy, result.metrics.recovery, faults, 3),
    )


def flat_chaos_brownout(c: _Corpus) -> str:
    arrivals = c.arrivals(400, 3.2, 15)
    policy = ResiliencePolicy()
    faults = (
        "transient:p=0.05;"
        f"brownout:replica=1,at=0,for={arrivals[200]:.0f},scale=2"
    )
    fleet = FleetScheduler.for_strategy(
        c.main,
        replicas=4,
        max_batch=8,
        faults=faults,
        fault_seed=7,
        resilience=policy,
        max_queue=32,
        slo_cycles=20 * c.floor,
        verify=False,
    )
    result = fleet.run(arrivals)
    return _digest(
        *_serving_parts(result),
        _recovery_parts(policy, result.metrics.recovery, faults, 7),
    )


def _with_idle_gap(arrivals, last):
    """The trace with its second half pushed ``2 * last`` cycles later.

    With ``last`` the trace's (or every tenant's) final arrival, the
    fleet sits idle around ``1.5 * last``: a crash there is never seen
    by a dispatch attempt.
    """
    half = len(arrivals) // 2
    return arrivals[:half] + [t + 2 * last for t in arrivals[half:]]


def flat_resilience_dead_fleet(c: _Corpus) -> str:
    raw = c.arrivals(200, 1.5, 14)
    arrivals, idle = _with_idle_gap(raw, raw[-1]), 1.5 * raw[-1]
    policy = ResiliencePolicy()
    faults = (
        f"crash:replica=0,at={arrivals[50]:.0f};"
        f"crash:replica=1,at={idle:.0f}"
    )
    fleet = FleetScheduler.for_strategy(
        c.main,
        replicas=2,
        max_batch=4,
        faults=faults,
        resilience=policy,
        verify=False,
    )
    result = fleet.run(arrivals)
    assert result.metrics.failed > 0
    return _digest(
        *_serving_parts(result),
        _recovery_parts(policy, result.metrics.recovery, faults, 0),
    )


def pipeline_stage_death_replan(c: _Corpus) -> str:
    policy = ResiliencePolicy(confirm_down_cycles=1e4)
    faults = "crash:replica=0,stage=1,at=20000"
    fleet = c.plan.serve(
        pipelines=2, max_batch=4, faults=faults, resilience=policy
    )
    result = fleet.run_open_loop(num_requests=160, load=2.5, seed=4)
    assert result.metrics.recovery["rebuilds"] == 1
    return _digest(
        *_serving_parts(result),
        _recovery_parts(policy, result.metrics.recovery, faults, 0),
    )


def _multitenant_parts(outcome) -> tuple:
    parts = [outcome.to_dict()]
    for name, result in outcome.per_tenant.items():
        parts.append(name)
        parts.extend(_serving_parts(result))
    return tuple(parts)


def multitenant_weighted_fair(c: _Corpus) -> str:
    fleet = MultiTenantScheduler.for_strategies(
        {"a": c.main, "b": c.other},
        weights={"a": 2.0, "b": 1.0},
        verify=False,
        replicas=2,
        max_batch=4,
        sharing="weighted_fair",
    )
    outcome = fleet.run(c.tenant_arrivals(300, 1.5, 21))
    assert outcome.swaps > 0
    return _digest(*_multitenant_parts(outcome))


def multitenant_strict_priority_floor(c: _Corpus) -> str:
    fleet = MultiTenantScheduler.for_strategies(
        {"a": c.main, "b": c.other},
        priorities={"a": 1, "b": 0},
        min_shares={"b": 0.25},
        verify=False,
        replicas=2,
        policy="round_robin",
        max_batch=4,
        sharing="strict_priority",
    )
    return _digest(
        *_multitenant_parts(fleet.run(c.tenant_arrivals(300, 2.0, 22)))
    )


def multitenant_faults_shed(c: _Corpus) -> str:
    arrivals = c.tenant_arrivals(300, 2.0, 23)
    policy = ResiliencePolicy()
    faults = (
        "transient:p=0.3;"
        f"crash:replica=2,at={arrivals['a'][100]:.0f};"
        f"brownout:replica=0,at=0,for={arrivals['a'][150]:.0f},scale=2"
    )
    fleet = MultiTenantScheduler.for_strategies(
        {"a": c.main, "b": c.other},
        min_shares={"a": 0.2},
        verify=False,
        replicas=3,
        max_batch=8,
        faults=faults,
        fault_seed=6,
        retry=RetryPolicy(max_attempts=4),
        max_queue=24,
        resilience=policy,
    )
    outcome = fleet.run(arrivals)
    steps = [e["detail"] for e in outcome.recovery["events"]]
    assert any("shed" in detail for detail in steps)
    return _digest(
        *_multitenant_parts(outcome),
        _recovery_parts(policy, outcome.recovery, faults, 6),
    )


def multitenant_dead_fleet(c: _Corpus) -> str:
    raw = c.tenant_arrivals(200, 1.0, 24)
    last = max(trace[-1] for trace in raw.values())
    arrivals = {
        name: _with_idle_gap(trace, last) for name, trace in raw.items()
    }
    idle = 1.5 * last
    policy = ResiliencePolicy()
    faults = (
        f"crash:replica=0,at={arrivals['a'][40]:.0f};"
        f"crash:replica=1,at={idle:.0f}"
    )
    fleet = MultiTenantScheduler.for_strategies(
        {"a": c.main, "b": c.other},
        verify=False,
        replicas=2,
        max_batch=4,
        faults=faults,
        resilience=policy,
    )
    outcome = fleet.run(arrivals)
    return _digest(
        *_multitenant_parts(outcome),
        _recovery_parts(policy, outcome.recovery, faults, 0),
    )


SCENARIOS = {
    fn.__name__: fn
    for fn in (
        flat_round_robin,
        flat_least_loaded,
        flat_faults_queue_deadline,
        flat_resilience_fallback,
        flat_resilience_dead_fleet,
        flat_chaos_brownout,
        pipeline_stage_death_replan,
        multitenant_weighted_fair,
        multitenant_strict_priority_floor,
        multitenant_faults_shed,
        multitenant_dead_fleet,
    )
}


@pytest.fixture(scope="module")
def corpus():
    return _Corpus()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_digest(corpus, name):
    assert SCENARIOS[name](corpus) == GOLDEN[name], (
        f"serving scenario {name!r} changed behaviour"
    )


if __name__ == "__main__":
    shared = _Corpus()
    for scenario, func in SCENARIOS.items():
        print(f'    "{scenario}": "{func(shared)}",')
