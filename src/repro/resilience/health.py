"""Per-replica health tracking: EWMA signals + a hysteretic state machine.

The monitor consumes exactly what the scheduler's event loop already
produces — one :class:`~repro.serve.runtime.BatchAttempt` per dispatch —
and distils it into three per-replica signals:

* a failure EWMA (fraction of recent attempts that failed),
* a latency-inflation EWMA (attempt span over the fault-free baseline
  for the same batch size, so brownouts show up as a ratio > 1), and
* consecutive success/failure streaks.

The streaks drive a hysteretic ``up -> degraded -> up`` transition pair:
entering ``degraded`` takes :attr:`ResiliencePolicy.degrade_after_failures`
*consecutive* failures (or a sustained latency-inflation EWMA), leaving
it takes :attr:`ResiliencePolicy.recover_after_successes` consecutive
successes — an isolated transient blip moves neither edge, so the state
machine cannot flap.  ``down`` is reserved for *confirmed* device death
(an injector outage at least ``confirm_down_cycles`` long) and is
entered exactly once per replica.

Pure bookkeeping: observing a fault-free run never changes any decision
the scheduler makes, which is what keeps a zero-fault run with the
control plane enabled bit-identical to the plain scheduler.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, Optional


class ReplicaState(str, Enum):
    """Hysteretic health state of one replica."""

    UP = "up"
    DEGRADED = "degraded"
    DOWN = "down"


@dataclass
class ReplicaHealth:
    """The monitor's running signals for one replica."""

    state: ReplicaState = ReplicaState.UP
    consecutive_failures: int = 0
    consecutive_successes: int = 0
    failure_ewma: float = 0.0
    latency_ewma: float = 1.0  # attempt span / fault-free baseline
    attempts: int = 0
    failures: int = 0
    completed_requests: int = 0  # goodput bookkeeping

    def to_dict(self) -> dict:
        return {
            "state": self.state.value,
            "attempts": self.attempts,
            "failures": self.failures,
            "failure_ewma": self.failure_ewma,
            "latency_ewma": self.latency_ewma,
            "completed_requests": self.completed_requests,
        }


@dataclass
class HealthMonitor:
    """Tracks every replica's health from the attempt stream.

    Args:
        alpha: EWMA smoothing factor for the failure / latency signals.
        degrade_after_failures: Consecutive failures that flip a replica
            ``up -> degraded``.
        recover_after_successes: Consecutive successes that flip it
            back ``degraded -> up`` (the hysteresis gap).
        latency_degrade_factor: Latency-inflation EWMA threshold that
            also counts as degradation (brownout detection); ``None``
            disables the latency trigger (fleets of several tenants or
            stages, where attempt spans legitimately include warm swaps
            or downstream queueing).
    """

    num_replicas: int
    alpha: float = 0.3
    degrade_after_failures: int = 2
    recover_after_successes: int = 8
    latency_degrade_factor: Optional[float] = 1.5
    replicas: Dict[int, ReplicaHealth] = field(default_factory=dict)

    def health(self, replica: int) -> ReplicaHealth:
        if replica not in self.replicas:
            self.replicas[replica] = ReplicaHealth()
        return self.replicas[replica]

    def state(self, replica: int) -> ReplicaState:
        return self.health(replica).state

    def observe_success(
        self,
        replica: int,
        batch_size: int,
        latency_ratio: Optional[float] = None,
    ) -> Optional[str]:
        """Fold one successful attempt in; returns ``"recovered"`` or
        ``"degraded"`` on a state transition, else None.

        ``latency_ratio`` is the attempt span over the fault-free
        baseline for the same batch size (1.0 on a healthy replica); a
        sustained ratio above ``latency_degrade_factor`` degrades the
        replica even though nothing failed — that is how brownouts are
        caught.
        """
        h = self.health(replica)
        h.attempts += 1
        h.completed_requests += batch_size
        h.consecutive_successes += 1
        h.consecutive_failures = 0
        h.failure_ewma *= 1.0 - self.alpha
        if latency_ratio is not None:
            h.latency_ewma += self.alpha * (latency_ratio - h.latency_ewma)
        if h.state is ReplicaState.DOWN:
            return None
        inflated = (
            self.latency_degrade_factor is not None
            and latency_ratio is not None
            and h.latency_ewma >= self.latency_degrade_factor
        )
        if h.state is ReplicaState.UP and inflated:
            h.state = ReplicaState.DEGRADED
            return "degraded"
        if (
            h.state is ReplicaState.DEGRADED
            and not inflated
            and h.consecutive_successes >= self.recover_after_successes
        ):
            h.state = ReplicaState.UP
            return "recovered"
        return None

    def observe_failure(self, replica: int) -> Optional[str]:
        """Fold one failed attempt in; returns ``"degraded"`` on the
        up -> degraded edge, else None."""
        h = self.health(replica)
        h.attempts += 1
        h.failures += 1
        h.consecutive_failures += 1
        h.consecutive_successes = 0
        h.failure_ewma += self.alpha * (1.0 - h.failure_ewma)
        if (
            h.state is ReplicaState.UP
            and h.consecutive_failures >= self.degrade_after_failures
        ):
            h.state = ReplicaState.DEGRADED
            return "degraded"
        return None

    def mark_down(self, replica: int) -> bool:
        """Confirm device death; True the first time for this replica."""
        h = self.health(replica)
        if h.state is ReplicaState.DOWN:
            return False
        h.state = ReplicaState.DOWN
        return True

    def mark_rebuilt(self, replica: int) -> None:
        """A re-planned replacement took over: back to ``up``, streaks
        cleared (the new pipeline has no history)."""
        h = self.health(replica)
        h.state = ReplicaState.UP
        h.consecutive_failures = 0
        h.consecutive_successes = 0
        h.failure_ewma = 0.0
        h.latency_ewma = 1.0

    def report(self) -> dict:
        """Deterministic JSON-safe snapshot of every observed replica."""
        return {
            str(r): self.replicas[r].to_dict()
            for r in sorted(self.replicas)
        }
