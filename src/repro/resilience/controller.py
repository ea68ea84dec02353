"""RecoveryController: the degradation ladder and the decision log.

The controller sits inside the scheduler's event loop.  Every dispatched
batch is reported to :meth:`RecoveryController.observe`; the scheduler
then drains :meth:`pop_actions` and applies whatever the controller
decided — shrink the batcher, warm-swap the fallback strategy, tighten
admission, or rebuild a dead pipeline on a survivor plan.  Keeping the
*decision* here and the *mechanism* in the scheduler means one
controller serves flat fleets, pipelined fleets and multi-tenant fleets
alike.

The degradation ladder is precomputed at attach time from the policy
and the scheduler's base knobs (:func:`build_ladder`), so each rung's
resource demand is a static, testable fact: rungs are monotone — no
rung ever demands more than the one before it (property-tested in
``tests/test_resilience.py``).

Every decision appends one :class:`RecoveryEvent` in event-loop order.
The list is the **recovery log**: with the same seed, fault spec and
policy it is bit-identical across runs, and it travels as a checksummed
``recovery_log`` artifact through the standard envelope
(:func:`save_recovery_log` / ``repro check``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Union

from repro.errors import ReproError
from repro.resilience.health import HealthMonitor

#: Artifact kind of an exported recovery log.
RECOVERY_LOG_KIND = "recovery_log"


class ResilienceError(ReproError):
    """Invalid resilience policy or control-plane misuse."""


@dataclass(frozen=True)
class ResiliencePolicy:
    """Knobs of the health monitor and the degradation ladder.

    Attributes:
        ewma_alpha: Smoothing of the failure / latency EWMAs.
        degrade_after_failures: Consecutive failures flipping a replica
            up -> degraded (>= 2 keeps isolated blips from flapping).
        recover_after_successes: Consecutive successes flipping it back.
        latency_degrade_factor: Latency-inflation EWMA threshold that
            counts as degradation (brownout detection) on fleets whose
            attempt spans are pure service time.
        confirm_down_cycles: An injector outage at least this long
            confirms device death (default: only permanent outages).
        shrink_factor: Rung 1 multiplies ``max_batch`` by this.
        min_batch: Floor of the shrink rung.
        shed_queue: Admission bound the shed rung tightens to.
        replan_latency_s: Wall-clock price of one warm re-plan, charged
            on the virtual clock at the fleet's reference frequency
            (the DP re-runs through a warm cost store, so milliseconds).
        max_ladder_steps: Optional cap on how many rungs a run may walk.
    """

    ewma_alpha: float = 0.3
    degrade_after_failures: int = 2
    recover_after_successes: int = 8
    latency_degrade_factor: float = 1.5
    confirm_down_cycles: float = math.inf
    shrink_factor: float = 0.5
    min_batch: int = 1
    shed_queue: int = 4
    replan_latency_s: float = 0.005
    max_ladder_steps: Optional[int] = None

    def __post_init__(self):
        if not 0.0 < self.ewma_alpha <= 1.0:
            raise ResilienceError(
                f"ewma_alpha must be in (0, 1], got {self.ewma_alpha}"
            )
        if self.degrade_after_failures < 1:
            raise ResilienceError("degrade_after_failures must be >= 1")
        if self.recover_after_successes < 1:
            raise ResilienceError("recover_after_successes must be >= 1")
        if self.latency_degrade_factor <= 1.0:
            raise ResilienceError(
                f"latency_degrade_factor must be > 1, "
                f"got {self.latency_degrade_factor}"
            )
        if self.confirm_down_cycles <= 0:
            raise ResilienceError("confirm_down_cycles must be positive")
        if not 0.0 < self.shrink_factor <= 1.0:
            raise ResilienceError(
                f"shrink_factor must be in (0, 1], got {self.shrink_factor}"
            )
        if self.min_batch < 1:
            raise ResilienceError("min_batch must be >= 1")
        if self.shed_queue < 1:
            raise ResilienceError("shed_queue must be >= 1")
        if self.replan_latency_s < 0:
            raise ResilienceError("replan_latency_s must be >= 0")
        if self.max_ladder_steps is not None and self.max_ladder_steps < 0:
            raise ResilienceError("max_ladder_steps must be >= 0")

    def to_dict(self) -> dict:
        return {
            "ewma_alpha": self.ewma_alpha,
            "degrade_after_failures": self.degrade_after_failures,
            "recover_after_successes": self.recover_after_successes,
            "latency_degrade_factor": self.latency_degrade_factor,
            "confirm_down_cycles": (
                None
                if math.isinf(self.confirm_down_cycles)
                else self.confirm_down_cycles
            ),
            "shrink_factor": self.shrink_factor,
            "min_batch": self.min_batch,
            "shed_queue": self.shed_queue,
            "replan_latency_s": self.replan_latency_s,
            "max_ladder_steps": self.max_ladder_steps,
        }


@dataclass(frozen=True)
class LadderRung:
    """One degradation step: the fleet-wide knobs in force at this rung.

    ``demand()`` is the rung's resource-demand vector — (batch slots,
    queue slots, model tier) — compared componentwise in the
    monotonicity property: walking down the ladder never *increases*
    any component.
    """

    kind: str  # shrink_batch | fallback_swap | shed
    max_batch: int
    max_queue: Optional[int]  # None = unbounded admission
    fallback: bool  # serving the lower-resource fallback strategy?

    def demand(self) -> tuple:
        queue = math.inf if self.max_queue is None else self.max_queue
        return (self.max_batch, queue, 0 if self.fallback else 1)

    def describe(self) -> str:
        parts = [f"max_batch={self.max_batch}"]
        if self.fallback:
            parts.append("fallback strategy")
        if self.max_queue is not None:
            parts.append(f"max_queue={self.max_queue}")
        return f"{self.kind} ({', '.join(parts)})"


def build_ladder(
    policy: ResiliencePolicy,
    base_max_batch: int,
    base_max_queue: Optional[int],
    fallback_available: bool,
) -> List[LadderRung]:
    """The degradation ladder for one scheduler's base configuration.

    Rung order follows the escalation story: shrink batches first (cheap
    and reversible), warm-swap the pre-compiled fallback strategy next
    (priced at its weight-transfer cost), shed load last.  The fallback
    rung only exists when a fallback was compiled at plan time; each
    rung's demand vector is componentwise <= its predecessor's by
    construction.
    """
    if base_max_batch < 1:
        raise ResilienceError(f"max_batch must be >= 1, got {base_max_batch}")
    rungs: List[LadderRung] = []
    batch = max(policy.min_batch, int(base_max_batch * policy.shrink_factor))
    batch = min(batch, base_max_batch)  # a floor above base never grows it
    queue = base_max_queue
    rungs.append(LadderRung("shrink_batch", batch, queue, fallback=False))
    if fallback_available:
        rungs.append(LadderRung("fallback_swap", batch, queue, fallback=True))
    shed_queue = (
        policy.shed_queue
        if queue is None
        else min(queue, policy.shed_queue)
    )
    rungs.append(
        LadderRung("shed", batch, shed_queue, fallback=fallback_available)
    )
    if policy.max_ladder_steps is not None:
        rungs = rungs[: policy.max_ladder_steps]
    return rungs


@dataclass(frozen=True)
class RecoveryEvent:
    """One control-plane decision, stamped on the virtual clock."""

    cycle: float
    kind: str  # degraded | recovered | ladder | down | replan | rebuild-failed
    replica: Optional[int]
    detail: str

    def to_dict(self) -> dict:
        return {
            "cycle": self.cycle,
            "kind": self.kind,
            "replica": self.replica,
            "detail": self.detail,
        }


@dataclass
class _Action:
    """A decision waiting for the scheduler to apply it."""

    kind: str  # shrink_batch | fallback_swap | shed | rebuild
    cycle: float
    value: Optional[int] = None
    replica: Optional[int] = None


class RecoveryController:
    """One serving run's control plane (fresh per ``run()`` call).

    The scheduler feeds it attempts (:meth:`observe`) and drains its
    decisions (:meth:`pop_actions`); ``max_batch`` / ``max_queue`` track
    the currently active rung and are read by the scheduler at batching
    and admission points.  Every mutation appends to :attr:`events` in
    event-loop order — the deterministic recovery log.
    """

    def __init__(
        self,
        policy: ResiliencePolicy,
        num_replicas: int,
        base_max_batch: int,
        base_max_queue: Optional[int],
        fallback_available: bool = False,
        baseline_fn: Optional[Callable[[int], float]] = None,
    ):
        """``baseline_fn(B)`` is a batch's analytic service time; given,
        it arms the latency trigger (successes slower than
        ``policy.latency_degrade_factor`` times it degrade a replica)."""
        self.policy = policy
        self.monitor = HealthMonitor(
            num_replicas=num_replicas,
            alpha=policy.ewma_alpha,
            degrade_after_failures=policy.degrade_after_failures,
            recover_after_successes=policy.recover_after_successes,
            latency_degrade_factor=(
                policy.latency_degrade_factor
                if baseline_fn is not None
                else None
            ),
        )
        self.ladder = build_ladder(
            policy, base_max_batch, base_max_queue, fallback_available
        )
        self.rung_index = -1  # -1: base configuration, no rung active
        self.max_batch = base_max_batch
        self.max_queue = base_max_queue
        self._base_max_queue = base_max_queue
        self.fallback_active = False
        self.rebuilt: Dict[int, float] = {}  # replica -> ready cycle
        self.events: List[RecoveryEvent] = []
        self._actions: List[_Action] = []
        self._down_at: Dict[int, float] = {}
        self._baseline_default = baseline_fn
        self._archived_stats: List = []
        self._next_stats_base: Optional[int] = None

    # -- the observation path ------------------------------------------------

    def observe(
        self, replica: int, attempt, batch_size: int, injector=None
    ) -> None:
        """Fold one dispatched batch's outcome into the health model.

        On a fault-free attempt this is pure bookkeeping.  A failure
        advances the replica's streaks and may (a) degrade it and walk
        the ladder one rung, and (b) — for a crash whose injector outage
        is at least ``confirm_down_cycles`` — confirm device death and
        emit a rebuild action.
        """
        if attempt.ok:
            ratio = None
            fn = self._baseline_default
            if fn is not None:
                base = fn(batch_size)
                if base > 0:
                    ratio = (attempt.end_cycle - attempt.start_cycle) / base
            edge = self.monitor.observe_success(replica, batch_size, ratio)
            if edge == "degraded":
                self._event(
                    attempt.end_cycle,
                    "degraded",
                    replica,
                    f"latency inflation ewma "
                    f"{self.monitor.health(replica).latency_ewma:.2f}x",
                )
                self._escalate(attempt.end_cycle)
            elif edge == "recovered":
                self._event(
                    attempt.end_cycle, "recovered", replica,
                    f"{self.monitor.health(replica).consecutive_successes} "
                    f"consecutive successes",
                )
            return
        edge = self.monitor.observe_failure(replica)
        if edge == "degraded":
            h = self.monitor.health(replica)
            self._event(
                attempt.end_cycle,
                "degraded",
                replica,
                f"{h.consecutive_failures} consecutive failures "
                f"({getattr(attempt, 'failure', None) or 'failed'})",
            )
            self._escalate(attempt.end_cycle)
        if getattr(attempt, "failure", None) == "crash" and injector is not None:
            resume = injector.available_from(replica, attempt.end_cycle)
            if resume - attempt.end_cycle >= self.policy.confirm_down_cycles:
                self.confirm_down(replica, attempt.end_cycle, resume)

    def confirm_down(
        self, replica: int, cycle: float, resume: float
    ) -> bool:
        """Confirm device death (idempotent) and request a rebuild."""
        if not self.monitor.mark_down(replica):
            return False
        self._down_at[replica] = cycle
        outage = (
            "permanent"
            if math.isinf(resume)
            else f"down until cycle {resume:,.0f}"
        )
        self._event(cycle, "down", replica, f"confirmed dead: {outage}")
        self._actions.append(_Action("rebuild", cycle, replica=replica))
        return True

    def check_dead_fleet(self, fleet, clock: float, injector) -> bool:
        """Dead-fleet hook: confirm deaths the attempt path never saw.

        A replica whose crash window opens while it sits idle produces
        no failed attempt — the scheduler just finds the whole fleet
        unavailable.  Confirm every such death here so the rebuild path
        still fires.  Returns True when any new death was confirmed.
        """
        if injector is None:
            return False
        confirmed = False
        for replica in fleet:
            rid = replica.replica_id
            if rid in self.rebuilt:
                continue
            resume = injector.available_from(
                rid, max(clock, replica.busy_until)
            )
            if resume - clock >= self.policy.confirm_down_cycles:
                confirmed |= self.confirm_down(rid, clock, resume)
        return confirmed

    # -- the decision path ---------------------------------------------------

    def pop_actions(self) -> List[_Action]:
        actions, self._actions = self._actions, []
        return actions

    def _escalate(self, cycle: float) -> None:
        nxt = self.rung_index + 1
        if nxt >= len(self.ladder):
            return
        self.rung_index = nxt
        rung = self.ladder[nxt]
        self.max_batch = rung.max_batch
        self.max_queue = rung.max_queue
        if rung.kind == "fallback_swap":
            self.fallback_active = True
        self._event(
            cycle, "ladder", None, f"rung {nxt + 1}: {rung.describe()}"
        )
        self._actions.append(
            _Action(rung.kind, cycle, value=rung.max_batch)
        )

    # -- rebuild bookkeeping (pipelined fleets) ------------------------------

    def note_rebuilt(
        self, replica: int, cycle: float, ready: float, detail: str
    ) -> None:
        self.rebuilt[replica] = ready
        self.monitor.mark_rebuilt(replica)
        self._event(cycle, "replan", replica, detail)

    def note_rebuild_failed(
        self, replica: int, cycle: float, reason: str
    ) -> None:
        self._event(cycle, "rebuild-failed", replica, reason)

    def set_default_baseline(self, fn: Callable[[int], float]) -> None:
        self._baseline_default = fn

    def archive_stats(self, stats: Sequence) -> None:
        """Keep a replaced replica's stats rows for the final metrics."""
        self._archived_stats.extend(stats)

    @property
    def archived_stats(self) -> List:
        return list(self._archived_stats)

    def alloc_stats_base(self, first_free: int, stages: int) -> int:
        """Distinct stats-row ids for a rebuilt replica's stages."""
        if self._next_stats_base is None:
            self._next_stats_base = first_free
        base = self._next_stats_base
        self._next_stats_base += stages
        return base

    # -- the log -------------------------------------------------------------

    def _event(
        self, cycle: float, kind: str, replica: Optional[int], detail: str
    ) -> None:
        self.events.append(
            RecoveryEvent(cycle=cycle, kind=kind, replica=replica, detail=detail)
        )

    def finalize(self, records, frequency_hz: float) -> Optional[dict]:
        """The metrics-facing recovery summary (None when nothing fired).

        MTTR is detection-to-readmission of the *first* confirmed death:
        the cycle the controller confirmed the device dead to the cycle
        its re-planned replacement could accept traffic.  Goodput
        retention compares the completion rate after readmission with
        the pre-fault completion rate.  Returning None for an event-free
        run keeps zero-fault metrics bit-identical to the plain
        scheduler's.
        """
        if not self.events:
            return None
        detect: Optional[float] = None
        ready: Optional[float] = None
        mttr: Optional[float] = None
        if self._down_at and self.rebuilt:
            first = min(
                (cycle, replica) for replica, cycle in self._down_at.items()
                if replica in self.rebuilt
            )
            detect = first[0]
            ready = self.rebuilt[first[1]]
            mttr = ready - detect
        elif self._down_at:
            detect = min(self._down_at.values())
        completions = [r for r in records if r.outcome == "completed"]
        pre_rate = post_rate = retention = None
        if detect is not None and completions:
            first_arrival = min(r.arrival_cycle for r in completions)
            pre = [r for r in completions if r.completion_cycle <= detect]
            window = detect - first_arrival
            if pre and window > 0:
                pre_rate = len(pre) / window * frequency_hz
            if ready is not None:
                post = [r for r in completions if r.dispatch_cycle >= ready]
                last = max(
                    (r.completion_cycle for r in post), default=ready
                )
                if post and last > ready:
                    post_rate = len(post) / (last - ready) * frequency_hz
            if pre_rate and post_rate:
                retention = post_rate / pre_rate
        return {
            "events": [e.to_dict() for e in self.events],
            "ladder_steps": self.rung_index + 1,
            "rebuilds": len(self.rebuilt),
            "detect_cycle": detect,
            "restored_cycle": ready,
            "mttr_cycles": mttr,
            "mttr_ms": (
                None if mttr is None else mttr / frequency_hz * 1e3
            ),
            "prefault_goodput_rps": pre_rate,
            "recovered_goodput_rps": post_rate,
            "goodput_retention": retention,
            "health": self.monitor.report(),
        }


# -- the recovery_log artifact ----------------------------------------------


def recovery_log_payload(
    policy: ResiliencePolicy,
    recovery: Optional[dict],
    faults=None,
    seed: int = 0,
) -> dict:
    """The checksummed payload of a ``recovery_log`` artifact.

    Deterministic by construction: the same seed + fault spec + policy
    produces the same event list, so two runs yield byte-identical
    payloads (asserted in ``tests/test_resilience.py``).
    """
    recovery = recovery or {}
    return {
        "schema_version": 1,
        "policy": policy.to_dict(),
        "fault_spec": (
            None if faults is None or getattr(faults, "empty", True)
            else str(faults)
        ),
        "fault_seed": seed,
        "events": recovery.get("events", []),
        "summary": {
            key: recovery.get(key)
            for key in (
                "ladder_steps",
                "rebuilds",
                "detect_cycle",
                "restored_cycle",
                "mttr_cycles",
                "mttr_ms",
                "prefault_goodput_rps",
                "recovered_goodput_rps",
                "goodput_retention",
            )
        },
    }


def save_recovery_log(
    path: Union[str, Path],
    policy: ResiliencePolicy,
    recovery: Optional[dict],
    faults=None,
    seed: int = 0,
) -> Path:
    """Atomically write the recovery log inside the standard envelope."""
    from repro.check.artifacts import save_artifact

    return save_artifact(
        path,
        RECOVERY_LOG_KIND,
        recovery_log_payload(policy, recovery, faults=faults, seed=seed),
    )
