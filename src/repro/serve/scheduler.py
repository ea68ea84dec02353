"""Fleet scheduler: dispatches dynamic batches across accelerator replicas.

The scheduler runs a deterministic event loop over a **virtual clock**
measured in accelerator cycles.  Nothing reads wall time: arrivals are
an explicit trace, service times come from the strategy's
:class:`~repro.sim.simulator.ServiceModel`, and every run of the same
trace produces bit-identical metrics — throughput and tail-latency
numbers are reproducible artifacts, like the paper's tables.

Dispatch rule (see ``docs/serving.md`` for the full queueing model):

* a **full** batch (``max_batch`` pending) is dispatched as soon as a
  replica is available under the policy;
* a **partial** batch is dispatched once its oldest request has waited
  ``max_wait_cycles`` *and* the policy's replica is available;
* requests that arrive at or before the dispatch instant join the batch
  up to capacity — later ones start the next batch.

Two placement policies:

* ``round_robin`` — replicas take batches in strict rotation.  Simple
  and fair under uniform load, but a batch can queue behind a busy
  replica while another sits idle.
* ``least_loaded`` — each batch goes to the replica that frees up
  earliest (ties to the lowest id), the classic join-shortest-queue
  flavour for batch service.

Tenants: the one event loop serves a tuple of :class:`Tenant` models,
each with its own batcher, retry heap and admission bound, on shared
replicas.  A plain :class:`FleetScheduler` has one implicit tenant;
:class:`~repro.capacity.MultiTenantScheduler` passes several, with a
sharing discipline (weighted fair queueing or strict priority) choosing
between tenants and a warm-swap charge when a replica changes model.

Resilience (:mod:`repro.faults`): with a :class:`FaultSpec` attached,
the same loop tracks replica health (up/draining/down), skips down
replicas, retries failed batches with exponential backoff and a
per-request deadline (:class:`~repro.faults.RetryPolicy`), fails work
over to healthy replicas, and — with ``max_queue`` set — sheds arrivals
instead of growing the queue without bound when capacity drops.  With
no faults configured, every one of these hooks is inert and the run is
bit-identical to the fault-free scheduler.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from heapq import heappop, heappush
from itertools import count
from operator import attrgetter
from typing import List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import CapacityError
from repro.faults import FaultInjector, FaultSpec, RetryPolicy
from repro.optimizer.strategy import Strategy
from repro.resilience.controller import RecoveryController, ResiliencePolicy
from repro.serve.batcher import DynamicBatcher, InferenceRequest, ServingError
from repro.serve.metrics import RequestRecord, ServingMetrics, aggregate_metrics
from repro.serve.runtime import (
    PipelineServiceModel,
    Replica,
    ReplicaStats,
    weight_load_cycles,
)
from repro.sim.simulator import ServiceModel, build_service_model

_busy_until = attrgetter("busy_until")
_replica_id = attrgetter("replica_id")


class Policy(str, Enum):
    """Batch-to-replica placement policy."""

    ROUND_ROBIN = "round_robin"
    LEAST_LOADED = "least_loaded"


@dataclass(frozen=True)
class ServingResult:
    """Everything one serving run produced.

    ``records`` holds completed requests; ``failures`` holds the
    requests that never completed (outcome ``failed`` or ``shed``) —
    empty in any fault-free run.
    """

    records: Tuple[RequestRecord, ...]
    metrics: ServingMetrics
    failures: Tuple[RequestRecord, ...] = ()

    def summary(self) -> str:
        return self.metrics.summary()


def synthetic_arrivals(
    num_requests: int,
    mean_interarrival_cycles: float,
    rng: Optional[np.random.Generator] = None,
    pattern: str = "poisson",
) -> List[float]:
    """Open-loop arrival trace starting at cycle 0.

    Args:
        num_requests: Trace length.
        mean_interarrival_cycles: Mean gap between arrivals; the offered
            load is ``1 / mean_interarrival_cycles`` requests per cycle,
            independent of how fast the fleet drains (open loop).
        rng: Seeded generator (defaults to seed 0) — traces are
            reproducible by construction.
        pattern: ``poisson`` (exponential gaps), ``uniform`` (gaps in
            [0, 2*mean)), or ``constant``.
    """
    if num_requests < 1:
        raise ServingError(f"need >= 1 request, got {num_requests}")
    if mean_interarrival_cycles < 0:
        raise ServingError("mean interarrival must be >= 0")
    rng = rng or np.random.default_rng(0)
    if pattern == "poisson":
        gaps = rng.exponential(mean_interarrival_cycles, num_requests)
    elif pattern == "uniform":
        gaps = rng.uniform(0, 2 * mean_interarrival_cycles, num_requests)
    elif pattern == "constant":
        gaps = np.full(num_requests, float(mean_interarrival_cycles))
    else:
        raise ServingError(f"unknown arrival pattern {pattern!r}")
    times = np.cumsum(gaps)
    times -= times[0]  # first request arrives at cycle 0
    return [float(t) for t in times]


#: Disciplines deciding which tenant's batch a free replica takes.
SHARING_KINDS = ("weighted_fair", "strict_priority")


@dataclass(frozen=True)
class Tenant:
    """One model served by a fleet: its timing model plus its share knobs.

    A plain :class:`FleetScheduler` serves one implicit tenant built from
    its arguments; :class:`~repro.capacity.MultiTenantScheduler` serves
    several on shared replicas.

    Attributes:
        name: Tenant key (unique within a scheduler).
        service_model: Batched timing model of the tenant's compiled
            strategy.
        weight: Weighted-fair share (relative; must be positive).
        priority: Strict-priority rank (higher dispatches first).
        min_share: Starvation floor under ``strict_priority`` — the
            minimum fraction of served replica cycles this tenant may
            fall to before it jumps the queue.  Floors must sum to < 1.
        swap_cycles: Cycles a replica spends reloading this tenant's
            weights when it last served a *different* tenant (the
            initial load of an idle replica is free).
        frequency_hz: Accelerator clock (every tenant of one fleet must
            agree — they share boards).
        ops_per_request: Arithmetic ops one request represents.
        reference_gops: Analytic effective GOPS of one replica.
        slo_cycles: Optional per-tenant latency SLO.
    """

    name: str
    service_model: ServiceModel
    weight: float = 1.0
    priority: int = 0
    min_share: float = 0.0
    swap_cycles: float = 0.0
    frequency_hz: float = 1e6
    ops_per_request: float = 0.0
    reference_gops: float = 0.0
    slo_cycles: Optional[float] = None

    def __post_init__(self):
        if not self.name:
            raise CapacityError("a tenant needs a non-empty name")
        if not self.weight > 0:
            raise CapacityError(
                f"tenant {self.name!r} weight must be positive, "
                f"got {self.weight}"
            )
        if not 0.0 <= self.min_share < 1.0:
            raise CapacityError(
                f"tenant {self.name!r} min_share must be in [0, 1), "
                f"got {self.min_share}"
            )
        if self.swap_cycles < 0:
            raise CapacityError(
                f"tenant {self.name!r} swap_cycles must be >= 0, "
                f"got {self.swap_cycles}"
            )
        if self.slo_cycles is not None and self.slo_cycles <= 0:
            raise CapacityError(
                f"tenant {self.name!r} slo_cycles must be positive, "
                f"got {self.slo_cycles}"
            )

    @classmethod
    def for_strategy(
        cls,
        name: str,
        strategy: Strategy,
        weight: float = 1.0,
        priority: int = 0,
        min_share: float = 0.0,
        swap_cycles: Optional[float] = None,
        slo_cycles: Optional[float] = None,
        verify: bool = True,
    ) -> "Tenant":
        """Build a tenant serving ``strategy``.

        ``swap_cycles`` defaults to the time the strategy's weights take
        to stream over the device's DRAM bandwidth — the physical cost
        of reprogramming a warm replica with this model.
        """
        if verify:
            from repro.check.invariants import verify_strategy

            verify_strategy(strategy).raise_if_failed()
        if swap_cycles is None:
            swap_cycles = weight_load_cycles(strategy)
        return cls(
            name=name,
            service_model=build_service_model(strategy),
            weight=weight,
            priority=priority,
            min_share=min_share,
            swap_cycles=swap_cycles,
            frequency_hz=strategy.device.frequency_hz,
            ops_per_request=strategy.total_ops,
            reference_gops=strategy.effective_gops(),
            slo_cycles=slo_cycles,
        )


class _Outcome(NamedTuple):
    """What the event loop leaves behind, indexed by tenant."""

    records: List[List[RequestRecord]]
    failures: List[List[RequestRecord]]
    retries: List[int]
    stats: List[List[ReplicaStats]]
    fleet: list
    control: Optional[RecoveryController]


class FleetScheduler:
    """Serves request traces against N replicas of one compiled design.

    The event loop runs over a tuple of tenants: this class serves one
    implicit tenant built from its arguments, and
    :class:`~repro.capacity.MultiTenantScheduler` passes several that
    share the replicas.
    """

    #: Lower-resource model served by the ladder's warm-swap rung.
    fallback_model: Optional[ServiceModel] = None

    def __init__(
        self,
        service_model: ServiceModel,
        replicas: int = 1,
        policy: Union[str, Policy] = Policy.LEAST_LOADED,
        max_batch: int = 8,
        max_wait_cycles: Optional[float] = None,
        frequency_hz: float = 1e6,
        ops_per_request: float = 0.0,
        reference_gops: float = 0.0,
        faults: Union[FaultSpec, str, None] = None,
        fault_seed: int = 0,
        retry: Optional[RetryPolicy] = None,
        max_queue: Optional[int] = None,
        slo_cycles: Optional[float] = None,
        resilience: Optional[ResiliencePolicy] = None,
        fallback_model: Optional[ServiceModel] = None,
        fallback_swap_cycles: float = 0.0,
    ):
        """
        Args:
            service_model: Batched timing model of the compiled strategy.
            replicas: Number of identical accelerator instances.
            policy: ``round_robin`` or ``least_loaded``.
            max_batch: Dynamic batching size cap.
            max_wait_cycles: Deadline for partial batches; defaults to
                half the single-image latency — small enough that an
                idle fleet stays interactive, large enough to form
                batches under load.
            frequency_hz: Accelerator clock, for seconds-based metrics.
            ops_per_request: Arithmetic ops one request represents.
            reference_gops: The optimizer's analytic effective GOPS of
                one replica, reported next to the achieved number.
            faults: Fault schedule (:class:`FaultSpec` or the CLI spec
                string); None or an empty spec leaves behaviour
                bit-identical to an unfaulted fleet.
            fault_seed: Seed of the transient-failure draws.
            retry: Retry/backoff/deadline policy for failed batches.
            max_queue: Admission-control bound — arrivals finding this
                many requests already pending are shed (retries are
                always admitted).  None: unbounded queue.
            slo_cycles: Latency SLO for the attainment metric.
            resilience: Control-plane policy (:mod:`repro.resilience`).
                None leaves the classic loop untouched; with a policy
                attached and zero faults, the monitor observes but never
                acts, so the run stays bit-identical.
            fallback_model: Lower-resource service model pre-compiled at
                plan time; the ladder's warm-swap rung serves it.
            fallback_swap_cycles: Virtual-clock price of one warm swap
                (the fallback strategy's weight-transfer cost).
        """
        if max_wait_cycles is None:
            max_wait_cycles = 0.5 * service_model.single_image_cycles
        if slo_cycles is not None and slo_cycles <= 0:
            raise ServingError(f"slo_cycles must be positive, got {slo_cycles}")
        if fallback_swap_cycles < 0:
            raise ServingError("fallback_swap_cycles must be >= 0")
        self.service_model = service_model
        self.fallback_model = fallback_model
        self.fallback_swap_cycles = fallback_swap_cycles
        tenant = Tenant(
            name="default",
            service_model=service_model,
            frequency_hz=frequency_hz,
            ops_per_request=ops_per_request,
            reference_gops=reference_gops,
            slo_cycles=slo_cycles,
        )
        self._configure(
            (tenant,), replicas, policy, "weighted_fair", max_batch,
            max_wait_cycles, faults, fault_seed, retry, max_queue, resilience,
        )

    def _configure(
        self, tenants, replicas, policy, sharing, max_batch, max_wait_cycles,
        faults, fault_seed, retry, max_queue, resilience,
    ) -> None:
        """Settings every fleet shape shares, validated eagerly."""
        self.policy = Policy(policy)
        if max_queue is not None and max_queue < 1:
            raise ServingError(f"max_queue must be >= 1, got {max_queue}")
        if replicas < 1:
            raise ServingError(f"a fleet needs >= 1 replica, got {replicas}")
        self.tenants = tuple(tenants)
        self.sharing = sharing
        self.num_replicas = replicas
        self.max_batch = max_batch
        self.max_wait_cycles = max_wait_cycles
        self.frequency_hz = self.tenants[0].frequency_hz
        self.faults = (
            FaultSpec.parse(faults) if isinstance(faults, str) else faults
        )
        self.fault_seed = fault_seed
        self.retry = retry if retry is not None else RetryPolicy()
        self.max_queue = max_queue
        self.resilience = resilience
        self._active_control: Optional[RecoveryController] = None
        # Every tenant runs on a pipeline of one shape; a plain service
        # model is the one-stage, link-free pipeline.
        self._pipelines = [
            PipelineServiceModel.of(t.service_model) for t in self.tenants
        ]
        shape = self._pipelines[0]
        self._stages = len(shape.stages)
        self._links = len(shape.transfer_cycles)
        if any(len(p.stages) != self._stages for p in self._pipelines):
            raise ServingError("tenants of one fleet must share a stage count")
        # The batchers validate max_batch / max_wait_cycles; the fault
        # spec is validated against the fleet shape.
        self._new_batchers()
        if self.faults is not None:
            self.faults.validate(
                replicas, links=self._links, stages=self._stages
            )

    @classmethod
    def for_strategy(
        cls,
        strategy: Strategy,
        replicas: int = 1,
        policy: Union[str, Policy] = Policy.LEAST_LOADED,
        max_batch: int = 8,
        max_wait_cycles: Optional[float] = None,
        faults: Union[FaultSpec, str, None] = None,
        fault_seed: int = 0,
        retry: Optional[RetryPolicy] = None,
        max_queue: Optional[int] = None,
        slo_cycles: Optional[float] = None,
        resilience: Optional[ResiliencePolicy] = None,
        fallback: Optional[Strategy] = None,
        verify: bool = True,
    ) -> "FleetScheduler":
        """Build a fleet serving ``strategy``, metrics wired to its device.

        ``strategy`` is a chain :class:`Strategy` or a
        :class:`~repro.optimizer.graph_dp.GraphStrategy`; the validators
        and the service model dispatch on its type.  ``verify`` (default
        on) runs the strategy invariant validators at admission, so a
        stale or hand-edited artifact is rejected with a
        :class:`~repro.errors.VerificationError` before it serves
        traffic; the serving behaviour itself is unchanged either way.

        ``fallback`` is a lower-resource strategy for the same network
        and device, pre-compiled at plan time; the control plane's
        warm-swap rung serves it, charging the swap at the fallback's
        weight-transfer cost.  Requires ``resilience``.
        """
        if verify:
            from repro.check.invariants import verify_strategy

            verify_strategy(strategy).raise_if_failed()
        fallback_model = None
        fallback_swap = 0.0
        if fallback is not None:
            if resilience is None:
                raise ServingError(
                    "a fallback strategy needs a resilience policy"
                )
            if verify:
                from repro.check.invariants import verify_strategy

                verify_strategy(fallback).raise_if_failed()
            fallback_model = build_service_model(fallback)
            fallback_swap = weight_load_cycles(fallback)
        return cls(
            build_service_model(strategy),
            replicas=replicas,
            policy=policy,
            max_batch=max_batch,
            max_wait_cycles=max_wait_cycles,
            frequency_hz=strategy.device.frequency_hz,
            ops_per_request=strategy.total_ops,
            reference_gops=strategy.effective_gops(),
            faults=faults,
            fault_seed=fault_seed,
            retry=retry,
            max_queue=max_queue,
            slo_cycles=slo_cycles,
            resilience=resilience,
            fallback_model=fallback_model,
            fallback_swap_cycles=fallback_swap,
        )

    # -- capacity helpers ----------------------------------------------------

    def per_request_capacity_cycles(self) -> float:
        """Cycles one request costs a replica when batches run full: its
        slowest stage or link per request (the initiation interval)."""
        return (
            self._pipelines[0].bottleneck_cycles(self.max_batch)
            / self.max_batch
        )

    def saturating_interarrival(self, load: float = 1.0) -> float:
        """Mean interarrival that offers ``load`` x one replica's peak rate."""
        if load <= 0:
            raise ServingError(f"load must be positive, got {load}")
        return self.per_request_capacity_cycles() / load

    # -- the event loop ------------------------------------------------------

    def _new_batchers(self) -> List[DynamicBatcher]:
        """One dynamic batcher per tenant.

        Without ``max_wait_cycles`` a partial batch waits at most half
        its tenant's single-image latency.
        """
        return [
            DynamicBatcher(
                self.max_batch,
                self.max_wait_cycles
                if self.max_wait_cycles is not None
                else 0.5 * tenant.service_model.single_image_cycles,
            )
            for tenant in self.tenants
        ]

    # -- the control plane (inert unless a resilience policy is attached) ----

    def _build_control(self) -> Optional[RecoveryController]:
        """A fresh controller per run; None without a resilience policy."""
        if self.resilience is None:
            return None
        # Latency inflation reads as degradation (brownouts) only where
        # an attempt's span is pure service time: one tenant (no warm
        # swaps) on one stage (no downstream queueing).
        pure = len(self.tenants) == 1 and self._stages == 1
        return RecoveryController(
            self.resilience,
            num_replicas=self.num_replicas,
            base_max_batch=self.max_batch,
            base_max_queue=self.max_queue,
            fallback_available=self.fallback_model is not None,
            baseline_fn=self._pipelines[0].head_cycles if pure else None,
        )

    def _apply_control(
        self, control: RecoveryController, fleet,
        batchers: List[DynamicBatcher],
    ) -> None:
        """Drain the controller's decisions into the running fleet (the
        shed rung needs nothing here: admission reads the controller's
        ``max_queue``)."""
        for action in control.pop_actions():
            if action.kind == "shrink_batch":
                for batcher in batchers:
                    batcher.max_batch = control.max_batch
            elif action.kind == "fallback_swap":
                self._apply_fallback(control, fleet, action.cycle)
            elif action.kind == "rebuild":
                self._rebuild_replica(control, fleet, action.replica,
                                      action.cycle)

    def _apply_fallback(
        self, control: RecoveryController, fleet, cycle: float
    ) -> None:
        """Warm-swap every replica to the pre-compiled fallback strategy.

        The swap is charged on the virtual clock at the fallback's
        weight-transfer cost: each replica finishes its in-flight batch,
        then spends ``fallback_swap_cycles`` loading weights before it
        accepts new work.  Only one-tenant, one-stage fleets
        (:meth:`for_strategy`) have a fallback: the swap replaces tenant
        0's model and holds the head stage.
        """
        model = PipelineServiceModel.of(self.fallback_model)
        for replica in fleet:
            replica.models[0] = model
            replica.busy_until = (
                max(replica.busy_until, cycle) + self.fallback_swap_cycles
            )
        control.set_default_baseline(model.head_cycles)

    def _rebuild_replica(
        self, control: RecoveryController, fleet, replica_id: int,
        cycle: float,
    ) -> None:
        """A flat fleet has no survivor plan to rebuild from: there is
        one device per replica and a dead device stays dead — retries
        fail over to the surviving replicas instead (overridden by
        pipelined fleets, which re-partition over the survivors)."""
        control.note_rebuild_failed(
            replica_id, cycle,
            "flat fleet: no survivor plan (failover handles the loss)",
        )

    def _control_dead_fleet(
        self, control: RecoveryController, fleet, clock: float, injector,
        batchers: List[DynamicBatcher],
    ) -> bool:
        """Give the control plane one shot before the mass-fail fallback.

        Confirms deaths the attempt path never observed (a crash window
        that opened while the replica sat idle) and applies any rebuild
        the controller ordered.  True when a rebuild succeeded — the
        caller should re-pick a target instead of failing the queue.
        """
        if not control.check_dead_fleet(fleet, clock, injector):
            return False
        self._apply_control(control, fleet, batchers)
        return bool(control.rebuilt)

    def _pick_replica(
        self, fleet, rotation: int, clock: float, injector
    ) -> Tuple[Optional[Replica], float]:
        """The policy's target and the cycle it can start new work.

        Without faults this is exactly the classic policy (the ready
        cycle is the target's ``busy_until``).  With faults, each
        replica's ready cycle also skips its down windows; round-robin
        rotates past replicas that are down at their earliest start, and
        a fleet with every replica permanently down returns ``None``.
        """
        if injector is None:
            if self.policy is Policy.ROUND_ROBIN:
                target = fleet[rotation % len(fleet)]
            else:
                # The fleet is in replica-id order, so the first minimum
                # is the lowest id among equally loaded replicas.
                target = min(fleet, key=_busy_until)
            return target, target.busy_until
        # A rebuilt replica runs the re-planned survivor pipeline: the
        # dead device is no longer part of it, so the original fault
        # schedule does not apply — it bypasses the injector.
        rebuilt = (
            self._active_control.rebuilt
            if self._active_control is not None
            else {}
        )
        ready = [
            max(clock, r.busy_until)
            if r.replica_id in rebuilt
            else injector.available_from(r.replica_id, max(clock, r.busy_until))
            for r in fleet
        ]
        earliest = min(ready)
        if math.isinf(earliest):
            return None, math.inf
        if self.policy is Policy.ROUND_ROBIN:
            for offset in range(len(fleet)):
                index = (rotation + offset) % len(fleet)
                # "Up right now": no down window delayed its start.
                if ready[index] == max(clock, fleet[index].busy_until):
                    return fleet[index], ready[index]
            # Everyone is down this instant: take the first to recover
            # (the lowest id among ties, as the fleet is in id order).
        index = ready.index(earliest)
        return fleet[index], earliest

    def run(
        self,
        arrival_cycles: Sequence[float],
        arrival: Optional[dict] = None,
    ) -> ServingResult:
        """Serve an arrival trace to completion and aggregate metrics.

        ``arrival`` is optional self-describing provenance of the trace
        (process name, parameters, seed) stamped verbatim into the
        metrics so a ``--json`` payload alone suffices to replay the
        run; it does not affect scheduling.
        """
        outcome = self._serve([arrival_cycles])
        recovery = (
            outcome.control.finalize(outcome.records[0], self.frequency_hz)
            if outcome.control is not None
            else None
        )
        return self._tenant_result(outcome, 0, arrival, recovery)

    def _tenant_result(
        self,
        outcome: _Outcome,
        index: int,
        arrival: Optional[dict] = None,
        recovery: Optional[dict] = None,
    ) -> ServingResult:
        """One tenant's records, failures and aggregated metrics."""
        tenant = self.tenants[index]
        records, failures = outcome.records[index], outcome.failures[index]
        metrics = aggregate_metrics(
            records,
            outcome.stats[index],
            frequency_hz=self.frequency_hz,
            ops_per_request=tenant.ops_per_request,
            single_image_cycles=tenant.service_model.single_image_cycles,
            reference_gops=tenant.reference_gops,
            failures=failures,
            retries=outcome.retries[index],
            slo_cycles=tenant.slo_cycles,
            arrival=arrival,
            recovery=recovery,
        )
        return ServingResult(
            records=tuple(records),
            metrics=metrics,
            failures=tuple(failures),
        )

    def _serve(self, traces: Sequence[Sequence[float]]) -> _Outcome:
        """Serve one arrival trace per tenant to completion.

        Each tenant has its own batcher, retry heap and admission bound;
        the replicas are shared.  When a replica can take work, every
        tenant with queued requests proposes its dispatch instant (the
        module's dispatch rule) and the earliest wins.  Ties go to the
        sharing discipline:

        * ``weighted_fair`` — start-time fair queueing: each batch
          advances its tenant's virtual time by the replica cycles it
          occupied over the tenant's weight, and the smallest virtual
          time goes first;
        * ``strict_priority`` — the highest ``priority`` goes first,
          except that a tenant whose share of served replica cycles is
          below its ``min_share`` floor jumps the queue.

        Arrivals and retries at or before the dispatch instant are
        admitted first; cross-tenant ties admit the lowest tenant index.
        """
        tenants = self.tenants
        n = len(tenants)
        requests: List[List[InferenceRequest]] = []
        # Each tenant's sorted arrival cycles, closed by an infinite one.
        arrival_at: List[List[float]] = []
        for trace in traces:
            if len(trace) == 0:
                raise ServingError("cannot serve an empty arrival trace")
            arrivals = sorted(float(t) for t in trace)
            if arrivals[0] < 0:
                raise ServingError("arrival cycles must be non-negative")
            requests.append(
                [InferenceRequest(i, t) for i, t in enumerate(arrivals)]
            )
            arrivals.append(math.inf)
            arrival_at.append(arrivals)
        swap_prices = [tenant.swap_cycles for tenant in tenants]
        fleet = [
            Replica(i, self._pipelines, swap_prices)
            for i in range(self.num_replicas)
        ]
        injector = None
        if self.faults is not None and not self.faults.empty:
            # Fresh per run: its transient draws are part of the run.
            injector = FaultInjector(
                self.faults,
                seed=self.fault_seed,
                replicas=self.num_replicas,
                links=self._links,
                stages=self._stages,
            )
        control = self._build_control()
        self._active_control = control
        batchers = self._new_batchers()
        retry = self.retry
        deadline = retry.deadline_cycles
        backoff_base = [
            retry.backoff_cycles
            if retry.backoff_cycles is not None
            else 0.25 * tenant.service_model.single_image_cycles
            for tenant in tenants
        ]
        max_queue = self.max_queue
        protected = [tenant.min_share > 0 for tenant in tenants]
        fair = self.sharing == "weighted_fair"
        records: List[List[RequestRecord]] = [[] for _ in tenants]
        failures: List[List[RequestRecord]] = [[] for _ in tenants]
        retry_heaps: List[List[Tuple[float, int, InferenceRequest]]] = [
            [] for _ in tenants
        ]
        retry_seq = count()
        retries = [0] * n
        next_arrival = [0] * n
        tenant_ids = range(n)
        # Each tenant's earliest not-yet-admitted arrival (trace or retry).
        pending_at = [cycles[0] for cycles in arrival_at]
        vtime = [0.0] * n  # weighted-fair virtual time
        last_finish = [0.0] * n  # end cycle of the tenant's last batch
        served = [0.0] * n  # replica cycles the tenant occupied
        queued = 0  # requests waiting in any batcher
        clock = 0.0
        rotation = 0
        # Without faults the policy's pick depends only on the replicas,
        # so it holds until the next dispatch.
        target, ready_at, stale = None, math.inf, True

        def admit(t: int) -> None:
            """Admit tenant ``t``'s earliest pending request (retries win
            ties).

            Fresh arrivals are subject to admission control: with
            ``max_queue`` set and the tenant's queue full, the request
            is shed (under the control plane's shed rung, tenants
            without a ``min_share`` floor get the tightened bound).
            Retries are always admitted — they already hold completed
            queueing credit and shedding them would waste the backoff —
            unless their deadline has already passed by admission time:
            the clock can run past a queued retry's rearrival (a full
            batch dispatches without draining the admission stream), and
            a request admitted at or after its deadline would only burn
            a doomed service attempt.
            """
            nonlocal queued
            heap, i = retry_heaps[t], next_arrival[t]
            fresh = arrival_at[t][i]
            if heap and heap[0][0] <= fresh:
                cycle, _, request = heappop(heap)
                pending_at[t] = (
                    heap[0][0] if heap and heap[0][0] < fresh else fresh
                )
                at = max(clock, cycle)
                if deadline is not None and (
                    at >= request.origin_cycle + deadline
                ):
                    drop(t, request, at, at)
                    return
            else:
                request, cycle = requests[t][i], fresh
                next_arrival[t] = i + 1
                fresh = arrival_at[t][i + 1]
                pending_at[t] = (
                    heap[0][0] if heap and heap[0][0] < fresh else fresh
                )
                # The shed rung tightens admission only for tenants
                # without a starvation floor: the floor protects the rest.
                limit = (
                    max_queue
                    if control is None or protected[t]
                    else control.max_queue
                )
                if limit is not None and len(batchers[t]) >= limit:
                    drop(t, request, cycle, cycle, outcome="shed")
                    return
            # A tenant idle for a long stretch holds a stale (small)
            # virtual time and would monopolize the fleet on return, so
            # it restarts no earlier than the least-served active
            # competitor.  "Idle" means the request arrived after the
            # tenant's last batch finished: under saturation the backlog
            # waits in the unadmitted trace and the batcher drains to
            # empty at every dispatch.
            if n > 1 and not len(batchers[t]) and cycle >= last_finish[t]:
                active = [
                    vtime[u] for u in range(n) if u != t and len(batchers[u])
                ]
                if active:
                    vtime[t] = max(vtime[t], min(active))
            batchers[t].add(request)
            queued += 1

        def drop(t: int, request: InferenceRequest, start: float,
                 end: float, replica_id: int = -1, batch_size: int = 0,
                 outcome: str = "failed") -> None:
            failures[t].append(
                RequestRecord(
                    request_id=request.request_id,
                    arrival_cycle=request.origin_cycle,
                    dispatch_cycle=start,
                    completion_cycle=end,
                    replica_id=replica_id,
                    batch_size=batch_size,
                    attempts=request.attempts,
                    outcome=outcome,
                )
            )

        def share_key(t: int) -> Tuple:
            """Tenant order at equal dispatch instants."""
            if fair:
                return (vtime[t], t)
            total = sum(served)
            share = served[t] / total if total > 0 else 0.0
            starving = tenants[t].min_share > 0 and (
                share < tenants[t].min_share
            )
            return (0 if starving else 1, -tenants[t].priority, t)

        def next_admissible() -> Tuple[float, int]:
            """Earliest pending arrival among tenants with batch room, so
            one tenant's full batch cannot freeze the others out."""
            best, who = math.inf, -1
            for t in tenant_ids:
                if pending_at[t] < best and not batchers[t].has_full_batch():
                    best, who = pending_at[t], t
            return best, who

        while True:
            if not queued:
                # Idle: jump the clock to the next arrival or retry.
                cycle = min(pending_at)
                if cycle == math.inf:
                    break  # every request completed, failed or was shed
                if cycle > clock:
                    clock = cycle
                while cycle <= clock:
                    admit(pending_at.index(cycle))
                    cycle = min(pending_at)
                continue
            if stale:
                target, ready_at = self._pick_replica(
                    fleet, rotation, clock, injector
                )
                stale = injector is not None
            if target is None:
                # Before declaring the fleet dead, give the control
                # plane one shot: a crash that opened while the fleet
                # sat idle was never seen by the attempt path, and a
                # pipelined fleet can re-plan over the survivors.
                if control is not None and self._control_dead_fleet(
                    control, fleet, clock, injector, batchers
                ):
                    continue
                # Every replica is permanently down: the queues, pending
                # retries, and all future arrivals fail — nothing will
                # ever serve them.
                for t in range(n):
                    for request in batchers[t].pending:
                        at = max(clock, request.arrival_cycle)
                        drop(t, request, at, at)
                    heap = retry_heaps[t]
                    while heap:
                        cycle, _, request = heappop(heap)
                        at = max(clock, cycle)
                        drop(t, request, at, at)
                    for request in requests[t][next_arrival[t]:]:
                        at = max(clock, request.arrival_cycle)
                        drop(t, request, at, at)
                break
            # Which tenant's batch would the replica take, and when?
            chosen, dispatch_at = -1, math.inf
            for t in tenant_ids:
                at = batchers[t].dispatch_cycle(clock, ready_at)
                if at < dispatch_at or (
                    at == dispatch_at
                    and chosen >= 0
                    and share_key(t) < share_key(chosen)
                ):
                    chosen, dispatch_at = t, at
            # Arrivals at or before that instant join first (they may
            # fill a batch and move the dispatch earlier).
            cycle = min(pending_at)
            if cycle <= dispatch_at:
                t = pending_at.index(cycle)
                if batchers[t].has_full_batch():
                    cycle, t = next_admissible()
                if cycle <= dispatch_at:
                    if cycle > clock:
                        clock = cycle
                    admit(t)
                    continue
            clock = dispatch_at
            batch = batchers[chosen].pop_batch(clock)
            queued -= len(batch)
            exec_injector = injector
            if control is not None and target.replica_id in control.rebuilt:
                exec_injector = None  # survivor plan: old schedule is void
            attempt = target.execute_attempt(batch, clock, exec_injector, chosen)
            rotation += 1
            stale = True
            if control is not None:
                control.observe(
                    target.replica_id, attempt, len(batch), injector
                )
                self._apply_control(control, fleet, batchers)
            occupancy = attempt.end_cycle - attempt.start_cycle
            served[chosen] += occupancy
            last_finish[chosen] = attempt.end_cycle
            vtime[chosen] += occupancy / tenants[chosen].weight
            if attempt.ok:
                start, end = attempt.start_cycle, attempt.end_cycle
                replica_id, size = target.replica_id, len(batch)
                done = records[chosen]
                for request in batch:
                    done.append(RequestRecord(
                        request.request_id, request.origin_cycle, start, end,
                        replica_id, size, request.attempts,
                    ))
                continue
            # The batch failed (crash or transient): retry each request
            # with exponential backoff until its attempts or deadline
            # run out.  Re-arrivals merge back into the admission stream,
            # so surviving replicas pick the work up — failover.
            for request in batch:
                backoff = retry.backoff(request.attempts, backoff_base[chosen])
                rearrival = attempt.end_cycle + backoff
                if request.attempts >= retry.max_attempts or (
                    deadline is not None
                    and rearrival >= request.origin_cycle + deadline
                ):
                    drop(
                        chosen,
                        request,
                        attempt.start_cycle,
                        attempt.end_cycle,
                        target.replica_id,
                        len(batch),
                    )
                else:
                    retries[chosen] += 1
                    heappush(
                        retry_heaps[chosen],
                        (rearrival, next(retry_seq), request.retry_at(rearrival)),
                    )
                    if rearrival < pending_at[chosen]:
                        pending_at[chosen] = rearrival
        for t in range(n):
            records[t].sort(key=lambda r: r.request_id)
            failures[t].sort(key=lambda r: r.request_id)
        # One row per stage; a rebuilt replica's predecessor left its
        # rows with the control plane (only single-tenant pipelines
        # rebuild).
        archived = control.archived_stats if control is not None else []
        stats = [
            sorted(
                [row for replica in fleet for row in replica.stats(t)]
                + archived,
                key=_replica_id,
            )
            for t in range(n)
        ]
        self._active_control = None
        return _Outcome(records, failures, retries, stats, fleet, control)

    def run_open_loop(
        self,
        num_requests: int,
        load: float = 1.0,
        rng: Optional[np.random.Generator] = None,
        pattern: str = "poisson",
        seed: Optional[int] = None,
    ) -> ServingResult:
        """Serve a synthetic open-loop trace.

        ``load`` is the offered rate relative to one replica's peak
        full-batch throughput: ``load=1.0`` saturates a single replica,
        ``load=4.0`` offers enough traffic to keep four busy.

        Pass ``seed`` instead of ``rng`` to both seed the trace and
        stamp full replay provenance (process, parameters, seed) into
        the resulting metrics; an explicit ``rng`` wins but leaves the
        seed field of the provenance unset.
        """
        known_seed: Optional[int] = None
        if rng is None:
            known_seed = 0 if seed is None else seed
            rng = np.random.default_rng(known_seed)
        mean_gap = self.saturating_interarrival(load)
        arrivals = synthetic_arrivals(num_requests, mean_gap, rng, pattern)
        meta = {
            "process": pattern,
            "seed": known_seed,
            "load": load,
            "num_requests": num_requests,
            "mean_interarrival_cycles": mean_gap,
        }
        return self.run(arrivals, arrival=meta)
