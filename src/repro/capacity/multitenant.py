"""Multi-tenant serving: several compiled models sharing one fleet.

The single-model :class:`~repro.serve.scheduler.FleetScheduler` answers
"how does one design behave under load"; this module answers the fleet
operator's question — *several* models, each with its own traffic and
SLO, contending for the same boards.  It runs the fleet scheduler's one
event loop over a set of tenants: each tenant gets its own dynamic
batcher, retry heap and admission bound; replicas are shared, and a
replica switching tenants pays a **warm-swap** cost (reloading the
strategy's weights over the device's DRAM bandwidth) before the new
batch runs.

Two sharing disciplines decide which tenant dispatches when several
could:

* ``weighted_fair`` — start-time fair queueing on a per-tenant virtual
  time: each dispatched batch advances its tenant's virtual time by the
  occupied cycles divided by the tenant's weight, and the tenant with
  the smallest virtual time goes first.  Long-run throughput is
  proportional to weight under saturating load.
* ``strict_priority`` — higher ``priority`` always dispatches first,
  *except* that a tenant whose served share of replica cycles has
  fallen below its ``min_share`` floor jumps the queue — the starvation
  guard that makes strict priority safe to operate.

This module only validates the tenant set, picks the control-plane
settings of a shared fleet and splits the results per tenant.  A single
tenant with default knobs is the plain fleet, so it reproduces the
``FleetScheduler``'s records and metrics bit-for-bit (asserted in
tests and by ``repro doctor``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Union

from repro.errors import CapacityError
from repro.faults import FaultSpec, RetryPolicy
from repro.optimizer.strategy import Strategy
from repro.serve.scheduler import (
    SHARING_KINDS,
    FleetScheduler,
    Policy,
    ServingResult,
    Tenant,
)

__all__ = [
    "SHARING_KINDS",
    "MultiTenantResult",
    "MultiTenantScheduler",
    "Tenant",
]


@dataclass(frozen=True)
class MultiTenantResult:
    """Everything one multi-tenant run produced.

    ``per_tenant`` maps tenant name to the same :class:`ServingResult`
    shape the single-model scheduler returns — per-tenant records,
    failures and :class:`~repro.serve.metrics.ServingMetrics` — so every
    downstream consumer (reporting, SLO checks, tests) is shared.
    """

    per_tenant: Dict[str, ServingResult]
    sharing: str
    weights: Dict[str, float]
    swaps: int  # warm weight reloads across the fleet
    swap_cycles: float  # total cycles spent swapping
    makespan_cycles: float  # first arrival -> last completion, all tenants
    #: Fleet-level control-plane outcome (:mod:`repro.resilience`);
    #: None when no control plane ran or it never acted.
    recovery: Optional[dict] = None

    @property
    def makespan_seconds(self) -> float:
        frequencies = {
            r.metrics.frequency_hz for r in self.per_tenant.values()
        }
        return self.makespan_cycles / frequencies.pop()

    def to_dict(self) -> dict:
        return {
            "sharing": self.sharing,
            "weights": dict(self.weights),
            "swaps": self.swaps,
            "swap_cycles": self.swap_cycles,
            "makespan_cycles": self.makespan_cycles,
            "recovery": self.recovery,
            "tenants": {
                name: result.metrics.to_dict()
                for name, result in self.per_tenant.items()
            },
        }

    def summary(self) -> str:
        lines = [
            f"multi-tenant run ({self.sharing}): "
            f"{len(self.per_tenant)} tenant(s), "
            f"makespan {self.makespan_cycles:,.0f} cycles, "
            f"{self.swaps} warm swaps "
            f"({self.swap_cycles:,.0f} cycles)"
        ]
        for name, result in self.per_tenant.items():
            metrics = result.metrics
            if metrics.requests == 0:
                # A dead tenant has no latency distribution — report the
                # outcome explicitly instead of NaN-laced percentiles.
                lines.append(
                    f"  [{name}] weight {self.weights[name]:g}: "
                    f"no completed requests "
                    f"({metrics.failed} failed, {metrics.shed} shed, "
                    f"{metrics.retries} retries)"
                )
                continue
            lines.append(
                f"  [{name}] weight {self.weights[name]:g}: "
                f"{metrics.requests} served, "
                f"p95 {metrics.p95_latency_cycles:,.0f} cycles, "
                f"goodput {metrics.goodput_per_second:,.1f} req/s"
                + (
                    f", SLO {metrics.slo_attainment * 100:.1f}%"
                    if metrics.slo_attainment is not None
                    else ""
                )
            )
        if self.recovery is not None:
            rec = self.recovery
            lines.append(
                f"  recovery: {len(rec.get('events', []))} events, "
                f"{rec.get('ladder_steps', 0)} ladder steps"
            )
        return "\n".join(lines)


class MultiTenantScheduler(FleetScheduler):
    """Serves several models' traffic on one shared replica fleet.

    The :class:`FleetScheduler` event loop over several tenants, with
    the sharing discipline deciding which tenant's batch a free replica
    takes.  One tenant with default knobs is the parent scheduler.
    """

    def __init__(
        self,
        tenants: Sequence[Tenant],
        replicas: int = 1,
        policy: Union[str, Policy] = Policy.LEAST_LOADED,
        sharing: str = "weighted_fair",
        max_batch: int = 8,
        max_wait_cycles: Optional[float] = None,
        faults: Union[FaultSpec, str, None] = None,
        fault_seed: int = 0,
        retry: Optional[RetryPolicy] = None,
        max_queue: Optional[int] = None,
        resilience=None,
    ):
        """
        Args:
            tenants: The models sharing the fleet (unique names, one
                common clock frequency).
            replicas: Number of shared boards.
            policy: Replica placement — ``round_robin``/``least_loaded``,
                as in the parent scheduler.
            sharing: ``weighted_fair`` or ``strict_priority``.
            max_batch: Dynamic batching cap (per tenant queue).
            max_wait_cycles: Partial-batch deadline; defaults per tenant
                to half its single-image latency (the parent's default).
            faults / fault_seed / retry: Fault schedule and retry policy,
                shared by all tenants (see :mod:`repro.faults`).
            max_queue: Per-tenant admission bound (arrivals finding this
                many of *their* tenant's requests pending are shed).
            resilience: Control-plane policy (:mod:`repro.resilience`).
                The shed rung tightens admission for tenants *without* a
                WFQ floor (``min_share == 0``) — "shed low-priority
                tenants"; floor-protected tenants keep their base bound.
        """
        if not tenants:
            raise CapacityError("a multi-tenant fleet needs >= 1 tenant")
        names = [t.name for t in tenants]
        if len(set(names)) != len(names):
            raise CapacityError(f"duplicate tenant names: {names}")
        frequencies = {t.frequency_hz for t in tenants}
        if len(frequencies) > 1:
            raise CapacityError(
                "tenants of one fleet must share a clock frequency, got "
                + ", ".join(
                    f"{t.name}={t.frequency_hz / 1e6:g}MHz" for t in tenants
                )
            )
        if sharing not in SHARING_KINDS:
            raise CapacityError(
                f"unknown sharing discipline {sharing!r} "
                f"(expected one of {SHARING_KINDS})"
            )
        floor_total = sum(t.min_share for t in tenants)
        if floor_total >= 1.0:
            raise CapacityError(
                f"min_share floors must sum to < 1, got {floor_total:g}"
            )
        if replicas < 1:
            raise CapacityError(f"a fleet needs >= 1 replica, got {replicas}")
        self._configure(
            tenants, replicas, policy, sharing, max_batch, max_wait_cycles,
            faults, fault_seed, retry, max_queue, resilience,
        )

    @classmethod
    def for_strategies(
        cls,
        strategies: Mapping[str, Strategy],
        weights: Optional[Mapping[str, float]] = None,
        priorities: Optional[Mapping[str, int]] = None,
        min_shares: Optional[Mapping[str, float]] = None,
        slo_cycles: Optional[Mapping[str, float]] = None,
        verify: bool = True,
        **kwargs,
    ) -> "MultiTenantScheduler":
        """Build a shared fleet from named compiled strategies."""
        tenants = [
            Tenant.for_strategy(
                name,
                strategy,
                weight=(weights or {}).get(name, 1.0),
                priority=(priorities or {}).get(name, 0),
                min_share=(min_shares or {}).get(name, 0.0),
                slo_cycles=(slo_cycles or {}).get(name),
                verify=verify,
            )
            for name, strategy in strategies.items()
        ]
        return cls(tenants, **kwargs)

    def _rebuild_replica(self, control, fleet, replica_id, cycle) -> None:
        control.note_rebuild_failed(
            replica_id, cycle,
            "shared fleet: no survivor plan (failover handles the loss)",
        )

    def _control_dead_fleet(self, control, fleet, clock, injector,
                            batchers) -> bool:
        """Log any deaths the attempt path never saw; a shared fleet has
        no survivor plan to rebuild from, so the mass-fail follows."""
        control.check_dead_fleet(fleet, clock, injector)
        for action in control.pop_actions():
            control.note_rebuild_failed(
                action.replica, action.cycle, "shared fleet: no survivor plan"
            )
        return False

    def run(
        self,
        arrivals: Mapping[str, Sequence[float]],
        arrival_meta: Optional[Mapping[str, dict]] = None,
    ) -> MultiTenantResult:
        """Serve every tenant's arrival trace to completion.

        ``arrivals`` maps tenant name to its arrival cycles (every
        tenant needs a non-empty trace); ``arrival_meta`` optionally
        stamps per-tenant replay provenance into the metrics (see
        :meth:`repro.traffic.TrafficTrace.arrival_meta`).
        """
        names = [tenant.name for tenant in self.tenants]
        missing = [name for name in names if name not in arrivals]
        if missing:
            raise CapacityError(f"no arrival trace for tenant(s): {missing}")
        unknown = [name for name in arrivals if name not in names]
        if unknown:
            raise CapacityError(f"arrival trace for unknown tenant(s): {unknown}")
        meta = dict(arrival_meta or {})
        outcome = self._serve([arrivals[name] for name in names])
        per_tenant: Dict[str, ServingResult] = {}
        events: List[float] = []
        for index, name in enumerate(names):
            result = self._tenant_result(outcome, index, meta.get(name))
            per_tenant[name] = result
            everything = result.records + result.failures
            events.append(min(r.arrival_cycle for r in everything))
            events.append(max(r.completion_cycle for r in everything))
        recovery = None
        if outcome.control is not None:
            all_records = sorted(
                (r for records in outcome.records for r in records),
                key=lambda r: (r.arrival_cycle, r.completion_cycle),
            )
            recovery = outcome.control.finalize(all_records, self.frequency_hz)
        return MultiTenantResult(
            per_tenant=per_tenant,
            sharing=self.sharing,
            weights={t.name: t.weight for t in self.tenants},
            swaps=sum(r.swaps for r in outcome.fleet),
            swap_cycles=sum(r.swap_cycles for r in outcome.fleet),
            makespan_cycles=max(events) - min(events),
            recovery=recovery,
        )

    def run_trace(self, trace, scale: float = 1.0) -> MultiTenantResult:
        """Serve a recorded :class:`~repro.traffic.TrafficTrace`.

        ``scale`` rescales the trace's cycle domain (reference clock →
        this fleet's clock); replay provenance is stamped into each
        tenant's metrics automatically.
        """
        scaled = trace.scaled(scale)
        return self.run(scaled.arrivals(), arrival_meta=scaled.arrival_meta())
