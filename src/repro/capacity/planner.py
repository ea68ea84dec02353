"""SLO-aware capacity planner: size a shared fleet for several models.

Given per-model traffic (a :mod:`repro.traffic` arrival spec) and SLOs
(p95 latency, goodput floor), the planner searches fleet composition —
device catalog entry x replica count x dynamic-batch cap x scheduler
weights — compiling each model once per candidate device through one
shared evaluation context, replaying the *same* recorded trace against
every candidate with the :class:`MultiTenantScheduler`, and keeping the
cheapest feasible configuration.

"Cheapest" is lexicographic: first **board cost** (a resource-normalized
unit where one zc706 = 1.0, so a zcu102 board honestly costs more than
a zc706), then **energy** — each completed inference is charged its
strategy's dynamic energy (fabric + DRAM traffic, via
:mod:`repro.hardware.power`) and every board pays static power over the
serving makespan, so an oversized fleet that idles still loses on
energy.  The same per-inference energy helper backs ``repro compile
--stats``, so the planner's objective and the CLI always agree.

:func:`plan_per_model_fleets` prices the naive alternative — one
dedicated fleet per model, no sharing — with the identical evaluator
and objective; the benchmark in ``benchmarks/test_capacity.py`` shows
the planner's consolidated fleet beating it.

The chosen plan persists as a ``capacity_plan`` artifact (the standard
envelope of :mod:`repro.check`), so ``repro plan-capacity`` output is
checksummed, diffable, and validated by ``repro check``.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.errors import CapacityError
from repro.capacity.multitenant import MultiTenantScheduler, Tenant
from repro.hardware.device import FPGADevice, get_device
from repro.hardware.power import device_power_model
from repro.traffic import (
    REFERENCE_FREQUENCY_HZ,
    TrafficTrace,
    describe_arrival,
    parse_arrival,
)

#: Envelope kind of persisted capacity plans.
PLAN_KIND = "capacity_plan"

#: Board-cost weighting of the resource classes (sums to 1.0; one zc706
#: is the unit board).
_COST_WEIGHTS = (("dsp", 0.5), ("bram18k", 0.3), ("lut", 0.2))
_ZC706_BASE = {"dsp": 900, "bram18k": 1090, "lut": 218_600}


def board_cost_units(device: Union[str, FPGADevice]) -> float:
    """Relative cost of one board, normalized so a zc706 costs 1.0.

    A weighted sum of the board's DSP / BRAM / LUT capacity relative to
    the zc706 — the planner's stand-in for price, so "fewest boards"
    cannot be gamed by picking the largest device in the catalog.
    """
    target = get_device(device) if isinstance(device, str) else device
    return sum(
        weight * getattr(target.resources, name) / _ZC706_BASE[name]
        for name, weight in _COST_WEIGHTS
    )


@dataclass(frozen=True)
class TenantDemand:
    """One model's traffic and service-level objective.

    Attributes:
        name: Tenant name (unique within a plan).
        model: Prototxt path/text or an in-memory Network.
        arrival: Arrival spec at the 100 MHz reference clock (see
            :func:`repro.traffic.parse_arrival`), e.g.
            ``"diurnal:mean=9000,period=2e6,depth=0.8"``.
        num_requests: Trace length for this tenant.
        slo_latency_s: p95 end-to-end latency bound, in seconds.
        min_goodput_rps: Completed-requests-per-second floor.
        weight: Fixed scheduler weight; None lets the planner search.
        priority / min_share: Strict-priority knobs (used when the
            plan's sharing discipline is ``strict_priority``).
    """

    name: str
    model: object
    arrival: str
    num_requests: int = 200
    slo_latency_s: Optional[float] = None
    min_goodput_rps: Optional[float] = None
    weight: Optional[float] = None
    priority: int = 0
    min_share: float = 0.0

    def __post_init__(self):
        if not self.name:
            raise CapacityError("a tenant demand needs a non-empty name")
        if self.num_requests < 1:
            raise CapacityError(
                f"demand {self.name!r} needs >= 1 request, "
                f"got {self.num_requests}"
            )
        if self.slo_latency_s is not None and self.slo_latency_s <= 0:
            raise CapacityError(
                f"demand {self.name!r} slo_latency_s must be positive"
            )
        if self.min_goodput_rps is not None and self.min_goodput_rps <= 0:
            raise CapacityError(
                f"demand {self.name!r} min_goodput_rps must be positive"
            )
        # Fail fast on a malformed arrival spec, with the traffic
        # grammar's own error message.
        parse_arrival(self.arrival)

    def spec_payload(self) -> dict:
        return {
            "name": self.name,
            "arrival": describe_arrival(parse_arrival(self.arrival)),
            "num_requests": self.num_requests,
            "slo_latency_s": self.slo_latency_s,
            "min_goodput_rps": self.min_goodput_rps,
            "weight": self.weight,
            "priority": self.priority,
            "min_share": self.min_share,
        }


@dataclass(frozen=True)
class CapacityPlan:
    """The planner's chosen fleet and the evidence it meets the SLOs."""

    device: str
    replicas: int
    max_batch: int
    policy: str
    sharing: str
    weights: Dict[str, float]
    weight_rule: str  # "explicit" | "uniform" | "work_proportional"
    board_cost: float  # board_cost_units(device) * replicas
    energy_j: float
    makespan_seconds: float
    swaps: int
    swap_cycles: float
    tenant_metrics: Dict[str, dict]  # ServingMetrics.to_dict() per tenant
    demands: Tuple[dict, ...]  # TenantDemand.spec_payload() per tenant
    seed: int
    trace_digest: str
    candidates: int  # configurations evaluated
    feasible: int  # configurations that met every SLO

    def to_payload(self) -> dict:
        return {
            "device": self.device,
            "replicas": self.replicas,
            "max_batch": self.max_batch,
            "policy": self.policy,
            "sharing": self.sharing,
            "weights": dict(self.weights),
            "weight_rule": self.weight_rule,
            "board_cost": self.board_cost,
            "energy_j": self.energy_j,
            "makespan_seconds": self.makespan_seconds,
            "swaps": self.swaps,
            "swap_cycles": self.swap_cycles,
            "tenant_metrics": {
                name: dict(metrics)
                for name, metrics in self.tenant_metrics.items()
            },
            "demands": [dict(d) for d in self.demands],
            "seed": self.seed,
            "trace_digest": self.trace_digest,
            "candidates": self.candidates,
            "feasible": self.feasible,
        }

    def save(self, path: Union[str, Path]) -> Path:
        from repro.check.artifacts import save_artifact

        return save_artifact(path, PLAN_KIND, self.to_payload())

    def summary(self) -> str:
        lines = [
            f"capacity plan: {self.replicas}x {self.device} "
            f"(board cost {self.board_cost:.2f} units), "
            f"max_batch {self.max_batch}, {self.sharing} "
            f"[{self.weight_rule} weights], policy {self.policy}",
            f"energy {self.energy_j:.3f} J over "
            f"{self.makespan_seconds * 1e3:.2f} ms "
            f"({self.swaps} warm swaps, {self.swap_cycles:,.0f} cycles); "
            f"{self.feasible}/{self.candidates} candidates feasible "
            f"(seed {self.seed}, trace {self.trace_digest[:12]})",
        ]
        frequency_hz = get_device(self.device).frequency_hz
        for demand in self.demands:
            name = demand["name"]
            metrics = self.tenant_metrics[name]
            slo = demand.get("slo_latency_s")
            p95_s = (metrics["p95_latency_cycles"] or 0.0) / frequency_hz
            line = (
                f"  [{name}] weight {self.weights[name]:g}: "
                f"{metrics['requests']} served, "
                f"goodput {metrics['goodput_per_second']:,.1f} req/s, "
                f"p95 {p95_s * 1e3:.3f} ms"
            )
            if slo is not None:
                line += f" (SLO {slo * 1e3:.3f} ms)"
            if demand.get("min_goodput_rps") is not None:
                line += f" (goodput floor {demand['min_goodput_rps']:,.1f})"
            lines.append(line)
        return "\n".join(lines)


def load_capacity_plan(path: Union[str, Path]) -> CapacityPlan:
    """Load a persisted plan, every failure a typed ArtifactError."""
    from repro.check.artifacts import E_FIELD_VALUE, load_envelope, require
    from repro.errors import ArtifactSchemaError

    envelope = load_envelope(path, expected_kind=PLAN_KIND)
    payload = envelope.payload
    device = require(payload, "device", str)
    replicas = require(payload, "replicas", int)
    if replicas < 1:
        raise ArtifactSchemaError(
            E_FIELD_VALUE, "$.replicas", f"must be >= 1, got {replicas}"
        )
    return CapacityPlan(
        device=device,
        replicas=replicas,
        max_batch=require(payload, "max_batch", int),
        policy=require(payload, "policy", str),
        sharing=require(payload, "sharing", str),
        weights=dict(require(payload, "weights", dict)),
        weight_rule=require(payload, "weight_rule", str),
        board_cost=float(require(payload, "board_cost", (int, float))),
        energy_j=float(require(payload, "energy_j", (int, float))),
        makespan_seconds=float(
            require(payload, "makespan_seconds", (int, float))
        ),
        swaps=require(payload, "swaps", int),
        swap_cycles=float(require(payload, "swap_cycles", (int, float))),
        tenant_metrics=dict(require(payload, "tenant_metrics", dict)),
        demands=tuple(require(payload, "demands", list)),
        seed=require(payload, "seed", int),
        trace_digest=require(payload, "trace_digest", str),
        candidates=require(payload, "candidates", int),
        feasible=require(payload, "feasible", int),
    )


@dataclass(frozen=True)
class PerModelBaseline:
    """The naive alternative: one dedicated fleet per model."""

    fleets: Dict[str, dict]  # per model: device/replicas/max_batch/metrics
    board_cost: float
    energy_j: float

    def summary(self) -> str:
        lines = [
            f"per-model baseline: board cost {self.board_cost:.2f} units, "
            f"energy {self.energy_j:.3f} J"
        ]
        for name, fleet in self.fleets.items():
            lines.append(
                f"  [{name}] {fleet['replicas']}x {fleet['device']} "
                f"max_batch {fleet['max_batch']}: "
                f"goodput {fleet['metrics']['goodput_per_second']:,.1f} req/s"
            )
        return "\n".join(lines)


@dataclass
class _Candidate:
    """One evaluated fleet configuration."""

    device: FPGADevice
    replicas: int
    max_batch: int
    weight_rule: str
    weights: Dict[str, float]
    feasible: bool
    board_cost: float
    energy_j: float
    result: object  # MultiTenantResult


def _fleet_energy_j(
    strategies: Mapping[str, object],
    result,
    replicas: int,
    power_model,
) -> float:
    """The plan's energy objective over one serving run.

    Each completed inference pays its strategy's *dynamic* energy
    (fabric switching + DRAM traffic); static board power accrues on
    every replica over the whole makespan — idle capacity is not free.
    """
    energy = 0.0
    for name, strategy in strategies.items():
        per_inference = power_model.strategy_dynamic_energy_per_inference_j(
            strategy
        )
        energy += per_inference * result.per_tenant[name].metrics.requests
    energy += power_model.static_w * replicas * result.makespan_seconds
    return energy


def _weight_options(
    demands: Sequence[TenantDemand],
    strategies: Mapping[str, object],
) -> List[Tuple[str, Dict[str, float]]]:
    """The scheduler-weight configurations a candidate device tries.

    Explicit weights win outright; otherwise the planner tries uniform
    sharing and work-proportional sharing (weight ~ offered requests x
    single-image latency, i.e. each tenant's share matches the compute
    it actually demands).
    """
    if all(d.weight is not None for d in demands):
        return [("explicit", {d.name: float(d.weight) for d in demands})]
    uniform = {d.name: 1.0 for d in demands}
    work = {}
    for demand in demands:
        process = parse_arrival(demand.arrival)
        rate = 1.0 / max(process.mean_interarrival_cycles(), 1e-9)
        cycles = float(strategies[demand.name].latency_cycles)
        work[demand.name] = max(rate * cycles, 1e-9)
    floor = min(work.values())
    work = {name: value / floor for name, value in work.items()}
    options = [("uniform", uniform)]
    if any(abs(value - 1.0) > 1e-9 for value in work.values()):
        options.append(("work_proportional", work))
    return options


def _evaluate_candidate(
    demands: Sequence[TenantDemand],
    strategies: Mapping[str, object],
    trace: TrafficTrace,
    device: FPGADevice,
    replicas: int,
    max_batch: int,
    weight_rule: str,
    weights: Mapping[str, float],
    policy: str,
    sharing: str,
    faults,
    fault_seed: int,
    power_model,
) -> _Candidate:
    """Replay the recorded trace against one fleet configuration."""
    scale = device.frequency_hz / REFERENCE_FREQUENCY_HZ
    tenants = [
        Tenant.for_strategy(
            demand.name,
            strategies[demand.name],
            weight=weights[demand.name],
            priority=demand.priority,
            min_share=demand.min_share,
            slo_cycles=(
                demand.slo_latency_s * device.frequency_hz
                if demand.slo_latency_s is not None
                else None
            ),
            verify=False,  # strategies are verified once at compile time
        )
        for demand in demands
    ]
    scheduler = MultiTenantScheduler(
        tenants,
        replicas=replicas,
        policy=policy,
        sharing=sharing,
        max_batch=max_batch,
        faults=faults,
        fault_seed=fault_seed,
    )
    result = scheduler.run_trace(trace, scale=scale)
    feasible = True
    for demand in demands:
        metrics = result.per_tenant[demand.name].metrics
        if metrics.offered != metrics.requests:
            feasible = False  # shed or failed requests: not serving the load
        if demand.slo_latency_s is not None:
            slo_cycles = demand.slo_latency_s * device.frequency_hz
            if not metrics.p95_latency_cycles <= slo_cycles:
                feasible = False
        if demand.min_goodput_rps is not None:
            if not metrics.goodput_per_second >= demand.min_goodput_rps:
                feasible = False
    return _Candidate(
        device=device,
        replicas=replicas,
        max_batch=max_batch,
        weight_rule=weight_rule,
        weights=dict(weights),
        feasible=feasible,
        board_cost=board_cost_units(device) * replicas,
        energy_j=_fleet_energy_j(strategies, result, replicas, power_model),
        result=result,
    )


def _compile_demands(
    demands: Sequence[TenantDemand],
    device: FPGADevice,
    transfer_constraint_bytes: Optional[int],
    context,
    verify: bool,
) -> Dict[str, object]:
    """Compile every demand's model for one device, sharing the context."""
    from repro.toolflow import compile_model

    strategies: Dict[str, object] = {}
    for demand in demands:
        compiled = compile_model(
            demand.model,
            device=device,
            transfer_constraint_bytes=transfer_constraint_bytes,
            context=context,
            verify=verify,
        )
        strategies[demand.name] = compiled.strategy
    return strategies


def plan_capacity(
    demands: Sequence[TenantDemand],
    devices: Sequence[str] = ("zc706",),
    max_replicas: int = 4,
    batch_sizes: Sequence[int] = (1, 4, 8),
    policy: str = "least_loaded",
    sharing: str = "weighted_fair",
    seed: int = 0,
    faults=None,
    fault_seed: int = 0,
    transfer_constraint_bytes: Optional[int] = None,
    context=None,
    verify: bool = True,
    log=None,
) -> CapacityPlan:
    """Search fleet configurations for the cheapest one meeting every SLO.

    Args:
        demands: One :class:`TenantDemand` per model.
        devices: Device catalog names to consider (each candidate fleet
            is homogeneous — replicas of one device).
        max_replicas: Largest replica count to try per device.
        batch_sizes: Dynamic-batch caps to try.
        policy / sharing: Scheduler knobs (fixed, not searched).
        seed: Traffic seed; the same seed replays the identical trace
            against every candidate *and* in any later re-plan.
        faults / fault_seed: Optional chaos schedule to stress-test
            candidates under (see :mod:`repro.faults`) — the plan then
            guarantees SLOs under that disturbance, not just in fair
            weather.
        transfer_constraint_bytes: The paper's T, forwarded to compiles.
        context: Shared cost-evaluation context — every model x device
            compile in the search reuses it; build it with a persistent
            ``store`` to warm from and flush to (see :mod:`repro.dse`).
        verify: Run invariant validators on each compiled strategy.
        log: Optional ``print``-like progress callback.

    Returns:
        The cheapest feasible :class:`CapacityPlan` (board cost, then
        energy).

    Raises:
        CapacityError: No candidate met every SLO — the message says how
            many configurations were tried; raise ``max_replicas`` or
            relax the SLOs.
    """
    if not demands:
        raise CapacityError("capacity planning needs >= 1 tenant demand")
    names = [d.name for d in demands]
    if len(set(names)) != len(names):
        raise CapacityError(f"duplicate demand names: {names}")
    if not devices:
        raise CapacityError("capacity planning needs >= 1 candidate device")
    if max_replicas < 1:
        raise CapacityError(f"max_replicas must be >= 1, got {max_replicas}")
    if not batch_sizes:
        raise CapacityError("capacity planning needs >= 1 batch size")
    from repro.optimizer.dp import _flush_context

    trace = TrafficTrace.record(
        {d.name: d.arrival for d in demands},
        num_requests={d.name: d.num_requests for d in demands},
        seed=seed,
    )
    candidates: List[_Candidate] = []
    for device_name in devices:
        device = get_device(device_name)
        power_model = device_power_model(device)
        strategies = _compile_demands(
            demands, device, transfer_constraint_bytes, context, verify
        )
        for rule, weights in _weight_options(demands, strategies):
            for replicas in range(1, max_replicas + 1):
                for max_batch in batch_sizes:
                    candidate = _evaluate_candidate(
                        demands, strategies, trace, device, replicas,
                        max_batch, rule, weights, policy, sharing,
                        faults, fault_seed, power_model,
                    )
                    candidates.append(candidate)
                    if log is not None:
                        status = "ok" if candidate.feasible else "infeasible"
                        log(
                            f"  {replicas}x {device.name} batch {max_batch} "
                            f"[{rule}]: {status}, "
                            f"cost {candidate.board_cost:.2f}, "
                            f"energy {candidate.energy_j:.3f} J"
                        )
    _flush_context(context)
    feasible = [c for c in candidates if c.feasible]
    if not feasible:
        raise CapacityError(
            f"no feasible fleet in {len(candidates)} candidate(s) "
            f"(devices {list(devices)}, up to {max_replicas} replicas, "
            f"batches {list(batch_sizes)}) — raise max_replicas, widen the "
            "device list, or relax the SLOs"
        )
    device_order = {name: i for i, name in enumerate(devices)}
    best = min(
        feasible,
        key=lambda c: (
            c.board_cost,
            c.energy_j,
            device_order[c.device.name],
            c.replicas,
            c.max_batch,
        ),
    )
    result = best.result
    return CapacityPlan(
        device=best.device.name,
        replicas=best.replicas,
        max_batch=best.max_batch,
        policy=policy,
        sharing=sharing,
        weights=best.weights,
        weight_rule=best.weight_rule,
        board_cost=best.board_cost,
        energy_j=best.energy_j,
        makespan_seconds=result.makespan_seconds,
        swaps=result.swaps,
        swap_cycles=result.swap_cycles,
        tenant_metrics={
            name: serving.metrics.to_dict()
            for name, serving in result.per_tenant.items()
        },
        demands=tuple(d.spec_payload() for d in demands),
        seed=seed,
        trace_digest=trace.digest(),
        candidates=len(candidates),
        feasible=len(feasible),
    )


def plan_per_model_fleets(
    demands: Sequence[TenantDemand],
    devices: Sequence[str] = ("zc706",),
    max_replicas: int = 4,
    batch_sizes: Sequence[int] = (1, 4, 8),
    policy: str = "least_loaded",
    seed: int = 0,
    faults=None,
    fault_seed: int = 0,
    transfer_constraint_bytes: Optional[int] = None,
    context=None,
    verify: bool = True,
) -> PerModelBaseline:
    """Price the naive alternative: a dedicated fleet per model.

    Each demand independently gets the cheapest feasible single-tenant
    fleet, judged by the same evaluator and objective as
    :func:`plan_capacity` — the fair baseline the benchmark compares
    the consolidated plan against.

    Raises:
        CapacityError: Some demand has no feasible dedicated fleet.
    """
    if not demands:
        raise CapacityError("capacity planning needs >= 1 tenant demand")
    from repro.optimizer.dp import _flush_context

    # One recording shared with plan_capacity: tenant streams are seeded
    # by position, so each model sees the identical trace either way.
    trace = TrafficTrace.record(
        {d.name: d.arrival for d in demands},
        num_requests={d.name: d.num_requests for d in demands},
        seed=seed,
    )
    compiled: Dict[str, Dict[str, object]] = {}
    for device_name in devices:
        device = get_device(device_name)
        compiled[device_name] = _compile_demands(
            demands, device, transfer_constraint_bytes, context, verify
        )
    _flush_context(context)
    fleets: Dict[str, dict] = {}
    total_cost = 0.0
    total_energy = 0.0
    device_order = {name: i for i, name in enumerate(devices)}
    for index, demand in enumerate(demands):
        solo_trace = TrafficTrace([trace.tenants[index]])
        best: Optional[_Candidate] = None
        tried = 0
        for device_name in devices:
            device = get_device(device_name)
            power_model = device_power_model(device)
            strategies = {demand.name: compiled[device_name][demand.name]}
            for replicas in range(1, max_replicas + 1):
                for max_batch in batch_sizes:
                    candidate = _evaluate_candidate(
                        [demand], strategies, solo_trace, device, replicas,
                        max_batch, "uniform", {demand.name: 1.0}, policy,
                        "weighted_fair", faults, fault_seed, power_model,
                    )
                    tried += 1
                    if not candidate.feasible:
                        continue
                    key = (
                        candidate.board_cost,
                        candidate.energy_j,
                        device_order[device_name],
                        replicas,
                        max_batch,
                    )
                    if best is None or key < best_key:
                        best, best_key = candidate, key
        if best is None:
            raise CapacityError(
                f"no feasible dedicated fleet for {demand.name!r} "
                f"in {tried} candidate(s)"
            )
        metrics = best.result.per_tenant[demand.name].metrics
        fleets[demand.name] = {
            "device": best.device.name,
            "replicas": best.replicas,
            "max_batch": best.max_batch,
            "board_cost": best.board_cost,
            "energy_j": best.energy_j,
            "metrics": metrics.to_dict(),
        }
        total_cost += best.board_cost
        total_energy += best.energy_j
    return PerModelBaseline(
        fleets=fleets, board_cost=total_cost, energy_j=total_energy
    )
