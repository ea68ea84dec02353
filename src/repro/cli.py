"""Command-line interface for the tool-flow.

Usage (also via ``python -m repro``)::

    repro models                      # list the built-in model zoo
    repro devices                     # list the FPGA device catalog
    repro compile MODEL [options]     # prototxt/zoo-name -> strategy + HLS
    repro sweep MODEL [options]       # latency vs transfer-constraint table
    repro sweep-grid --out DIR [...]  # parallel, resumable design-space sweep
    repro partition MODEL [options]   # split a model across a device fleet
    repro replan MODEL [options]      # dry-run re-partitioning after a death
    repro serve-sim MODEL [options]   # batched multi-replica serving sim
    repro plan-capacity --tenant ...  # SLO-aware multi-tenant fleet sizing
    repro winograd M R                # print F(M, R) transform matrices
    repro check ARTIFACT [...]        # validate saved strategy/plan files
    repro cache {stats,gc,clear}      # maintain the persistent cost store
    repro doctor [--deep]             # self-diagnose the whole toolflow
    repro torture [--chaos]           # crash-consistency torture harness

``MODEL`` is a prototxt path or a model-zoo name (``repro models``).
Options that several commands take are declared once (``_SHARED``) and
mean the same everywhere.  Every command except ``models``, ``devices``,
``winograd`` and ``check`` accepts ``--json`` for machine-readable
output.  ``compile``, ``partition``, ``replan``, ``serve-sim`` and
``plan-capacity`` verify their artifacts at admission; ``--no-verify``
skips that (the output is bit-identical either way).  Each ``_cmd_*``
returns an :class:`Outcome`, which :func:`main` renders.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, List, Optional, Sequence

from repro import __version__
from repro.errors import ReproError
from repro.hardware.device import DEVICES, get_device
from repro.nn import models
from repro.optimizer.dp import optimize_many
from repro.reporting import format_energy, format_ratio, format_table
from repro.serve.scheduler import Policy
from repro.toolflow import compile_model

MB = 2**20


def _parse_size(text: str) -> int:
    """Parse '2MB', '340KB', '123456' into bytes."""
    cleaned = text.strip().upper()
    multiplier = 1
    for suffix, factor in (("MB", MB), ("KB", 1024), ("B", 1)):
        if cleaned.endswith(suffix):
            cleaned = cleaned[: -len(suffix)]
            multiplier = factor
            break
    try:
        return int(float(cleaned) * multiplier)
    except ValueError:
        raise argparse.ArgumentTypeError(f"cannot parse size {text!r}") from None


@dataclass
class Outcome:
    """What a command computed, for :func:`_render` to print.

    ``payload`` is what ``--json`` prints (None: the command has only a
    text form).  The text form is ``report``, then the ``--stats``
    summary of ``telemetry``, then each of ``details``, separated by
    blank lines.  ``artifact`` is what ``--save`` writes (its
    ``save(path)`` returns the path written); ``errors`` go to stderr.
    """

    report: str
    payload: Optional[dict] = None
    details: Sequence[str] = ()
    code: int = 0
    telemetry: Any = None
    artifact: Any = None
    artifact_name: str = ""
    errors: Sequence[str] = ()


def _render(outcome: Outcome, args: argparse.Namespace) -> int:
    """Save, then print ``outcome`` as ``args`` asked; return its exit code."""
    path = getattr(args, "save", None)
    saved = outcome.artifact.save(path) if path else None
    stats = outcome.telemetry if getattr(args, "stats", False) else None
    if getattr(args, "json", False) and outcome.payload is not None:
        if stats is not None:
            outcome.payload["telemetry"] = stats.to_dict()
        print(json.dumps(outcome.payload, indent=2))
    else:
        blocks = [outcome.report]
        if stats is not None:
            blocks.append(stats.summary())
        blocks.extend(outcome.details)
        if saved is not None:
            blocks.append(f"{outcome.artifact_name} written to {saved}")
        text = "\n\n".join(block for block in blocks if block)
        if text:
            print(text)
    for line in outcome.errors:
        print(f"error: {line}", file=sys.stderr)
    return outcome.code


def _context_from_args(args: argparse.Namespace):
    """``--cache [DIR]`` -> a store-backed EvalContext (empty DIR means
    the default store root); None without ``--cache``."""
    if args.cache is None:
        return None
    from repro.dse.store import CostStore
    from repro.perf.cost import EvalContext

    return EvalContext(store=CostStore(args.cache or None))


def _parse_faults_early(args: argparse.Namespace) -> None:
    """Parse ``--faults`` eagerly: a bad spec fails in milliseconds,
    before any search or compile runs."""
    if args.faults:
        from repro.faults import FaultSpec

        FaultSpec.parse(args.faults)


def _zoo_table(catalog: dict, count: str, title: str) -> str:
    rows = []
    for name, ctor in sorted(catalog.items()):
        model = ctor()
        rows.append([name, len(model), str(model.input_spec.shape),
                     f"{model.total_ops() / 1e9:.2f}",
                     f"{model.total_weights() / 1e6:.2f}"])
    return format_table(
        ["model", count, "input", "GOP", "Mparams"], rows, title=title
    )


def _cmd_models(_args, _log) -> Outcome:
    return Outcome(
        _zoo_table(models.catalog(), "layers", "model zoo"),
        details=[_zoo_table(models.graph_catalog(), "nodes", "graph (DAG) model zoo")],
    )


def _cmd_devices(_args, _log) -> Outcome:
    rows = [
        [name, dev.resources.bram18k, dev.resources.dsp, dev.resources.ff,
         dev.resources.lut, f"{dev.bandwidth_bytes_per_s / 1e9:.1f}",
         f"{dev.frequency_hz / 1e6:.0f}"]
        for name, dev in sorted(DEVICES.items())
    ]
    return Outcome(
        format_table(
            ["device", "BRAM18K", "DSP", "FF", "LUT", "GB/s", "MHz"],
            rows,
            title="device catalog",
        )
    )


def _cmd_compile(args, _log) -> Outcome:
    from repro.optimizer.serialize import strategy_to_dict

    result = compile_model(
        models.load_model(args.model),
        device=args.device,
        transfer_constraint_bytes=args.transfer,
        output_dir=Path(args.out) if args.out else None,
        verify=not args.no_verify,
        context=_context_from_args(args),
    )
    strategy = result.strategy
    payload = strategy_to_dict(strategy)
    payload["latency_seconds"] = strategy.latency_seconds()
    payload["effective_gops"] = strategy.effective_gops()
    report = strategy.report()
    details = []
    if args.stats:
        # The capacity planner's per-request charge, so compile --stats
        # and plan-capacity always quote the same number.
        from repro.hardware.power import device_power_model

        power_model = device_power_model(strategy.device)
        joules = power_model.strategy_energy_per_inference_j(strategy)
        watts = power_model.strategy_power_w(strategy)
        payload["energy_per_inference_j"] = joules
        payload["board_power_w"] = watts
        report += (
            f"\n\nenergy per inference: {format_energy(joules)} "
            f"({watts:.2f} W board power; the capacity planner's "
            f"per-request energy charge)"
        )
    if args.out:
        details.append(f"HLS project written to {args.out}")
    if args.simulate:
        sim = result.simulate()
        payload["simulated_cycles"] = sim.latency_cycles
        details.append(sim.report())
    return Outcome(report, payload, details, telemetry=result.telemetry)


def _cmd_sweep(args, _log) -> Outcome:
    network = models.load_chain(args.model)
    device = get_device(args.device)
    constraints = [_parse_size(c) for c in args.constraints.split(",")]
    strategies = optimize_many(
        network, device, constraints, context=_context_from_args(args)
    )
    baseline = None
    if args.baseline:
        from repro.baselines.alwani import alwani_design

        baseline = alwani_design(network, device)
    entries, rows = [], []
    for constraint, strategy in zip(constraints, strategies):
        entry = {
            "constraint_bytes": constraint,
            "latency_cycles": strategy.latency_cycles,
            "latency_seconds": strategy.latency_seconds(),
            "groups": len(strategy.designs),
            "effective_gops": strategy.effective_gops(),
        }
        row = [
            f"{constraint / MB:.2f} MB",
            f"{strategy.latency_cycles / 1e6:.2f}",
            len(strategy.designs),
            f"{strategy.effective_gops():.0f}",
        ]
        if baseline is not None:
            speedup = baseline.latency_cycles / strategy.latency_cycles
            entry["speedup_vs_baseline"] = speedup
            row.append(format_ratio(speedup))
        entries.append(entry)
        rows.append(row)
    headers = ["constraint", "latency (Mcyc)", "groups", "GOPS"]
    if baseline is not None:
        headers.append("speedup vs [1]")
    return Outcome(
        format_table(headers, rows, title=f"{network.name} on {device.name}"),
        {"network": network.name, "device": device.name, "rows": entries},
        telemetry=strategies[-1].telemetry if strategies else None,
    )


def _cmd_cache(args, _log) -> Outcome:
    from repro.dse.store import CostStore

    store = CostStore(args.dir or None)
    if args.action == "clear":
        removed = store.clear()
        return Outcome(
            f"removed {removed} entr{'y' if removed == 1 else 'ies'} "
            f"from {store.root}"
        )
    if args.action == "gc":
        max_age_s = (
            None if args.max_age_days is None else args.max_age_days * 86400.0
        )
        evicted = store.gc(max_entries=args.max_entries, max_age_s=max_age_s)
        return Outcome(
            f"evicted {evicted} entr{'y' if evicted == 1 else 'ies'}; "
            f"{store.stats().entries} remain in {store.root}"
        )
    stats = store.stats()
    return Outcome(stats.summary(), stats.to_dict())


def _cmd_sweep_grid(args, log) -> Outcome:
    from repro.dse.grid import GridPoint, GridSpec
    from repro.dse.sweep import sweep_grid

    if args.spec:
        if any([args.models, args.devices]):
            raise ReproError(
                "pass either --spec or --models/--devices, not both"
            )
        spec = GridSpec.from_file(args.spec)
    else:
        if not (args.models and args.devices):
            raise ReproError(
                "either --spec FILE or both --models and --devices "
                "are required"
            )
        transfers = [
            None if text.strip().lower() == "none" else _parse_size(text)
            for text in args.transfers.split(",")
        ]
        spec = GridSpec(
            models=tuple(m.strip() for m in args.models.split(",")),
            devices=tuple(d.strip() for d in args.devices.split(",")),
            bandwidth_factors=tuple(
                float(f) for f in args.bw_factors.split(",")
            ),
            transfer_bytes=tuple(transfers),
            fleet_sizes=tuple(int(s) for s in args.fleet_sizes.split(",")),
        )
    out_dir = Path(args.out)
    store = None
    if not args.no_cache:
        store = args.cache or (out_dir / "cost_store")
    # A SIGTERM (scheduler preemption, timeout kill) must behave like
    # Ctrl-C: the engine flushes its journal, tears the pool down, and
    # surfaces one resumable-state line instead of a traceback.
    import signal

    def _terminate(_signum, _frame):
        raise KeyboardInterrupt

    previous_term = signal.signal(signal.SIGTERM, _terminate)
    try:
        result = sweep_grid(
            spec,
            out_dir,
            store=store,
            workers=args.workers,
            resume=args.resume,
            log=log,
            faults=args.faults,
            fault_seed=args.fault_seed,
            point_timeout_s=args.point_timeout,
            max_retries=args.max_retries,
        )
    finally:
        signal.signal(signal.SIGTERM, previous_term)
    rows = []
    for record in result.records:
        point = GridPoint.from_dict(record["point"]).describe()
        body = record.get("result") or {}
        if record.get("ok"):
            latency = body.get("latency_seconds")
            gops = body.get("effective_gops")
            rows.append([
                point,
                f"{latency * 1e3:.2f}" if latency else "-",
                f"{gops:.0f}" if gops else "-",
                record.get("source", "computed"),
            ])
        else:
            rows.append([point, "-", "-", f"FAILED: {record.get('error')}"])
    return Outcome(
        format_table(
            ["point", "latency (ms)", "GOPS", "status"], rows,
            title=f"sweep grid ({len(result.records)} points)",
        ),
        result.to_dict(),
        [f"{result.summary()}\nresults: {out_dir / 'sweep_results.json'}"],
        code=0 if result.ok else 1,
    )


def _partition_from_args(args: argparse.Namespace, context):
    """The plan ``partition`` and ``replan`` start from: the model over
    ``--devices`` joined by the ``--link-*`` link."""
    from repro.partition import DeviceFleet, Link
    from repro.toolflow import partition_model

    link = Link(
        bandwidth_bytes_per_s=args.link_gbs * 1e9,
        latency_s=args.link_latency_us * 1e-6,
    )
    return partition_model(
        models.load_model(args.model),
        devices=DeviceFleet.from_spec(args.devices, link=link),
        transfer_constraint_bytes=args.transfer,
        context=context,
        verify=not args.no_verify,
    )


def _cmd_partition(args, _log) -> Outcome:
    import numpy as np

    from repro.sim.gantt import render_fleet_gantt

    _parse_faults_early(args)
    plan = _partition_from_args(args, _context_from_args(args))
    payload = plan.to_dict()
    details = []
    if args.simulate:
        sim = plan.simulate(faults=args.faults)
        payload["simulated_latency_seconds"] = sim.latency_seconds
        payload["simulated_interval_seconds"] = sim.pipeline_interval_seconds
        details += [sim.report(), render_fleet_gantt(sim)]
    if args.serve is not None:
        fleet = plan.serve(
            pipelines=args.pipelines,
            faults=args.faults,
            fault_seed=args.seed,
            verify=not args.no_verify,
        )
        serving = fleet.run_open_loop(
            num_requests=args.serve,
            load=args.load,
            rng=np.random.default_rng(args.seed),
        )
        payload["serving"] = serving.metrics.to_dict()
        details.append(
            f"served {args.serve} synthetic requests through "
            f"{args.pipelines} pipeline(s) at {args.load:.2f}x load "
            f"(seed {args.seed}"
            + (f", faults {args.faults!r}" if args.faults else "")
            + ")\n"
            + serving.summary()
        )
    return Outcome(
        f"{plan.fleet.describe()}\n\n{plan.report()}",
        payload,
        details,
        telemetry=plan.telemetry,
        artifact=plan,
        artifact_name="partition plan",
    )


def _cmd_replan(args, _log) -> Outcome:
    """Dry-run the online re-partitioning the resilience plane performs."""
    import time

    from repro.perf.cost import EvalContext
    from repro.resilience import (
        ResiliencePolicy,
        handover_cycles,
        replan_cycles,
        replan_survivors,
    )

    # One context for both searches, as the serving plane re-plans: the
    # survivor search starts warm, and --cache opens the store once.
    context = _context_from_args(args)
    if context is None:
        context = EvalContext()
    plan = _partition_from_args(args, context)
    started = time.perf_counter()
    survivor = replan_survivors(
        plan,
        args.dead_stage,
        transfer_constraint_bytes=args.transfer,
        context=context,
    )
    wall_s = time.perf_counter() - started
    hz = plan.fleet.reference_frequency_hz
    budget = replan_cycles(ResiliencePolicy(), hz)
    handover = handover_cycles(survivor, reference_hz=hz)
    dead_device = plan.placements[args.dead_stage].device.name
    return Outcome(
        plan.report(),
        {
            "original": plan.to_dict(),
            "dead_stage": args.dead_stage,
            "survivor": survivor.to_dict(),
            "replan_wall_seconds": wall_s,
            "replan_budget_cycles": budget,
            "handover_cycles": handover,
            "readmission_cycles": budget + handover,
        },
        [
            f"stage {args.dead_stage} ({dead_device}) declared dead; "
            f"re-planned over {len(survivor.fleet.devices)} survivor(s) "
            f"in {wall_s * 1e3:.1f} ms wall clock",
            survivor.report(),
            f"virtual-clock price at {hz / 1e6:.0f} MHz: "
            f"{budget:,.0f} cycle replan budget + {handover:,.0f} cycle "
            f"weight handover = {budget + handover:,.0f} cycles to "
            f"readmission",
        ],
        artifact=survivor,
        artifact_name="survivor plan",
    )


def _unique_tenant_names(names: List[str]) -> List[str]:
    """Disambiguate duplicate model names: vgg_e, vgg_e-2, vgg_e-3, ..."""
    seen: dict = {}
    unique = []
    for name in names:
        seen[name] = seen.get(name, 0) + 1
        unique.append(name if seen[name] == 1 else f"{name}-{seen[name]}")
    return unique


def _serving_compile(args: argparse.Namespace, network):
    """The single-device compile every serve-sim tenant is served from."""
    return compile_model(
        network,
        device=args.device,
        transfer_constraint_bytes=args.transfer,
        verify=not args.no_verify,
    )


def _serving_outcome(args, header, payload, summary, resilience, recovery,
                     faults) -> Outcome:
    """serve-sim's output, single- or multi-tenant: the header lines plus
    the fault line, the summary, and the ``--recovery-log`` it wrote."""
    if args.faults:
        header.append(f"fault schedule: {args.faults!r} (fault seed {args.seed})")
    details = [summary]
    if args.recovery_log:
        from repro.resilience import save_recovery_log

        path = save_recovery_log(
            args.recovery_log, resilience, recovery, faults=faults,
            seed=args.seed,
        )
        details.append(f"recovery log written to {path}")
    return Outcome("\n".join(header), payload, details)


def _serve_sim_multi(args, model_specs: List[str], resilience) -> Outcome:
    """Multi-tenant serve-sim: several models sharing one replica fleet."""
    from repro.capacity import MultiTenantScheduler
    from repro.traffic import REFERENCE_FREQUENCY_HZ, TrafficTrace, load_trace

    device = get_device(args.device)
    networks = [models.load_model(spec) for spec in model_specs]
    names = _unique_tenant_names([network.name for network in networks])
    if args.trace:
        trace = load_trace(args.trace)
        if len(trace.tenants) != len(networks):
            raise ReproError(
                f"trace {args.trace} holds {len(trace.tenants)} tenant "
                f"stream(s) for {len(networks)} model(s); counts must match "
                "(streams map to models by position)"
            )
        names = [tenant.name for tenant in trace.tenants]
    else:
        if not args.arrival:
            raise ReproError(
                "multi-tenant serve-sim needs an arrival model: pass "
                "--arrival with '|'-separated specs, or --trace"
            )
        specs = [spec.strip() for spec in args.arrival.split("|")]
        if len(specs) == 1:
            specs = specs * len(networks)
        if len(specs) != len(networks):
            raise ReproError(
                f"{len(specs)} arrival spec(s) for {len(networks)} "
                "model(s); pass one spec per model ('|'-separated) or a "
                "single spec shared by all"
            )
        trace = TrafficTrace.record(
            dict(zip(names, specs)),
            num_requests=args.requests,
            seed=args.seed,
        )
    weights = None
    if args.weights:
        values = [float(w) for w in args.weights.split(",")]
        if len(values) != len(names):
            raise ReproError(
                f"{len(values)} weight(s) for {len(names)} tenant(s)"
            )
        weights = dict(zip(names, values))
    strategies = {
        name: _serving_compile(args, network).strategy
        for name, network in zip(names, networks)
    }
    scheduler = MultiTenantScheduler.for_strategies(
        strategies,
        weights=weights,
        slo_cycles={name: args.slo for name in names} if args.slo else None,
        verify=not args.no_verify,
        replicas=args.replicas,
        policy=args.policy,
        sharing=args.sharing,
        max_batch=args.max_batch,
        max_wait_cycles=args.max_wait,
        faults=args.faults,
        fault_seed=args.seed,
        max_queue=args.max_queue,
        resilience=resilience,
    )
    scale = device.frequency_hz / REFERENCE_FREQUENCY_HZ
    result = scheduler.run_trace(trace, scale=scale)
    source = (
        f"replayed trace {args.trace}"
        if args.trace
        else f"generated trace (seed {args.seed})"
    )
    header = [
        f"serving {len(names)} tenant(s) on {args.replicas} x {args.device} "
        f"(policy {args.policy}, max batch {args.max_batch}, {source})"
    ]
    return _serving_outcome(
        args, header, result.to_dict(), result.summary(), resilience,
        result.recovery, scheduler.faults,
    )


def _cmd_serve_sim(args, _log) -> Outcome:
    _parse_faults_early(args)
    if (args.fallback or args.recovery_log) and not args.resilience:
        raise ReproError("--fallback and --recovery-log require --resilience")
    resilience = None
    if args.resilience:
        from repro.resilience import ResiliencePolicy

        resilience = ResiliencePolicy()
    model_specs = [args.model] + (
        [m.strip() for m in args.models.split(",") if m.strip()]
        if args.models
        else []
    )
    if args.trace or len(model_specs) > 1:
        if args.fallback:
            raise ReproError(
                "--fallback is single-tenant only (shared fleets have no "
                "warm-swap rung)"
            )
        return _serve_sim_multi(args, model_specs, resilience)
    network = models.load_model(args.model)
    result = _serving_compile(args, network)
    fleet = result.serve(
        replicas=args.replicas,
        policy=args.policy,
        max_batch=args.max_batch,
        max_wait_cycles=args.max_wait,
        faults=args.faults,
        fault_seed=args.seed,
        max_queue=args.max_queue,
        slo_cycles=args.slo,
        resilience=resilience,
        fallback=result.fallback_strategy() if args.fallback else None,
        verify=not args.no_verify,
    )
    if args.arrival:
        from repro.traffic import REFERENCE_FREQUENCY_HZ, TrafficTrace

        trace = TrafficTrace.record(
            {network.name: args.arrival},
            num_requests=args.requests,
            seed=args.seed,
        )
        scale = get_device(args.device).frequency_hz / REFERENCE_FREQUENCY_HZ
        tenant = trace.scaled(scale).tenants[0]
        serving = fleet.run(tenant.cycles, arrival=tenant.arrival_meta())
        load_line = (
            f"arrival trace: {args.requests} requests from "
            f"{tenant.spec!r} (seed {args.seed})"
        )
    else:
        serving = fleet.run_open_loop(
            num_requests=args.requests,
            load=args.load,
            seed=args.seed,
        )
        load_line = (
            f"open-loop trace: {args.requests} requests at {args.load:.2f}x "
            f"one replica's peak rate (seed {args.seed})"
        )
    header = [
        f"serving {network.name} on {args.replicas} x {args.device} "
        f"(policy {args.policy}, max batch {args.max_batch}, "
        f"strategy latency {result.strategy.latency_cycles:,} cycles)",
        load_line,
    ]
    return _serving_outcome(
        args, header, serving.metrics.to_dict(), serving.summary(),
        resilience, serving.metrics.recovery, fleet.faults,
    )


_TENANT_SPEC_KEYS = {
    "name", "model", "arrival", "requests", "slo-ms", "goodput",
    "weight", "priority", "min-share",
}


def _parse_tenant_demand(text: str):
    """Parse one ``--tenant`` spec into a TenantDemand.

    Fields are ';'-separated ``key=value`` pairs (';' because arrival
    specs themselves contain ':' and ','), e.g.::

        name=vision;model=vgg_e;arrival=diurnal:mean=9000,period=2e6;slo-ms=5
    """
    from repro.capacity import TenantDemand

    fields = {}
    for part in text.split(";"):
        part = part.strip()
        if not part:
            continue
        key, sep, value = part.partition("=")
        key = key.strip()
        if not sep or key not in _TENANT_SPEC_KEYS:
            raise ReproError(
                f"bad --tenant field {part!r} (expected key=value with key "
                f"in {sorted(_TENANT_SPEC_KEYS)})"
            )
        fields[key] = value.strip()
    missing = {"name", "model", "arrival"} - fields.keys()
    if missing:
        raise ReproError(
            f"--tenant spec {text!r} is missing {sorted(missing)}"
        )
    return TenantDemand(
        name=fields["name"],
        model=models.load_model(fields["model"]),
        arrival=fields["arrival"],
        num_requests=int(fields.get("requests", 200)),
        slo_latency_s=(
            float(fields["slo-ms"]) / 1e3 if "slo-ms" in fields else None
        ),
        min_goodput_rps=(
            float(fields["goodput"]) if "goodput" in fields else None
        ),
        weight=float(fields["weight"]) if "weight" in fields else None,
        priority=int(fields.get("priority", 0)),
        min_share=float(fields.get("min-share", 0.0)),
    )


def _cmd_plan_capacity(args, log) -> Outcome:
    from repro.capacity import plan_capacity, plan_per_model_fleets

    demands = [_parse_tenant_demand(spec) for spec in args.tenant]
    common = dict(
        devices=[d.strip() for d in args.devices.split(",") if d.strip()],
        max_replicas=args.max_replicas,
        batch_sizes=[int(b) for b in args.batch_sizes.split(",")],
        policy=args.policy,
        seed=args.seed,
        faults=args.faults,
        fault_seed=args.seed,
        transfer_constraint_bytes=args.transfer,
        context=_context_from_args(args),
        verify=not args.no_verify,
    )
    plan = plan_capacity(demands, sharing=args.sharing, log=log, **common)
    payload = plan.to_payload()
    details = []
    if args.baseline:
        baseline = plan_per_model_fleets(demands, **common)
        payload["baseline"] = {
            "board_cost": baseline.board_cost,
            "energy_j": baseline.energy_j,
            "fleets": baseline.fleets,
        }
        saved = baseline.board_cost - plan.board_cost
        details.append(
            f"{baseline.summary()}\n"
            f"consolidation saves {saved:.2f} board-cost unit(s) "
            f"({saved / baseline.board_cost * 100:.0f}%) and "
            f"{format_energy(baseline.energy_j - plan.energy_j)} "
            "vs dedicated per-model fleets"
        )
    # The leading newline sets the report off from the progress log.
    return Outcome(
        f"\n{plan.summary()}", payload, details,
        artifact=plan, artifact_name="capacity plan",
    )


def _check_one(path: Path, model: Optional[str], lines: List[str]) -> List[str]:
    """Validate one artifact file, appending what it found to ``lines``;
    the returned lines describe failures."""
    from repro.check.artifacts import describe_artifact, load_envelope
    from repro.check.invariants import verify_plan, verify_strategy

    envelope = load_envelope(path)
    lines.append(f"{path}: {describe_artifact(envelope)}")
    if envelope.kind == "codegen_strategy":
        # Generated projects used to embed this report-only blob (their
        # strategy.json is a plain strategy artifact now); it cannot be
        # loaded, so envelope integrity (checksum, digests) is the check.
        lines.append(f"{path}: envelope integrity ok")
        return []
    if envelope.kind in ("traffic_trace", "capacity_plan"):
        # Schema-validate by loading; the digest is the determinism witness.
        from repro.capacity import load_capacity_plan
        from repro.traffic import load_trace

        load = load_trace if envelope.kind == "traffic_trace" else load_capacity_plan
        lines.append(f"{path}: {load(path).summary().splitlines()[0]}")
        return []
    if envelope.kind == "recovery_log":
        # The checksum is the determinism witness; schema-check the
        # decision log's required fields.
        payload = envelope.payload
        keys = ("schema_version", "policy", "events", "summary")
        missing = [key for key in keys if key not in payload]
        if missing:
            return [f"{path}: recovery_log payload missing {', '.join(missing)}"]
        summary = payload["summary"]
        lines.append(
            f"{path}: {len(payload['events'])} recovery event(s), "
            f"{summary.get('ladder_steps', 0)} ladder step(s), "
            f"{summary.get('rebuilds', 0)} rebuild(s)"
        )
        return []
    if envelope.kind == "torture_report":
        # The checksum is the integrity witness; schema-check the cells
        # and re-assert the verdict the harness recorded.
        payload = envelope.payload
        cells = payload.get("cells")
        if not isinstance(cells, list) or "ok" not in payload:
            return [f"{path}: torture_report payload missing cells/ok"]
        failed = [cell for cell in cells if not cell.get("ok")]
        uncovered = payload.get("uncovered_points", [])
        lines.append(
            f"{path}: {len(cells)} torture cell(s), "
            f"{len(failed)} failed, "
            f"{len(uncovered)} uncovered point(s)"
        )
        if not payload["ok"]:
            return [f"{path}: torture report records failures"]
        return []

    payload = envelope.payload
    name = model or payload.get("network") or payload.get("graph")
    if not isinstance(name, str):
        return [f"{path}: cannot determine the network (pass --model)"]
    from repro.toolflow import _accelerated_model

    full = models.load_model(name)
    # Toolflow artifacts cover the accelerated model; fall back to the
    # full model for strategies saved outside the toolflow.
    candidates = [_accelerated_model(full)]
    if len(candidates[0]) != len(full):
        candidates.append(full)
    last_error: Optional[ReproError] = None
    for candidate in candidates:
        try:
            if envelope.kind == "partition_plan":
                from repro.partition.plan import load_plan

                plan = load_plan(path, candidate)
                report = verify_plan(plan)
            else:
                from repro.optimizer.serialize import load_strategy

                strategy = load_strategy(path, candidate)
                report = verify_strategy(strategy)
            lines.append(f"{path}: {report.summary()}")
            return [] if report.ok else [f"{path}: verification failed"]
        except ReproError as exc:
            last_error = exc
    return [f"{path}: {last_error}"]


def _cmd_check(args, _log) -> Outcome:
    lines: List[str] = []
    failures: List[str] = []
    for name in args.artifacts:
        try:
            failures.extend(_check_one(Path(name), args.model, lines))
        except ReproError as exc:
            failures.append(f"{name}: {exc}")
    if not failures:
        lines.append(f"{len(args.artifacts)} artifact(s) ok")
    return Outcome("\n".join(lines), code=1 if failures else 0,
                   errors=failures)


def _cmd_doctor(args, _log) -> Outcome:
    from repro.check.consistency import doctor

    report = doctor(deep=args.deep)
    return Outcome(report.summary(), report.to_dict(),
                   code=0 if report.ok else 1)


def _cmd_torture(args, log) -> Outcome:
    import tempfile

    from repro.check.durability import (
        run_chaos_sweep,
        run_kill_point_matrix,
        save_torture_report,
    )

    workloads = (
        [name.strip() for name in args.workloads.split(",")]
        if args.workloads
        else None
    )
    with tempfile.TemporaryDirectory(dir=args.workdir) as tmp:
        report = run_kill_point_matrix(Path(tmp), workloads=workloads, log=log)
        if args.chaos:
            report.chaos = run_chaos_sweep(
                Path(tmp) / "chaos",
                workers=args.workers,
                kill_p=args.kill_p,
                eio_p=args.eio_p,
                seed=args.seed,
                max_retries=args.max_retries,
                log=log,
            )
    if args.report:
        save_torture_report(args.report, report)
        log(f"report: {args.report}")
    return Outcome(report.summary(), report.to_dict(),
                   code=0 if report.ok else 1)


def _cmd_winograd(args, _log) -> Outcome:
    from repro.algorithms.poly import to_numpy
    from repro.algorithms.winograd import exact_transform_matrices, winograd_transform

    transform = winograd_transform(args.m, args.r)
    at, g, bt = exact_transform_matrices(args.m, args.r)
    lines = [
        f"F({args.m}, {args.r}): alpha={transform.alpha}, 2-D reduction "
        f"{transform.multiplication_reduction:.2f}x"
    ]
    for name, matrix in (("A^T", at), ("G", g), ("B^T", bt)):
        lines.append(f"{name} =")
        for row in to_numpy(matrix):
            lines.append("  [" + "  ".join(f"{value:8.4f}" for value in row) + "]")
    return Outcome("\n".join(lines))


def _option(*flags: str, **kwargs) -> tuple:
    return flags, kwargs


# Options several commands take, each declared (and documented) once:
# target (model, device, transfer, cache, no-verify), fleet
# (devices, link), faults (spec, seed), output (json, stats, save), and
# the serving policies.  A command names the ones it takes.
_SHARED = {
    "model": _option("model", help="prototxt path or model-zoo name"),
    "device": _option(
        "--device", default="zc706", choices=sorted(DEVICES),
        help="target FPGA from the device catalog (default zc706)",
    ),
    "transfer": _option(
        "--transfer", type=_parse_size, default=None,
        help="feature-map transfer constraint per device, e.g. 2MB or "
        "340KB (default: unconstrained)",
    ),
    "cache": _option(
        "--cache", nargs="?", const="", default=None, metavar="DIR",
        help="warm every search from (and persist it to) an on-disk cost "
        "store; DIR defaults to $REPRO_COST_CACHE or "
        "~/.cache/repro/cost_store (strategy-preserving)",
    ),
    "no-verify": _option(
        "--no-verify", action="store_true",
        help="skip the admission-time invariant validators "
        "(output is bit-identical when verification passes)",
    ),
    "devices": _option(
        "--devices", default="zc706,zc706",
        help="comma-separated fleet in pipeline order, e.g. zc706,zcu102 "
        "(default: zc706,zc706)",
    ),
    "link-gbs": _option(
        "--link-gbs", type=float, default=2.0,
        help="board-to-board link bandwidth in GB/s (default 2.0)",
    ),
    "link-latency-us": _option(
        "--link-latency-us", type=float, default=0.0,
        help="per-transfer link setup latency in microseconds",
    ),
    "faults": _option(
        "--faults", default=None, metavar="SPEC",
        help="deterministic fault schedule, e.g. "
        "'transient:p=0.1;crash:replica=1,at=2e6,down=1e6' or "
        "'link:index=0,at=1e5,for=2e4,scale=4' (kinds: crash, transient, "
        "brownout, link); --seed seeds its draws",
    ),
    "seed": _option(
        "--seed", type=int, default=0,
        help="seed of the arrival trace and of the fault draws (default "
        "0); the same seed replays the identical run",
    ),
    "simulate": _option(
        "--simulate", action="store_true",
        help="run the cycle-approximate simulator (for a fleet, also print "
        "the pipeline Gantt chart)",
    ),
    "load": _option(
        "--load", type=float, default=1.5,
        help="offered load as a multiple of one replica's (for partition "
        "--serve, one pipeline's) peak full-batch rate (default 1.5: "
        "saturates a single one)",
    ),
    "json": _option(
        "--json", action="store_true",
        help="emit the result as JSON instead of the text report",
    ),
    "stats": _option(
        "--stats", action="store_true",
        help="print search telemetry (evaluations, cache hits, B&B nodes, "
        "stage queries, cuts considered, per-group wall time)",
    ),
    "save": _option(
        "--save", default=None, metavar="PATH",
        help="write the resulting plan here as a checksummed JSON "
        "artifact (before any output)",
    ),
    "policy": _option(
        "--policy", default="least_loaded",
        choices=[p.value for p in Policy], help="batch placement policy",
    ),
    "sharing": _option(
        "--sharing", default="weighted_fair",
        choices=["weighted_fair", "strict_priority"],
        help="multi-tenant sharing discipline (default weighted_fair)",
    ),
}


def _command(sub, name: str, func, help: str, *shared: str):
    """Add subcommand ``name`` running ``func`` with the named ``_SHARED``
    options; the caller adds the command's own options."""
    parser = sub.add_parser(name, help=help)
    for key in shared:
        flags, kwargs = _SHARED[key]
        parser.add_argument(*flags, **kwargs)
    parser.set_defaults(func=func)
    return parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Heterogeneous conventional/Winograd CNN-to-FPGA tool-flow "
        "(DAC 2017 reproduction)",
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    _command(sub, "models", _cmd_models, "list the built-in model zoo")
    _command(sub, "devices", _cmd_devices, "list the FPGA device catalog")

    p = _command(
        sub, "compile", _cmd_compile, "map a model onto an FPGA",
        "model", "device", "transfer", "cache", "no-verify",
        "simulate", "json", "stats",
    )
    p.add_argument("--out", default=None, help="write the HLS project here")

    p = _command(
        sub, "sweep", _cmd_sweep, "latency vs transfer-constraint table",
        "model", "device", "cache", "json", "stats",
    )
    p.add_argument(
        "--constraints", default="2MB,4MB,8MB,16MB,32MB",
        help="comma-separated constraints (default: the Figure 5 sweep)",
    )
    p.add_argument(
        "--baseline", action="store_true",
        help="also run the Alwani et al. [MICRO'16] baseline",
    )

    p = _command(
        sub, "sweep-grid", _cmd_sweep_grid,
        "parallel, resumable design-space sweep over a grid spec", "json",
    )
    p.add_argument(
        "--spec", default=None, metavar="FILE",
        help="JSON grid spec (models/devices/bandwidth_factors/"
        "transfer_bytes/fleet_sizes axes); or build one with the "
        "axis flags below",
    )
    p.add_argument(
        "--models", default=None,
        help="comma-separated model-zoo names or prototxt paths",
    )
    p.add_argument(
        "--devices", default=None,
        help="comma-separated device catalog names",
    )
    p.add_argument(
        "--transfers", default="none", metavar="LIST",
        help="comma-separated transfer budgets, e.g. 2MB,8MB,none "
        "(default: none = unconstrained)",
    )
    p.add_argument(
        "--bw-factors", default="1.0", metavar="LIST",
        help="comma-separated bandwidth scale factors (default 1.0)",
    )
    p.add_argument(
        "--fleet-sizes", default="1", metavar="LIST",
        help="comma-separated fleet sizes; >1 partitions the model "
        "across that many copies of the device (default 1)",
    )
    p.add_argument(
        "--out", required=True, metavar="DIR",
        help="output directory for the journal and sweep_results.json",
    )
    p.add_argument(
        "--workers", type=int, default=None,
        help="fan points out over N worker processes (results are "
        "bit-identical to a serial run)",
    )
    p.add_argument(
        "--resume", action="store_true",
        help="honor the journal of an interrupted sweep in --out: "
        "completed points are not recomputed",
    )
    p.add_argument(
        "--cache", default=None, metavar="DIR",
        help="cost store shared by all workers "
        "(default: <out>/cost_store)",
    )
    p.add_argument(
        "--no-cache", action="store_true",
        help="run memory-only, without the persistent cost store",
    )
    p.add_argument(
        "--point-timeout", type=float, default=None, metavar="SECONDS",
        help="hang budget per job (the points that share a model, device, "
        "bandwidth factor and fleet size): a worker silent this long is "
        "terminated and its job requeued (default: no hang detection)",
    )
    p.add_argument(
        "--max-retries", type=int, default=2, metavar="N",
        help="requeues per job after worker deaths/hangs before its "
        "points are recorded as failed (default 2)",
    )
    p.add_argument(
        "--faults", default=None, metavar="SPEC",
        help="inject deterministic process faults into the workers "
        "(torture testing), e.g. 'kill:p=0.2,point=sweep.point_start"
        ";eio:p=0.05'",
    )
    p.add_argument(
        "--fault-seed", type=int, default=0,
        help="seed for the --faults schedule (default 0)",
    )

    p = _command(
        sub, "cache", _cmd_cache,
        "inspect or maintain the persistent cost store", "json",
    )
    p.add_argument(
        "action", choices=["stats", "gc", "clear"],
        help="stats: show size/record counters; gc: evict by age/count "
        "and compact; clear: delete every entry",
    )
    p.add_argument(
        "--dir", default=None, metavar="DIR",
        help="store root (default: $REPRO_COST_CACHE or "
        "~/.cache/repro/cost_store)",
    )
    p.add_argument(
        "--max-entries", type=int, default=None,
        help="gc: keep at most this many entries (newest kept)",
    )
    p.add_argument(
        "--max-age-days", type=float, default=None,
        help="gc: evict entries older than this many days",
    )

    p = _command(
        sub, "partition", _cmd_partition,
        "split a model across a fleet of FPGAs",
        "model", "devices", "link-gbs", "link-latency-us", "transfer",
        "cache", "no-verify", "simulate", "faults", "seed", "load",
        "json", "stats", "save",
    )
    p.add_argument(
        "--serve", type=int, default=None, metavar="N",
        help="also serve N synthetic requests through the pipelined fleet",
    )
    p.add_argument(
        "--pipelines", type=int, default=1,
        help="independent pipeline copies behind one batcher (default 1)",
    )

    p = _command(
        sub, "replan", _cmd_replan,
        "dry-run the resilience plane's online re-partitioning: "
        "declare one pipeline stage dead and re-cut over the survivors",
        "model", "devices", "link-gbs", "link-latency-us", "transfer",
        "cache", "no-verify", "json", "save",
    )
    p.add_argument(
        "--dead-stage", type=int, default=0, metavar="N",
        help="stage whose device dies (default 0)",
    )

    p = _command(
        sub, "serve-sim", _cmd_serve_sim,
        "simulate a batched multi-replica serving fleet",
        "model", "device", "transfer", "no-verify", "faults", "seed", "load",
        "policy", "sharing", "json",
    )
    p.add_argument(
        "--replicas", type=int, default=1, help="accelerator instances (default 1)"
    )
    p.add_argument(
        "--requests", type=int, default=200,
        help="synthetic requests to serve (default 200)",
    )
    p.add_argument(
        "--arrival", default=None, metavar="SPEC",
        help="generate the trace from an arrival-process spec at the "
        "100 MHz reference clock instead of --load, e.g. "
        "'diurnal:mean=9000,period=2e6,depth=0.8' "
        "('|'-separated list in multi-tenant mode)",
    )
    p.add_argument(
        "--models", default=None, metavar="LIST",
        help="comma-separated co-tenant models sharing the fleet "
        "(multi-tenant mode; see --weights and --sharing)",
    )
    p.add_argument(
        "--trace", default=None, metavar="PATH",
        help="replay a recorded traffic_trace artifact; tenant streams "
        "map to models by position",
    )
    p.add_argument(
        "--weights", default=None, metavar="LIST",
        help="comma-separated weighted-fair scheduler weights, one per "
        "model (default: 1 each)",
    )
    p.add_argument(
        "--max-batch", type=int, default=8, help="dynamic batch size cap"
    )
    p.add_argument(
        "--max-wait", type=float, default=None,
        help="partial-batch deadline in cycles "
        "(default: half the single-image latency)",
    )
    p.add_argument(
        "--max-queue", type=int, default=None,
        help="admission-control bound: shed arrivals beyond this many "
        "queued requests (default: unbounded)",
    )
    p.add_argument(
        "--slo", type=float, default=None, metavar="CYCLES",
        help="latency SLO in cycles; reports SLO attainment",
    )
    p.add_argument(
        "--resilience", action="store_true",
        help="attach the online control plane (repro.resilience): health "
        "monitoring, the degradation ladder, and recovery accounting; "
        "a zero-fault run is bit-identical with or without it",
    )
    p.add_argument(
        "--fallback", action="store_true",
        help="pre-compile a conventional-algorithm fallback strategy for "
        "the ladder's warm-swap rung (requires --resilience; "
        "single-tenant mode only)",
    )
    p.add_argument(
        "--recovery-log", default=None, metavar="PATH",
        help="write the run's checksummed recovery_log artifact "
        "(requires --resilience)",
    )

    p = _command(
        sub, "plan-capacity", _cmd_plan_capacity,
        "size a shared multi-tenant fleet to meet per-model SLOs; with "
        "--faults, under that disturbance",
        "transfer", "cache", "no-verify", "faults", "seed", "policy",
        "sharing", "json", "save",
    )
    p.add_argument(
        "--tenant", action="append", required=True, metavar="SPEC",
        help="one tenant demand as ';'-separated key=value fields: "
        "'name=vision;model=vgg_e;arrival=diurnal:mean=9000,period=2e6;"
        "slo-ms=5;requests=200;goodput=100;weight=2;priority=1;"
        "min-share=0.2' (name, model, arrival required; repeatable)",
    )
    p.add_argument(
        "--devices", default="zc706",
        help="comma-separated candidate devices; each fleet is "
        "homogeneous (default zc706)",
    )
    p.add_argument(
        "--max-replicas", type=int, default=4,
        help="largest replica count to try per device (default 4)",
    )
    p.add_argument(
        "--batch-sizes", default="1,4,8",
        help="comma-separated dynamic-batch caps to try (default 1,4,8)",
    )
    p.add_argument(
        "--baseline", action="store_true",
        help="also price dedicated per-model fleets for comparison",
    )

    p = _command(
        sub, "winograd", _cmd_winograd, "print F(m, r) transform matrices"
    )
    p.add_argument("m", type=int)
    p.add_argument("r", type=int)

    p = _command(
        sub, "check", _cmd_check, "validate saved strategy/plan artifact files"
    )
    p.add_argument(
        "artifacts", nargs="+", metavar="ARTIFACT",
        help="artifact JSON files (strategy, partition plan, or a "
        "generated project's strategy.json)",
    )
    p.add_argument(
        "--model", default=None,
        help="network the artifacts belong to (default: the network "
        "name recorded in each artifact, resolved from the model zoo)",
    )

    p = _command(
        sub, "doctor", _cmd_doctor,
        "self-diagnose the toolflow on the tiny built-in model", "json",
    )
    p.add_argument(
        "--deep", action="store_true",
        help="also run the DP-vs-exhaustive-oracle and serving smoke checks",
    )

    p = _command(
        sub, "torture", _cmd_torture,
        "crash-consistency torture: kill a child at every "
        "registered crash point, verify and recover (docs/durability.md)",
        "json",
    )
    p.add_argument(
        "--workloads", default=None, metavar="LIST",
        help="comma-separated workload subset (artifact, journal, "
        "cost_store, sweep); default: all of them",
    )
    p.add_argument(
        "--chaos", action="store_true",
        help="also run the chaos sweep: seeded worker kills + EIO must "
        "produce records checksum-equal to the fault-free sweep",
    )
    p.add_argument(
        "--kill-p", type=float, default=0.2,
        help="chaos worker-kill probability per point pickup (default 0.2)",
    )
    p.add_argument(
        "--eio-p", type=float, default=0.05,
        help="chaos injected-EIO probability per write (default 0.05)",
    )
    p.add_argument(
        "--seed", type=int, default=7, help="chaos fault seed (default 7)"
    )
    p.add_argument(
        "--workers", type=int, default=2,
        help="chaos sweep worker processes (default 2)",
    )
    p.add_argument(
        "--max-retries", type=int, default=5,
        help="chaos per-point requeue budget (default 5)",
    )
    p.add_argument(
        "--workdir", default=None, metavar="DIR",
        help="parent directory for the scratch tree (default: system tmp)",
    )
    p.add_argument(
        "--report", default=None, metavar="FILE",
        help="also save the full report as a torture_report artifact",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    # Progress lines print in text mode and stay silent under --json.
    log = (lambda _line: None) if getattr(args, "json", False) else print
    try:
        return _render(args.func(args, log), args)
    except (ReproError, OSError) as exc:
        # One clean line, no traceback: bad prototxt, unknown device,
        # infeasible strategy, unwritable output directory, ...
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        # Ctrl-C outside a command's own handling (the sweep engine
        # converts its interrupts into a resumable-state SweepError
        # before this is reached).
        print("error: interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
