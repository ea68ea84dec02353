"""Command-line interface for the tool-flow.

Usage (also via ``python -m repro``)::

    repro models                      # list the built-in model zoo
    repro devices                     # list the FPGA device catalog
    repro compile MODEL [options]     # prototxt/zoo-name -> strategy + HLS
    repro sweep MODEL [options]       # latency vs transfer-constraint table
    repro sweep-grid --out DIR [...]  # parallel, resumable design-space sweep
    repro partition MODEL [options]   # split a model across a device fleet
    repro serve-sim MODEL [options]   # batched multi-replica serving sim
    repro plan-capacity --tenant ...  # SLO-aware multi-tenant fleet sizing
    repro winograd M R                # print F(M, R) transform matrices
    repro check ARTIFACT [...]        # validate saved strategy/plan files
    repro cache {stats,gc,clear}      # maintain the persistent cost store
    repro doctor [--deep]             # self-diagnose the whole toolflow

``MODEL`` is a prototxt path or a model-zoo name (``repro models``).
``repro compile``, ``sweep`` and ``partition`` accept ``--json`` for
machine-readable output.  ``compile``, ``partition`` and ``serve-sim``
verify their artifacts at admission; ``--no-verify`` skips that (the
output is bit-identical either way).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

from repro import __version__
from repro.errors import ReproError
from repro.hardware.device import DEVICES, get_device
from repro.nn import models
from repro.nn.caffe import model_from_prototxt
from repro.nn.graph import Graph
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


def _context_from_args(args: argparse.Namespace):
    """``--cache [DIR]`` -> a store-backed EvalContext (empty DIR means
    the default store root); None without ``--cache``."""
    cache = getattr(args, "cache", None)
    if cache is None:
        return None
    from repro.dse.store import CostStore
    from repro.perf.cost import EvalContext

    return EvalContext(store=CostStore(cache or None))


def _load_model(name_or_path: str):
    """Resolve a zoo name or prototxt path to a Network or (DAG) Graph."""
    zoo = models.catalog()
    if name_or_path in zoo:
        return zoo[name_or_path]()
    graph_zoo = models.graph_catalog()
    if name_or_path in graph_zoo:
        return graph_zoo[name_or_path]()
    path = Path(name_or_path)
    if path.exists():
        # A branching prototxt resolves to a Graph; chains stay Networks.
        return model_from_prototxt(path.read_text())
    names = sorted(zoo) + sorted(graph_zoo)
    raise ReproError(
        f"{name_or_path!r} is neither a model-zoo name ({', '.join(names)}) "
        "nor an existing prototxt file"
    )


def _strategy_energy(strategy) -> tuple:
    """(J/inference, board W) of a compiled chain or graph strategy.

    Backed by the same :mod:`repro.hardware.power` helper the capacity
    planner charges per request, so ``repro compile --stats`` and
    ``repro plan-capacity`` always quote the same number.
    """
    from repro.hardware.power import device_power_model

    power_model = device_power_model(strategy.device)
    return (
        power_model.strategy_energy_per_inference_j(strategy),
        power_model.strategy_power_w(strategy),
    )


def _cmd_models(_args: argparse.Namespace) -> int:
    rows = []
    for name, ctor in sorted(models.catalog().items()):
        net = ctor()
        rows.append(
            [
                name,
                len(net),
                str(net.input_spec.shape),
                f"{net.total_ops() / 1e9:.2f}",
                f"{net.total_weights() / 1e6:.2f}",
            ]
        )
    print(
        format_table(
            ["model", "layers", "input", "GOP", "Mparams"], rows, title="model zoo"
        )
    )
    graph_rows = []
    for name, ctor in sorted(models.graph_catalog().items()):
        graph = ctor()
        graph_rows.append(
            [
                name,
                len(graph),
                str(graph.input_spec.shape),
                f"{graph.total_ops() / 1e9:.2f}",
                f"{graph.total_weights() / 1e6:.2f}",
            ]
        )
    print()
    print(
        format_table(
            ["model", "nodes", "input", "GOP", "Mparams"],
            graph_rows,
            title="graph (DAG) model zoo",
        )
    )
    return 0


def _cmd_devices(_args: argparse.Namespace) -> int:
    rows = []
    for name, dev in sorted(DEVICES.items()):
        r = dev.resources
        rows.append(
            [
                name,
                r.bram18k,
                r.dsp,
                r.ff,
                r.lut,
                f"{dev.bandwidth_bytes_per_s / 1e9:.1f}",
                f"{dev.frequency_hz / 1e6:.0f}",
            ]
        )
    print(
        format_table(
            ["device", "BRAM18K", "DSP", "FF", "LUT", "GB/s", "MHz"],
            rows,
            title="device catalog",
        )
    )
    return 0


def _cmd_compile(args: argparse.Namespace) -> int:
    network = _load_model(args.model)
    result = compile_model(
        network,
        device=args.device,
        transfer_constraint_bytes=args.transfer,
        output_dir=Path(args.out) if args.out else None,
        workers=args.workers,
        verify=not args.no_verify,
        context=_context_from_args(args),
    )
    strategy = result.strategy
    if args.json:
        from repro.optimizer.serialize import strategy_to_dict

        payload = strategy_to_dict(strategy)
        payload["latency_seconds"] = strategy.latency_seconds()
        payload["effective_gops"] = strategy.effective_gops()
        if args.stats:
            if result.telemetry is not None:
                payload["telemetry"] = result.telemetry.to_dict()
            joules, watts = _strategy_energy(strategy)
            payload["energy_per_inference_j"] = joules
            payload["board_power_w"] = watts
        if args.simulate:
            sim = result.simulate()
            payload["simulated_cycles"] = sim.latency_cycles
        print(json.dumps(payload, indent=2))
        return 0
    print(strategy.report())
    if args.stats:
        joules, watts = _strategy_energy(strategy)
        print(
            f"\nenergy per inference: {format_energy(joules)} "
            f"({watts:.2f} W board power; the capacity planner's "
            f"per-request energy charge)"
        )
        if result.telemetry is not None:
            print()
            print(result.telemetry.summary())
    if args.out:
        print(f"\nHLS project written to {args.out}")
    if args.simulate:
        sim = result.simulate()
        print()
        print(sim.report())
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    model = _load_model(args.model)
    if isinstance(model, Graph):
        raise ReproError(
            "repro sweep is chain-only; compile a branching graph with "
            "'repro compile' (vary --transfer per run)"
        )
    network = model.accelerated_prefix()
    device = get_device(args.device)
    constraints = [_parse_size(c) for c in args.constraints.split(",")]
    strategies = optimize_many(
        network, device, constraints, workers=args.workers,
        context=_context_from_args(args),
    )
    baseline = None
    if args.baseline:
        from repro.baselines.alwani import alwani_design

        baseline = alwani_design(network, device)
    if args.json:
        entries = []
        for constraint, strategy in zip(constraints, strategies):
            entry = {
                "constraint_bytes": constraint,
                "latency_cycles": strategy.latency_cycles,
                "latency_seconds": strategy.latency_seconds(),
                "groups": len(strategy.designs),
                "effective_gops": strategy.effective_gops(),
            }
            if baseline is not None:
                entry["speedup_vs_baseline"] = (
                    baseline.latency_cycles / strategy.latency_cycles
                )
            entries.append(entry)
        payload = {
            "network": network.name,
            "device": device.name,
            "rows": entries,
        }
        if args.stats and strategies and strategies[-1].telemetry is not None:
            payload["telemetry"] = strategies[-1].telemetry.to_dict()
        print(json.dumps(payload, indent=2))
        return 0
    rows = []
    for constraint, strategy in zip(constraints, strategies):
        row = [
            f"{constraint / MB:.2f} MB",
            f"{strategy.latency_cycles / 1e6:.2f}",
            len(strategy.designs),
            f"{strategy.effective_gops():.0f}",
        ]
        if baseline is not None:
            row.append(
                format_ratio(baseline.latency_cycles / strategy.latency_cycles)
            )
        rows.append(row)
    headers = ["constraint", "latency (Mcyc)", "groups", "GOPS"]
    if baseline is not None:
        headers.append("speedup vs [1]")
    print(
        format_table(
            headers, rows, title=f"{network.name} on {device.name}"
        )
    )
    if args.stats and strategies and strategies[-1].telemetry is not None:
        print()
        print(strategies[-1].telemetry.summary())
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    from repro.dse.store import CostStore

    store = CostStore(args.dir or None)
    if args.action == "clear":
        removed = store.clear()
        print(f"removed {removed} entr{'y' if removed == 1 else 'ies'} "
              f"from {store.root}")
        return 0
    if args.action == "gc":
        max_age_s = None
        if args.max_age_days is not None:
            max_age_s = args.max_age_days * 86400.0
        evicted = store.gc(max_entries=args.max_entries, max_age_s=max_age_s)
        print(f"evicted {evicted} entr{'y' if evicted == 1 else 'ies'}; "
              f"{store.stats().entries} remain in {store.root}")
        return 0
    stats = store.stats()
    if args.json:
        print(json.dumps(stats.to_dict(), indent=2))
    else:
        print(stats.summary())
    return 0


def _cmd_sweep_grid(args: argparse.Namespace) -> int:
    from repro.dse.grid import GridPoint, GridSpec
    from repro.dse.sweep import sweep_grid

    if args.spec:
        if any([args.models, args.devices]):
            print(
                "error: pass either --spec or --models/--devices, not both",
                file=sys.stderr,
            )
            return 1
        spec = GridSpec.from_file(args.spec)
    else:
        if not (args.models and args.devices):
            print(
                "error: either --spec FILE or both --models and --devices "
                "are required",
                file=sys.stderr,
            )
            return 1
        transfers = []
        for text in args.transfers.split(","):
            text = text.strip()
            transfers.append(None if text.lower() == "none" else _parse_size(text))
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
            log=None if args.json else print,
            faults=args.faults,
            fault_seed=args.fault_seed,
            point_timeout_s=args.point_timeout,
            max_retries=args.max_retries,
        )
    finally:
        signal.signal(signal.SIGTERM, previous_term)
    if args.json:
        print(json.dumps(result.to_dict(), indent=2))
        return 0 if result.ok else 1
    rows = []
    for record in result.records:
        point = GridPoint.from_dict(record["point"])
        body = record.get("result") or {}
        if record.get("ok"):
            latency = body.get("latency_seconds")
            gops = body.get("effective_gops")
            status = record.get("source", "computed")
            rows.append(
                [
                    point.describe(),
                    f"{latency * 1e3:.2f}" if latency else "-",
                    f"{gops:.0f}" if gops else "-",
                    status,
                ]
            )
        else:
            rows.append([point.describe(), "-", "-",
                         f"FAILED: {record.get('error')}"])
    print(format_table(
        ["point", "latency (ms)", "GOPS", "status"], rows,
        title=f"sweep grid ({len(result.records)} points)",
    ))
    print()
    print(result.summary())
    print(f"results: {out_dir / 'sweep_results.json'}")
    return 0 if result.ok else 1


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
        _load_model(args.model),
        devices=DeviceFleet.from_spec(args.devices, link=link),
        transfer_constraint_bytes=args.transfer,
        workers=args.workers,
        context=context,
        verify=not args.no_verify,
    )


def _cmd_partition(args: argparse.Namespace) -> int:
    from repro.sim.gantt import render_fleet_gantt

    if args.faults:
        # Parse eagerly: a bad spec fails in milliseconds, before the
        # partition search runs.
        from repro.faults import FaultSpec

        FaultSpec.parse(args.faults)
    plan = _partition_from_args(args, context=_context_from_args(args))
    # Save first: a plan that cannot be saved fails before any output.
    saved = plan.save(args.save) if args.save else None
    if args.json:
        payload = plan.to_dict()
        if args.stats and plan.telemetry is not None:
            payload["telemetry"] = plan.telemetry.to_dict()
        if args.simulate:
            sim = plan.simulate(faults=args.faults, fault_seed=args.seed)
            payload["simulated_latency_seconds"] = sim.latency_seconds
            payload["simulated_interval_seconds"] = sim.pipeline_interval_seconds
        if args.serve is not None:
            serving = _serve_partition(plan, args)
            payload["serving"] = serving.metrics.to_dict()
        print(json.dumps(payload, indent=2))
    else:
        print(plan.fleet.describe())
        print()
        print(plan.report())
        if args.stats and plan.telemetry is not None:
            print()
            print(plan.telemetry.summary())
        if args.simulate:
            sim = plan.simulate(faults=args.faults, fault_seed=args.seed)
            print()
            print(sim.report())
            print()
            print(render_fleet_gantt(sim))
        if args.serve is not None:
            serving = _serve_partition(plan, args)
            print()
            print(
                f"served {args.serve} synthetic requests through "
                f"{args.pipelines} pipeline(s) at {args.load:.2f}x load "
                f"(seed {args.seed}"
                + (f", faults {args.faults!r}" if args.faults else "")
                + ")"
            )
            print(serving.summary())
    if saved is not None and not args.json:
        print(f"\npartition plan written to {saved}")
    return 0


def _serve_partition(plan, args: argparse.Namespace):
    """Run the pipelined serving simulation a ``--serve`` flag asked for."""
    import numpy as np

    fleet = plan.serve(
        pipelines=args.pipelines,
        faults=args.faults,
        fault_seed=args.seed,
        verify=not args.no_verify,
    )
    return fleet.run_open_loop(
        num_requests=args.serve,
        load=args.load,
        rng=np.random.default_rng(args.seed),
    )


def _cmd_replan(args: argparse.Namespace) -> int:
    """Dry-run the online re-partitioning the resilience plane performs."""
    import time

    from repro.resilience import (
        ResiliencePolicy,
        handover_cycles,
        replan_cycles,
        replan_survivors,
    )

    plan = _partition_from_args(args, context=_context_from_args(args))
    started = time.perf_counter()
    survivor = replan_survivors(
        plan,
        args.dead_stage,
        transfer_constraint_bytes=args.transfer,
        context=_context_from_args(args),
        workers=args.workers,
    )
    wall_s = time.perf_counter() - started
    saved = survivor.save(args.save) if args.save else None
    policy = ResiliencePolicy()
    hz = plan.fleet.reference_frequency_hz
    budget = replan_cycles(policy, hz)
    handover = handover_cycles(survivor, reference_hz=hz)
    if args.json:
        payload = {
            "original": plan.to_dict(),
            "dead_stage": args.dead_stage,
            "survivor": survivor.to_dict(),
            "replan_wall_seconds": wall_s,
            "replan_budget_cycles": budget,
            "handover_cycles": handover,
            "readmission_cycles": budget + handover,
        }
        print(json.dumps(payload, indent=2))
    else:
        print(plan.report())
        print()
        dead_device = plan.placements[args.dead_stage].device.name
        print(
            f"stage {args.dead_stage} ({dead_device}) declared dead; "
            f"re-planned over {len(survivor.fleet.devices)} survivor(s) "
            f"in {wall_s * 1e3:.1f} ms wall clock"
        )
        print()
        print(survivor.report())
        print()
        print(
            f"virtual-clock price at {hz / 1e6:.0f} MHz: "
            f"{budget:,.0f} cycle replan budget + {handover:,.0f} cycle "
            f"weight handover = {budget + handover:,.0f} cycles to "
            f"readmission"
        )
    if saved is not None and not args.json:
        print(f"\nsurvivor plan written to {saved}")
    return 0


def _unique_tenant_names(names: List[str]) -> List[str]:
    """Disambiguate duplicate model names: vgg_e, vgg_e-2, vgg_e-3, ..."""
    seen: dict = {}
    unique = []
    for name in names:
        seen[name] = seen.get(name, 0) + 1
        unique.append(name if seen[name] == 1 else f"{name}-{seen[name]}")
    return unique


def _serve_sim_multi(
    args: argparse.Namespace, model_specs: List[str], fault_seed: int
) -> int:
    """Multi-tenant serve-sim: several models sharing one replica fleet."""
    from repro.capacity import MultiTenantScheduler
    from repro.traffic import REFERENCE_FREQUENCY_HZ, TrafficTrace, load_trace

    device = get_device(args.device)
    networks = [_load_model(spec) for spec in model_specs]
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
    strategies = {}
    for name, network in zip(names, networks):
        compiled = compile_model(
            network,
            device=args.device,
            transfer_constraint_bytes=args.transfer,
            verify=not args.no_verify,
        )
        strategies[name] = compiled.strategy
    resilience = None
    if args.resilience:
        from repro.resilience import ResiliencePolicy

        resilience = ResiliencePolicy()
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
        fault_seed=fault_seed,
        max_queue=args.max_queue,
        resilience=resilience,
    )
    scale = device.frequency_hz / REFERENCE_FREQUENCY_HZ
    result = scheduler.run_trace(trace, scale=scale)
    log_path = None
    if args.recovery_log:
        from repro.resilience import save_recovery_log

        log_path = save_recovery_log(
            args.recovery_log,
            resilience,
            result.recovery,
            faults=scheduler.faults,
            seed=fault_seed,
        )
    if args.json:
        print(json.dumps(result.to_dict(), indent=2))
        return 0
    source = (
        f"replayed trace {args.trace}"
        if args.trace
        else f"generated trace (seed {args.seed})"
    )
    print(
        f"serving {len(names)} tenant(s) on {args.replicas} x {args.device} "
        f"(policy {args.policy}, max batch {args.max_batch}, {source})"
    )
    if args.faults:
        print(f"fault schedule: {args.faults!r} (fault seed {fault_seed})")
    print()
    print(result.summary())
    if log_path is not None:
        print(f"\nrecovery log written to {log_path}")
    return 0


def _cmd_serve_sim(args: argparse.Namespace) -> int:
    if args.faults:
        # Parse eagerly: a bad spec fails in milliseconds, before the
        # compile step runs.
        from repro.faults import FaultSpec

        FaultSpec.parse(args.faults)
    if (args.fallback or args.recovery_log) and not args.resilience:
        raise ReproError("--fallback and --recovery-log require --resilience")
    fault_seed = args.fault_seed if args.fault_seed is not None else args.seed
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
        return _serve_sim_multi(args, model_specs, fault_seed)
    resilience = None
    if args.resilience:
        from repro.resilience import ResiliencePolicy

        resilience = ResiliencePolicy()
    network = _load_model(args.model)
    result = compile_model(
        network,
        device=args.device,
        transfer_constraint_bytes=args.transfer,
        verify=not args.no_verify,
    )
    fleet = result.serve(
        replicas=args.replicas,
        policy=args.policy,
        max_batch=args.max_batch,
        max_wait_cycles=args.max_wait,
        faults=args.faults,
        fault_seed=fault_seed,
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
    log_path = None
    if args.recovery_log:
        from repro.resilience import save_recovery_log

        log_path = save_recovery_log(
            args.recovery_log,
            resilience,
            serving.metrics.recovery,
            faults=fleet.faults,
            seed=fault_seed,
        )
    if args.json:
        print(json.dumps(serving.metrics.to_dict(), indent=2))
        return 0
    print(
        f"serving {network.name} on {args.replicas} x {args.device} "
        f"(policy {args.policy}, max batch {args.max_batch}, "
        f"strategy latency {result.strategy.latency_cycles:,} cycles)"
    )
    print(load_line)
    if args.faults:
        print(f"fault schedule: {args.faults!r} (fault seed {fault_seed})")
    print()
    print(serving.summary())
    if log_path is not None:
        print(f"\nrecovery log written to {log_path}")
    return 0


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
        model=_load_model(fields["model"]),
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


def _cmd_plan_capacity(args: argparse.Namespace) -> int:
    from repro.capacity import plan_capacity, plan_per_model_fleets

    demands = [_parse_tenant_demand(spec) for spec in args.tenant]
    devices = [d.strip() for d in args.devices.split(",") if d.strip()]
    batch_sizes = [int(b) for b in args.batch_sizes.split(",")]
    common = dict(
        devices=devices,
        max_replicas=args.max_replicas,
        batch_sizes=batch_sizes,
        policy=args.policy,
        seed=args.seed,
        faults=args.faults,
        fault_seed=args.fault_seed,
        transfer_constraint_bytes=args.transfer,
        context=_context_from_args(args),
        verify=not args.no_verify,
    )
    plan = plan_capacity(
        demands,
        sharing=args.sharing,
        log=None if args.json else print,
        **common,
    )
    baseline = (
        plan_per_model_fleets(demands, **common) if args.baseline else None
    )
    if args.json:
        payload = plan.to_payload()
        if baseline is not None:
            payload["baseline"] = {
                "board_cost": baseline.board_cost,
                "energy_j": baseline.energy_j,
                "fleets": baseline.fleets,
            }
        print(json.dumps(payload, indent=2))
    else:
        print()
        print(plan.summary())
        if baseline is not None:
            print()
            print(baseline.summary())
            saved = baseline.board_cost - plan.board_cost
            print(
                f"consolidation saves {saved:.2f} board-cost unit(s) "
                f"({saved / baseline.board_cost * 100:.0f}%) and "
                f"{format_energy(baseline.energy_j - plan.energy_j)} "
                "vs dedicated per-model fleets"
            )
    if args.save:
        path = plan.save(args.save)
        if not args.json:
            print(f"\ncapacity plan written to {path}")
    return 0


def _check_one(path: Path, model: Optional[str]) -> List[str]:
    """Validate one artifact file; the returned lines describe failures."""
    from repro.check.artifacts import describe_artifact, load_envelope
    from repro.check.invariants import verify_plan, verify_strategy

    envelope = load_envelope(path)
    print(f"{path}: {describe_artifact(envelope)}")
    if envelope.kind == "codegen_strategy":
        # Generated projects used to embed this report-only blob (their
        # strategy.json is a plain strategy artifact now); it cannot be
        # loaded, so envelope integrity (checksum, digests) is the check.
        print(f"{path}: envelope integrity ok")
        return []
    if envelope.kind == "traffic_trace":
        # Schema-validate by loading; the digest is the determinism witness.
        from repro.traffic import load_trace

        trace = load_trace(path)
        print(f"{path}: {trace.summary().splitlines()[0]}")
        return []
    if envelope.kind == "capacity_plan":
        from repro.capacity import load_capacity_plan

        plan = load_capacity_plan(path)
        print(f"{path}: {plan.summary().splitlines()[0]}")
        return []
    if envelope.kind == "recovery_log":
        # The checksum is the determinism witness; schema-check the
        # decision log's required fields.
        payload = envelope.payload
        missing = [
            key
            for key in ("schema_version", "policy", "events", "summary")
            if key not in payload
        ]
        if missing:
            return [
                f"{path}: recovery_log payload missing "
                f"{', '.join(missing)}"
            ]
        summary = payload["summary"]
        print(
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
        print(
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

    full = _load_model(name)
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
            print(f"{path}: {report.summary()}")
            return [] if report.ok else [f"{path}: verification failed"]
        except ReproError as exc:
            last_error = exc
    return [f"{path}: {last_error}"]


def _cmd_check(args: argparse.Namespace) -> int:
    failures: List[str] = []
    for name in args.artifacts:
        try:
            failures.extend(_check_one(Path(name), args.model))
        except ReproError as exc:
            failures.append(f"{name}: {exc}")
    if failures:
        for line in failures:
            print(f"error: {line}", file=sys.stderr)
        return 1
    print(f"{len(args.artifacts)} artifact(s) ok")
    return 0


def _cmd_doctor(args: argparse.Namespace) -> int:
    from repro.check.consistency import doctor

    report = doctor(deep=args.deep)
    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(report.summary())
    return 0 if report.ok else 1


def _cmd_torture(args: argparse.Namespace) -> int:
    import tempfile

    from repro.check.durability import (
        run_chaos_sweep,
        run_kill_point_matrix,
        save_torture_report,
    )

    emit = (lambda _line: None) if args.json else print
    workloads = (
        [name.strip() for name in args.workloads.split(",")]
        if args.workloads
        else None
    )
    with tempfile.TemporaryDirectory(dir=args.workdir) as tmp:
        report = run_kill_point_matrix(
            Path(tmp), workloads=workloads, log=emit
        )
        if args.chaos:
            report.chaos = run_chaos_sweep(
                Path(tmp) / "chaos",
                workers=args.workers,
                kill_p=args.kill_p,
                eio_p=args.eio_p,
                seed=args.seed,
                max_retries=args.max_retries,
                log=emit,
            )
    if args.report:
        save_torture_report(args.report, report)
        emit(f"report: {args.report}")
    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(report.summary())
    return 0 if report.ok else 1


def _cmd_winograd(args: argparse.Namespace) -> int:
    from repro.algorithms.poly import to_numpy
    from repro.algorithms.winograd import exact_transform_matrices, winograd_transform

    transform = winograd_transform(args.m, args.r)
    at, g, bt = exact_transform_matrices(args.m, args.r)
    print(
        f"F({args.m}, {args.r}): alpha={transform.alpha}, 2-D reduction "
        f"{transform.multiplication_reduction:.2f}x"
    )
    for name, matrix in (("A^T", at), ("G", g), ("B^T", bt)):
        print(f"{name} =")
        for row in to_numpy(matrix):
            print("  [" + "  ".join(f"{value:8.4f}" for value in row) + "]")
    return 0


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

    sub.add_parser("models", help="list the built-in model zoo").set_defaults(
        func=_cmd_models
    )
    sub.add_parser("devices", help="list the FPGA device catalog").set_defaults(
        func=_cmd_devices
    )

    compile_p = sub.add_parser("compile", help="map a model onto an FPGA")
    compile_p.add_argument("model", help="prototxt path or model-zoo name")
    compile_p.add_argument("--device", default="zc706", choices=sorted(DEVICES))
    compile_p.add_argument(
        "--transfer",
        type=_parse_size,
        default=None,
        help="feature-map transfer constraint, e.g. 2MB or 340KB "
        "(default: unconstrained)",
    )
    compile_p.add_argument("--out", default=None, help="write the HLS project here")
    compile_p.add_argument(
        "--simulate", action="store_true", help="run the cycle-approximate simulator"
    )
    compile_p.add_argument(
        "--stats", action="store_true",
        help="print search telemetry (evaluations, cache hits, B&B nodes, "
        "per-group wall time)",
    )
    compile_p.add_argument(
        "--workers", type=int, default=None,
        help="precompute fusion[i][j] searches with N threads "
        "(strategy-preserving)",
    )
    compile_p.add_argument(
        "--json", action="store_true",
        help="emit the strategy as JSON instead of the report table",
    )
    compile_p.add_argument(
        "--no-verify", action="store_true",
        help="skip the admission-time invariant validators "
        "(output is bit-identical when verification passes)",
    )
    compile_p.add_argument(
        "--cache", nargs="?", const="", default=None, metavar="DIR",
        help="warm the search from (and persist it to) an on-disk cost "
        "store; DIR defaults to $REPRO_COST_CACHE or "
        "~/.cache/repro/cost_store (strategy-preserving)",
    )
    compile_p.set_defaults(func=_cmd_compile)

    sweep_p = sub.add_parser("sweep", help="latency vs transfer-constraint table")
    sweep_p.add_argument("model")
    sweep_p.add_argument("--device", default="zc706", choices=sorted(DEVICES))
    sweep_p.add_argument(
        "--constraints",
        default="2MB,4MB,8MB,16MB,32MB",
        help="comma-separated constraints (default: the Figure 5 sweep)",
    )
    sweep_p.add_argument(
        "--baseline",
        action="store_true",
        help="also run the Alwani et al. [MICRO'16] baseline",
    )
    sweep_p.add_argument(
        "--stats", action="store_true",
        help="print search telemetry for the shared sweep search",
    )
    sweep_p.add_argument(
        "--workers", type=int, default=None,
        help="precompute fusion[i][j] searches with N threads "
        "(strategy-preserving)",
    )
    sweep_p.add_argument(
        "--json", action="store_true",
        help="emit the sweep rows as JSON instead of the table",
    )
    sweep_p.add_argument(
        "--cache", nargs="?", const="", default=None, metavar="DIR",
        help="warm the sweep from (and persist it to) an on-disk cost "
        "store; DIR defaults to $REPRO_COST_CACHE or "
        "~/.cache/repro/cost_store (strategy-preserving)",
    )
    sweep_p.set_defaults(func=_cmd_sweep)

    grid_p = sub.add_parser(
        "sweep-grid",
        help="parallel, resumable design-space sweep over a grid spec",
    )
    grid_p.add_argument(
        "--spec", default=None, metavar="FILE",
        help="JSON grid spec (models/devices/bandwidth_factors/"
        "transfer_bytes/fleet_sizes axes); or build one with the "
        "axis flags below",
    )
    grid_p.add_argument(
        "--models", default=None,
        help="comma-separated model-zoo names or prototxt paths",
    )
    grid_p.add_argument(
        "--devices", default=None,
        help="comma-separated device catalog names",
    )
    grid_p.add_argument(
        "--transfers", default="none", metavar="LIST",
        help="comma-separated transfer budgets, e.g. 2MB,8MB,none "
        "(default: none = unconstrained)",
    )
    grid_p.add_argument(
        "--bw-factors", default="1.0", metavar="LIST",
        help="comma-separated bandwidth scale factors (default 1.0)",
    )
    grid_p.add_argument(
        "--fleet-sizes", default="1", metavar="LIST",
        help="comma-separated fleet sizes; >1 partitions the model "
        "across that many copies of the device (default 1)",
    )
    grid_p.add_argument(
        "--out", required=True, metavar="DIR",
        help="output directory for the journal and sweep_results.json",
    )
    grid_p.add_argument(
        "--workers", type=int, default=None,
        help="fan points out over N worker processes (results are "
        "bit-identical to a serial run)",
    )
    grid_p.add_argument(
        "--resume", action="store_true",
        help="honor the journal of an interrupted sweep in --out: "
        "completed points are not recomputed",
    )
    grid_p.add_argument(
        "--cache", default=None, metavar="DIR",
        help="cost store shared by all workers "
        "(default: <out>/cost_store)",
    )
    grid_p.add_argument(
        "--no-cache", action="store_true",
        help="run memory-only, without the persistent cost store",
    )
    grid_p.add_argument(
        "--json", action="store_true",
        help="emit the full sweep result as JSON instead of the table",
    )
    grid_p.add_argument(
        "--point-timeout", type=float, default=None, metavar="SECONDS",
        help="per-point hang budget: a worker silent this long is "
        "terminated and its point requeued (default: no hang detection)",
    )
    grid_p.add_argument(
        "--max-retries", type=int, default=2, metavar="N",
        help="requeues per point after worker deaths/hangs before it "
        "is recorded as failed (default 2)",
    )
    grid_p.add_argument(
        "--faults", default=None, metavar="SPEC",
        help="inject deterministic process faults into the workers "
        "(torture testing), e.g. 'kill:p=0.2,point=sweep.point_start"
        ";eio:p=0.05'",
    )
    grid_p.add_argument(
        "--fault-seed", type=int, default=0,
        help="seed for the --faults schedule (default 0)",
    )
    grid_p.set_defaults(func=_cmd_sweep_grid)

    cache_p = sub.add_parser(
        "cache", help="inspect or maintain the persistent cost store"
    )
    cache_p.add_argument(
        "action", choices=["stats", "gc", "clear"],
        help="stats: show size/record counters; gc: evict by age/count "
        "and compact; clear: delete every entry",
    )
    cache_p.add_argument(
        "--dir", default=None, metavar="DIR",
        help="store root (default: $REPRO_COST_CACHE or "
        "~/.cache/repro/cost_store)",
    )
    cache_p.add_argument(
        "--max-entries", type=int, default=None,
        help="gc: keep at most this many entries (newest kept)",
    )
    cache_p.add_argument(
        "--max-age-days", type=float, default=None,
        help="gc: evict entries older than this many days",
    )
    cache_p.add_argument(
        "--json", action="store_true",
        help="stats: emit JSON instead of the summary",
    )
    cache_p.set_defaults(func=_cmd_cache)

    part_p = sub.add_parser(
        "partition", help="split a model across a fleet of FPGAs"
    )
    part_p.add_argument("model", help="prototxt path or model-zoo name")
    part_p.add_argument(
        "--devices", default="zc706,zc706",
        help="comma-separated fleet in pipeline order, e.g. zc706,zcu102 "
        "(default: zc706,zc706)",
    )
    part_p.add_argument(
        "--link-gbs", type=float, default=2.0,
        help="board-to-board link bandwidth in GB/s (default 2.0)",
    )
    part_p.add_argument(
        "--link-latency-us", type=float, default=0.0,
        help="per-transfer link setup latency in microseconds",
    )
    part_p.add_argument(
        "--transfer", type=_parse_size, default=None,
        help="per-stage feature-map transfer constraint, e.g. 2MB "
        "(default: unconstrained on every board)",
    )
    part_p.add_argument(
        "--simulate", action="store_true",
        help="run the fleet simulator and print the pipeline Gantt chart",
    )
    part_p.add_argument(
        "--stats", action="store_true",
        help="print search telemetry (stage queries, cuts considered, ...)",
    )
    part_p.add_argument(
        "--workers", type=int, default=None,
        help="precompute fusion searches with N threads",
    )
    part_p.add_argument(
        "--save", default=None, metavar="PATH",
        help="write the partition plan JSON here",
    )
    part_p.add_argument(
        "--json", action="store_true",
        help="emit the plan as JSON instead of the report table",
    )
    part_p.add_argument(
        "--serve", type=int, default=None, metavar="N",
        help="also serve N synthetic requests through the pipelined fleet",
    )
    part_p.add_argument(
        "--pipelines", type=int, default=1,
        help="independent pipeline copies behind one batcher (default 1)",
    )
    part_p.add_argument(
        "--load", type=float, default=1.5,
        help="offered load for --serve, relative to one pipeline's peak "
        "rate (default 1.5)",
    )
    part_p.add_argument(
        "--faults", default=None, metavar="SPEC",
        help="deterministic fault schedule for --simulate/--serve, e.g. "
        "'link:index=0,at=1e5,for=2e4,scale=4;crash:replica=0,at=2e6,"
        "down=1e6' (kinds: crash, transient, brownout, link)",
    )
    part_p.add_argument(
        "--seed", type=int, default=0,
        help="seed for --serve arrivals and the fault injector",
    )
    part_p.add_argument(
        "--no-verify", action="store_true",
        help="skip the admission-time plan validators "
        "(output is bit-identical when verification passes)",
    )
    part_p.set_defaults(func=_cmd_partition)

    replan_p = sub.add_parser(
        "replan",
        help="dry-run the resilience plane's online re-partitioning: "
        "declare one pipeline stage dead and re-cut over the survivors",
    )
    replan_p.add_argument("model", help="prototxt path or model-zoo name")
    replan_p.add_argument(
        "--devices", default="zc706,zc706",
        help="comma-separated fleet in pipeline order (default zc706,zc706)",
    )
    replan_p.add_argument(
        "--dead-stage", type=int, default=0, metavar="N",
        help="stage whose device dies (default 0)",
    )
    replan_p.add_argument(
        "--link-gbs", type=float, default=2.0,
        help="board-to-board link bandwidth in GB/s (default 2.0)",
    )
    replan_p.add_argument(
        "--link-latency-us", type=float, default=0.0,
        help="per-transfer link setup latency in microseconds",
    )
    replan_p.add_argument(
        "--transfer", type=_parse_size, default=None,
        help="per-stage feature-map transfer constraint, e.g. 2MB",
    )
    replan_p.add_argument(
        "--cache", nargs="?", const="", default=None, metavar="DIR",
        help="route both searches through an on-disk cost store so the "
        "re-plan is a warm-cache operation; DIR defaults to "
        "$REPRO_COST_CACHE or ~/.cache/repro/cost_store",
    )
    replan_p.add_argument(
        "--workers", type=int, default=None,
        help="precompute fusion searches with N threads "
        "(wall time only; the plan is deterministic)",
    )
    replan_p.add_argument(
        "--save", default=None, metavar="PATH",
        help="write the survivor plan JSON here",
    )
    replan_p.add_argument(
        "--json", action="store_true",
        help="emit both plans and the re-plan price as JSON",
    )
    replan_p.add_argument(
        "--no-verify", action="store_true",
        help="skip the admission-time plan validators",
    )
    replan_p.set_defaults(func=_cmd_replan)

    serve_p = sub.add_parser(
        "serve-sim", help="simulate a batched multi-replica serving fleet"
    )
    serve_p.add_argument("model", help="prototxt path or model-zoo name")
    serve_p.add_argument("--device", default="zc706", choices=sorted(DEVICES))
    serve_p.add_argument(
        "--transfer", type=_parse_size, default=None,
        help="feature-map transfer constraint for the compile step",
    )
    serve_p.add_argument(
        "--replicas", type=int, default=1, help="accelerator instances (default 1)"
    )
    serve_p.add_argument(
        "--requests", type=int, default=200,
        help="synthetic requests to serve (default 200)",
    )
    serve_p.add_argument(
        "--load", type=float, default=1.5,
        help="offered load as a multiple of one replica's peak full-batch "
        "rate (default 1.5: saturates a single replica)",
    )
    serve_p.add_argument(
        "--arrival", default=None, metavar="SPEC",
        help="generate the trace from an arrival-process spec at the "
        "100 MHz reference clock instead of --load, e.g. "
        "'diurnal:mean=9000,period=2e6,depth=0.8' "
        "('|'-separated list in multi-tenant mode)",
    )
    serve_p.add_argument(
        "--models", default=None, metavar="LIST",
        help="comma-separated co-tenant models sharing the fleet "
        "(multi-tenant mode; see --weights and --sharing)",
    )
    serve_p.add_argument(
        "--trace", default=None, metavar="PATH",
        help="replay a recorded traffic_trace artifact; tenant streams "
        "map to models by position",
    )
    serve_p.add_argument(
        "--weights", default=None, metavar="LIST",
        help="comma-separated weighted-fair scheduler weights, one per "
        "model (default: 1 each)",
    )
    serve_p.add_argument(
        "--sharing", default="weighted_fair",
        choices=["weighted_fair", "strict_priority"],
        help="multi-tenant sharing discipline (default weighted_fair)",
    )
    serve_p.add_argument(
        "--max-batch", type=int, default=8, help="dynamic batch size cap"
    )
    serve_p.add_argument(
        "--max-wait", type=float, default=None,
        help="partial-batch deadline in cycles "
        "(default: half the single-image latency)",
    )
    serve_p.add_argument(
        "--policy", default="least_loaded",
        choices=[p.value for p in Policy],
        help="batch placement policy",
    )
    serve_p.add_argument(
        "--seed", type=int, default=0, help="arrival-trace RNG seed"
    )
    serve_p.add_argument(
        "--faults", default=None, metavar="SPEC",
        help="deterministic fault schedule, e.g. "
        "'transient:p=0.1;crash:replica=1,at=2e6,down=1e6' "
        "(kinds: crash, transient, brownout, link)",
    )
    serve_p.add_argument(
        "--fault-seed", type=int, default=None,
        help="seed of the transient-failure draws (default: --seed)",
    )
    serve_p.add_argument(
        "--max-queue", type=int, default=None,
        help="admission-control bound: shed arrivals beyond this many "
        "queued requests (default: unbounded)",
    )
    serve_p.add_argument(
        "--slo", type=float, default=None, metavar="CYCLES",
        help="latency SLO in cycles; reports SLO attainment",
    )
    serve_p.add_argument(
        "--resilience", action="store_true",
        help="attach the online control plane (repro.resilience): health "
        "monitoring, the degradation ladder, and recovery accounting; "
        "a zero-fault run is bit-identical with or without it",
    )
    serve_p.add_argument(
        "--fallback", action="store_true",
        help="pre-compile a conventional-algorithm fallback strategy for "
        "the ladder's warm-swap rung (requires --resilience; "
        "single-tenant mode only)",
    )
    serve_p.add_argument(
        "--recovery-log", default=None, metavar="PATH",
        help="write the run's checksummed recovery_log artifact "
        "(requires --resilience)",
    )
    serve_p.add_argument(
        "--json", action="store_true",
        help="emit the metrics as JSON instead of the summary text",
    )
    serve_p.add_argument(
        "--no-verify", action="store_true",
        help="skip the admission-time invariant validators "
        "(output is bit-identical when verification passes)",
    )
    serve_p.set_defaults(func=_cmd_serve_sim)

    plan_p = sub.add_parser(
        "plan-capacity",
        help="size a shared multi-tenant fleet to meet per-model SLOs",
    )
    plan_p.add_argument(
        "--tenant", action="append", required=True, metavar="SPEC",
        help="one tenant demand as ';'-separated key=value fields: "
        "'name=vision;model=vgg_e;arrival=diurnal:mean=9000,period=2e6;"
        "slo-ms=5;requests=200;goodput=100;weight=2;priority=1;"
        "min-share=0.2' (name, model, arrival required; repeatable)",
    )
    plan_p.add_argument(
        "--devices", default="zc706",
        help="comma-separated candidate devices; each fleet is "
        "homogeneous (default zc706)",
    )
    plan_p.add_argument(
        "--max-replicas", type=int, default=4,
        help="largest replica count to try per device (default 4)",
    )
    plan_p.add_argument(
        "--batch-sizes", default="1,4,8",
        help="comma-separated dynamic-batch caps to try (default 1,4,8)",
    )
    plan_p.add_argument(
        "--policy", default="least_loaded",
        choices=[p.value for p in Policy],
        help="batch placement policy",
    )
    plan_p.add_argument(
        "--sharing", default="weighted_fair",
        choices=["weighted_fair", "strict_priority"],
        help="sharing discipline of the planned fleet",
    )
    plan_p.add_argument(
        "--seed", type=int, default=0,
        help="traffic seed; the same seed replays the identical trace "
        "in any later re-plan",
    )
    plan_p.add_argument(
        "--faults", default=None, metavar="SPEC",
        help="stress-test candidates under this deterministic fault "
        "schedule; the plan then meets its SLOs under that disturbance",
    )
    plan_p.add_argument(
        "--fault-seed", type=int, default=0,
        help="seed of the transient-failure draws (default 0)",
    )
    plan_p.add_argument(
        "--transfer", type=_parse_size, default=None,
        help="feature-map transfer constraint for the compile steps",
    )
    plan_p.add_argument(
        "--baseline", action="store_true",
        help="also price dedicated per-model fleets for comparison",
    )
    plan_p.add_argument(
        "--save", default=None, metavar="PATH",
        help="write the chosen plan here as a capacity_plan artifact",
    )
    plan_p.add_argument(
        "--json", action="store_true",
        help="emit the plan as JSON instead of the summary",
    )
    plan_p.add_argument(
        "--no-verify", action="store_true",
        help="skip the admission-time invariant validators",
    )
    plan_p.add_argument(
        "--cache", nargs="?", const="", default=None, metavar="DIR",
        help="warm the per-device compiles from (and persist them to) an "
        "on-disk cost store",
    )
    plan_p.set_defaults(func=_cmd_plan_capacity)

    wino_p = sub.add_parser("winograd", help="print F(m, r) transform matrices")
    wino_p.add_argument("m", type=int)
    wino_p.add_argument("r", type=int)
    wino_p.set_defaults(func=_cmd_winograd)

    check_p = sub.add_parser(
        "check", help="validate saved strategy/plan artifact files"
    )
    check_p.add_argument(
        "artifacts", nargs="+", metavar="ARTIFACT",
        help="artifact JSON files (strategy, partition plan, or a "
        "generated project's strategy.json)",
    )
    check_p.add_argument(
        "--model", default=None,
        help="network the artifacts belong to (default: the network "
        "name recorded in each artifact, resolved from the model zoo)",
    )
    check_p.set_defaults(func=_cmd_check)

    doctor_p = sub.add_parser(
        "doctor", help="self-diagnose the toolflow on the tiny built-in model"
    )
    doctor_p.add_argument(
        "--deep", action="store_true",
        help="also run the DP-vs-exhaustive-oracle and serving smoke checks",
    )
    doctor_p.add_argument(
        "--json", action="store_true",
        help="emit the check results as JSON instead of the summary",
    )
    doctor_p.set_defaults(func=_cmd_doctor)

    torture_p = sub.add_parser(
        "torture",
        help="crash-consistency torture: kill a child at every "
        "registered crash point, verify and recover (docs/durability.md)",
    )
    torture_p.add_argument(
        "--workloads", default=None, metavar="LIST",
        help="comma-separated workload subset (artifact, journal, "
        "cost_store, sweep); default: all of them",
    )
    torture_p.add_argument(
        "--chaos", action="store_true",
        help="also run the chaos sweep: seeded worker kills + EIO must "
        "produce records checksum-equal to the fault-free sweep",
    )
    torture_p.add_argument(
        "--kill-p", type=float, default=0.2,
        help="chaos worker-kill probability per point pickup (default 0.2)",
    )
    torture_p.add_argument(
        "--eio-p", type=float, default=0.05,
        help="chaos injected-EIO probability per write (default 0.05)",
    )
    torture_p.add_argument(
        "--seed", type=int, default=7, help="chaos fault seed (default 7)"
    )
    torture_p.add_argument(
        "--workers", type=int, default=2,
        help="chaos sweep worker processes (default 2)",
    )
    torture_p.add_argument(
        "--max-retries", type=int, default=5,
        help="chaos per-point requeue budget (default 5)",
    )
    torture_p.add_argument(
        "--workdir", default=None, metavar="DIR",
        help="parent directory for the scratch tree (default: system tmp)",
    )
    torture_p.add_argument(
        "--report", default=None, metavar="FILE",
        help="also save the full report as a torture_report artifact",
    )
    torture_p.add_argument(
        "--json", action="store_true",
        help="emit the report as JSON instead of the summary",
    )
    torture_p.set_defaults(func=_cmd_torture)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
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
