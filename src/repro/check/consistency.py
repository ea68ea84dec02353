"""Cross-model consistency checks and the self-diagnosing doctor.

Where :mod:`repro.check.invariants` verifies one artifact against
itself, this module verifies the *layers of the toolflow against each
other*: the analytic cost model against the cycle-approximate
simulator, the simulator's functional output against the
``nn.functional`` reference, the artifact envelope against deliberate
corruption, and (deep level) the DP optimizer against the exhaustive
oracle.  ``repro doctor`` runs the whole battery on the tiny built-in
model so a broken install, a stale artifact format, or a cost-model
regression is caught in seconds — before it costs a full compile or a
serving run.

Imports of the heavier layers happen inside each check so this module
stays cheap to import from the CLI.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from repro.errors import ArtifactError, ReproError

#: Acceptable simulated/analytic latency ratio window.  The simulator
#: replays a row-level recurrence the analytic model only bounds, so
#: they agree in regime, not bit-for-bit (see benchmarks/test_simulation).
SIM_RATIO_WINDOW = (0.2, 3.0)


@dataclass(frozen=True)
class CheckResult:
    """One doctor check: name, outcome, and a one-line detail."""

    name: str
    ok: bool
    detail: str
    seconds: float

    def __str__(self) -> str:
        status = "ok" if self.ok else "FAIL"
        return f"{status:>4}  {self.name:<24} {self.detail} ({self.seconds:.2f}s)"


class DoctorReport:
    """Every check the doctor ran, in order."""

    def __init__(self, results: List[CheckResult], deep: bool):
        self.results = results
        self.deep = deep

    @property
    def ok(self) -> bool:
        return all(result.ok for result in self.results)

    @property
    def failures(self) -> List[CheckResult]:
        return [result for result in self.results if not result.ok]

    def summary(self) -> str:
        level = "deep" if self.deep else "quick"
        lines = [f"repro doctor ({level} level): {len(self.results)} check(s)"]
        lines.extend(str(result) for result in self.results)
        if self.ok:
            lines.append("all checks passed")
        else:
            lines.append(f"{len(self.failures)} check(s) FAILED")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "deep": self.deep,
            "ok": self.ok,
            "checks": [
                {
                    "name": r.name,
                    "ok": r.ok,
                    "detail": r.detail,
                    "seconds": r.seconds,
                }
                for r in self.results
            ],
        }


def _run(
    name: str, fn: Callable[[], str], results: List[CheckResult]
) -> Optional[str]:
    """Execute one check, folding any ReproError into a failure entry."""
    start = time.perf_counter()
    try:
        detail = fn()
        results.append(
            CheckResult(name, True, detail, time.perf_counter() - start)
        )
        return detail
    except ReproError as exc:
        results.append(
            CheckResult(name, False, str(exc), time.perf_counter() - start)
        )
    except Exception as exc:  # a crash is itself a diagnosis
        results.append(
            CheckResult(
                name,
                False,
                f"{type(exc).__name__}: {exc}",
                time.perf_counter() - start,
            )
        )
    return None


# -- individual consistency checks ------------------------------------------


def check_sim_consistency(strategy, seed: int = 0) -> Tuple[float, float]:
    """Simulate ``strategy`` and compare against the analytic model.

    Returns ``(ratio, max_error)``: the simulated/analytic cycle ratio
    and the max absolute functional deviation from the ``nn.functional``
    reference forward pass.

    Raises:
        ReproError: When either disagrees beyond tolerance.
    """
    import numpy as np

    from repro.errors import SimulationError
    from repro.nn.functional import forward, init_weights
    from repro.sim.simulator import simulate_strategy

    rng = np.random.default_rng(seed)
    network = strategy.network
    data = rng.normal(0, 0.5, network.input_spec.shape)
    weights = init_weights(network, np.random.default_rng(seed))
    result = simulate_strategy(strategy, data, weights)
    expected = forward(network, data, weights)
    max_error = float(np.max(np.abs(result.output - expected)))
    if max_error > 1e-6:
        raise SimulationError(
            f"simulator output deviates from the nn.functional reference "
            f"by {max_error:.3e}"
        )
    ratio = result.latency_cycles / max(strategy.latency_cycles, 1)
    low, high = SIM_RATIO_WINDOW
    if not low < ratio < high:
        raise SimulationError(
            f"simulated/analytic latency ratio {ratio:.3f} outside "
            f"({low}, {high}): the cost model and simulator disagree"
        )
    return ratio, max_error


def check_dp_against_oracle(network, device, budget: int) -> int:
    """DP optimizer vs the exhaustive oracle on a small network.

    Returns the shared optimal latency; raises ``ReproError`` when the
    DP misses the oracle's optimum.
    """
    from repro.errors import OptimizationError
    from repro.optimizer.dp import optimize
    from repro.optimizer.exhaustive import exhaustive_optimize

    dp = optimize(network, device, budget)
    oracle = exhaustive_optimize(network, device, budget)
    if dp.latency_cycles != oracle.latency_cycles:
        raise OptimizationError(
            f"DP found {dp.latency_cycles} cycles, exhaustive oracle "
            f"found {oracle.latency_cycles}: the search is no longer optimal"
        )
    return dp.latency_cycles


# -- the doctor --------------------------------------------------------------


def doctor(deep: bool = False, workdir=None) -> DoctorReport:
    """Self-diagnose the whole toolflow on the tiny built-in model.

    Quick level (default, a few seconds): device catalog sanity, a
    compile on the test device, strategy invariants, envelope round-trip
    plus corruption detection, simulator functional + latency
    consistency, a cost-store corruption/self-heal probe, a two-board
    partition with plan invariants and its own round-trip, a DAG
    probe (graph-DP chain degeneracy, branch invariants, graph-simulator
    functional agreement), and a traffic-determinism probe (same spec +
    seed => bit-identical trace digest, stable through the artifact
    round-trip).  Deep level adds the DP-vs-exhaustive-oracle
    equivalence, a short serving smoke run, and the multi-tenant
    degeneracy check (one default tenant == FleetScheduler exactly).
    """
    import tempfile
    from pathlib import Path

    results: List[CheckResult] = []
    state: dict = {}

    def catalog() -> str:
        from repro.check.invariants import verify_fleet_config
        from repro.hardware.device import DEVICES
        from repro.partition.fleet import DeviceFleet

        for name in sorted(DEVICES):
            verify_fleet_config(
                DeviceFleet([DEVICES[name]])
            ).raise_if_failed()
        return f"{len(DEVICES)} devices serviceable"

    def compile_tiny() -> str:
        from repro.nn import models
        from repro.toolflow import compile_model

        result = compile_model(models.tiny_cnn(), device="testchip")
        state["compiled"] = result
        return (
            f"tiny_cnn on testchip: {len(result.strategy.designs)} group(s), "
            f"{result.strategy.latency_cycles:,} cycles"
        )

    def strategy_invariants() -> str:
        from repro.check.invariants import verify_strategy

        verify_strategy(state["compiled"].strategy).raise_if_failed()
        return "resources, cycles, algorithms consistent"

    def artifact_roundtrip() -> str:
        from repro.optimizer.serialize import load_strategy, save_strategy

        strategy = state["compiled"].strategy
        path = Path(state["dir"]) / "doctor_strategy.json"
        save_strategy(strategy, path)
        reloaded = load_strategy(path, strategy.network)
        if reloaded.latency_cycles != strategy.latency_cycles:
            raise ReproError("round-tripped strategy changed cost")
        state["strategy_path"] = path
        return "save -> load preserves the strategy bit-exactly"

    def corruption_detection() -> str:
        from repro.check.artifacts import load_envelope

        path = state["strategy_path"]
        text = path.read_text()
        probes = 0
        for damaged in (
            text[: len(text) // 2],  # truncation
            text.replace('"groups"', '"gruops"', 1),  # field damage
            text.replace("4", "5", 1),  # value damage breaks the checksum
        ):
            probe = Path(state["dir"]) / "doctor_corrupt.json"
            probe.write_text(damaged)
            try:
                load_envelope(probe, expected_kind="strategy")
            except ArtifactError:
                probes += 1
            else:
                raise ReproError(
                    "a corrupted artifact loaded without an ArtifactError"
                )
        return f"{probes}/3 corruption probes rejected with error codes"

    def sim_consistency() -> str:
        ratio, error = check_sim_consistency(state["compiled"].strategy)
        return f"latency ratio {ratio:.2f}, functional error {error:.1e}"

    def cost_store_probe() -> str:
        from repro.dse.store import CostStore
        from repro.hardware.device import get_device
        from repro.nn import models
        from repro.optimizer.dp import optimize
        from repro.perf.cost import EvalContext

        root = Path(state["dir"]) / "doctor_store"
        network = models.tiny_cnn()
        device = get_device("testchip")
        budget = network.feature_map_bytes()
        baseline = optimize(
            network, device, budget, context=EvalContext(store=CostStore(root))
        )
        # Corrupt the log's one record, the baseline's flush of its
        # group entries: the DP reads every range's entry, so the
        # searches re-run and the run's flush compacts the log.
        victim = CostStore(root).log_path
        if not victim.exists():
            raise ReproError("store-backed compile wrote no group entries")
        victim.write_text(
            victim.read_text().replace('"entries"', '"entr!es"', 1)
        )
        try:
            CostStore(root).load_shard(victim)
        except ArtifactError as exc:
            code = exc.code
        else:
            raise ReproError(
                "a corrupted store shard loaded without an ArtifactError"
            )
        # The lookup path must heal around the damage: serve misses,
        # recompute, and compact the log on flush — same cost out.
        recomputed = optimize(
            network, device, budget, context=EvalContext(store=CostStore(root))
        )
        if recomputed.latency_cycles != baseline.latency_cycles:
            raise ReproError("self-healed store changed the strategy cost")
        CostStore(root).load_shard(victim)  # the flush compacted the log
        return f"corrupt shard rejected ({code}), recomputed and healed"

    def partition_checks() -> str:
        from repro.check.invariants import verify_plan
        from repro.nn import models
        from repro.partition.plan import load_plan
        from repro.toolflow import partition_model

        plan = partition_model(
            models.tiny_cnn(), devices="testchip,testchip"
        )
        verify_plan(plan).raise_if_failed()
        path = Path(state["dir"]) / "doctor_plan.json"
        plan.save(path)
        reloaded = load_plan(path, plan.network)
        if reloaded.num_stages != plan.num_stages:
            raise ReproError("round-tripped plan changed shape")
        return (
            f"{plan.num_stages}-stage plan verified and round-tripped"
        )

    def dag_probe() -> str:
        import numpy as np

        from repro.check.invariants import verify_strategy
        from repro.hardware.device import get_device
        from repro.nn import models
        from repro.nn.functional import forward_graph, init_graph_weights
        from repro.nn.graph import Graph
        from repro.optimizer.dp import optimize
        from repro.perf.cost import EvalContext
        from repro.optimizer.graph_dp import optimize_graph
        from repro.sim.simulator import simulate_strategy

        device = get_device("testchip")
        # Chain degeneracy: the graph DP on a linear model must be
        # bit-identical to the chain optimizer.
        network = models.tiny_cnn()
        budget = network.feature_map_bytes()
        chain = optimize(network, device, budget)
        as_graph = optimize_graph(Graph.from_network(network), device, budget)
        if (
            len(as_graph.segments) != 1
            or as_graph.segments[0].kind != "chain"
            or as_graph.segments[0].strategy.boundaries != chain.boundaries
            or as_graph.latency_cycles != chain.latency_cycles
        ):
            raise ReproError(
                "graph DP on a chain diverged from the chain optimizer"
            )
        # Native branch optimization: fork-join model, invariants, and
        # functional agreement between the graph simulator and the
        # nn.functional reference.
        graph = models.tiny_branch()
        strategy = optimize_graph(
            graph, device, graph.feature_map_bytes(device.element_bytes)
        )
        verify_strategy(strategy).raise_if_failed()
        kinds = {segment.kind for segment in strategy.segments}
        if kinds == {"chain"}:
            raise ReproError(
                "branch model optimized without any parallel segment"
            )
        rng = np.random.default_rng(0)
        data = rng.normal(0, 0.5, graph.input_spec.shape)
        weights = init_graph_weights(graph, np.random.default_rng(0))
        sim = simulate_strategy(strategy, data, weights)
        expected = forward_graph(graph, data, weights)
        error = float(np.max(np.abs(sim.output - expected)))
        if error > 1e-6:
            raise ReproError(
                f"graph simulator deviates from forward_graph by {error:.3e}"
            )
        return (
            f"chain degeneracy exact; branch strategy verified, "
            f"functional error {error:.1e}"
        )

    def traffic_probe() -> str:
        from repro.traffic import TrafficTrace, load_trace

        specs = {
            "a": "poisson:mean=5000",
            "b": "mmpp:mean=8000,burst=4",
        }
        first = TrafficTrace.record(specs, num_requests=64, seed=7)
        again = TrafficTrace.record(specs, num_requests=64, seed=7)
        if first.digest() != again.digest():
            raise ReproError(
                "traffic generation is not deterministic: the same spec "
                "and seed produced different digests"
            )
        path = Path(state["dir"]) / "doctor_trace.json"
        first.save(path)
        if load_trace(path).digest() != first.digest():
            raise ReproError("trace round-trip changed the digest")
        other = TrafficTrace.record(specs, num_requests=64, seed=8)
        if other.digest() == first.digest():
            raise ReproError("different seeds produced an identical trace")
        return (
            f"digest {first.digest()[:12]} stable across regeneration "
            f"and round-trip"
        )

    def capacity_degeneracy() -> str:
        from repro.capacity import MultiTenantScheduler
        from repro.serve.scheduler import FleetScheduler, synthetic_arrivals
        import numpy as np

        strategy = state["compiled"].strategy
        single = FleetScheduler.for_strategy(strategy, replicas=2, verify=False)
        arrivals = synthetic_arrivals(
            48,
            single.saturating_interarrival(1.5),
            np.random.default_rng(0),
        )
        expected = single.run(arrivals)
        shared = MultiTenantScheduler.for_strategies(
            {strategy.network.name: strategy}, verify=False, replicas=2
        )
        outcome = shared.run({strategy.network.name: arrivals})
        got = outcome.per_tenant[strategy.network.name]
        if got.records != expected.records or got.failures != expected.failures:
            raise ReproError(
                "a single-tenant MultiTenantScheduler diverged from "
                "FleetScheduler on the same trace"
            )
        return (
            f"single tenant reproduces FleetScheduler bit-exactly "
            f"({len(got.records)} records)"
        )

    def dp_oracle() -> str:
        from repro.hardware.device import get_device
        from repro.nn import models

        network = models.tiny_cnn()
        device = get_device("testchip")
        latency = check_dp_against_oracle(
            network, device, network.feature_map_bytes()
        )
        return f"DP matches the exhaustive oracle at {latency:,} cycles"

    def recovery_probe() -> str:
        import numpy as np

        from repro.nn import models
        from repro.resilience import ResiliencePolicy
        from repro.toolflow import partition_model

        plan = partition_model(
            models.tiny_cnn(), devices="testchip,testchip", verify=False
        )
        policy = ResiliencePolicy(confirm_down_cycles=1e4)
        faults = "crash:replica=0,stage=1,at=20000"

        def run():
            fleet = plan.serve(
                pipelines=1, faults=faults, resilience=policy, verify=False
            )
            return fleet.run_open_loop(
                num_requests=48, load=1.5, rng=np.random.default_rng(0)
            )

        first = run()
        recovery = first.metrics.recovery
        if recovery is None or recovery["rebuilds"] != 1:
            raise ReproError(
                "a confirmed stage death did not trigger exactly one "
                "online re-plan"
            )
        again = run()
        if first.records != again.records or (
            first.metrics.recovery != again.metrics.recovery
        ):
            raise ReproError(
                "recovery is not deterministic: the same fault spec and "
                "seed produced different runs"
            )
        return (
            f"stage crash re-planned once, MTTR "
            f"{recovery['mttr_cycles']:,.0f} cycles, bit-identical rerun"
        )

    def durability() -> str:
        from pathlib import Path

        from repro.check.durability import durability_probe

        return durability_probe(Path(state["dir"]) / "durability")

    def serving_smoke() -> str:
        import numpy as np

        fleet = state["compiled"].serve(replicas=2)
        outcome = fleet.run_open_loop(
            num_requests=40, load=1.5, rng=np.random.default_rng(0)
        )
        metrics = outcome.metrics
        if metrics.requests != 40:
            raise ReproError(
                f"serving smoke completed {metrics.requests}/40 requests"
            )
        return "40/40 requests served on 2 replicas"

    with tempfile.TemporaryDirectory(dir=workdir) as tmp:
        state["dir"] = tmp
        _run("device-catalog", catalog, results)
        if _run("compile", compile_tiny, results) is not None:
            _run("strategy-invariants", strategy_invariants, results)
            if _run("artifact-roundtrip", artifact_roundtrip, results):
                _run("corruption-detection", corruption_detection, results)
            _run("sim-consistency", sim_consistency, results)
        _run("cost-store", cost_store_probe, results)
        _run("partition-plan", partition_checks, results)
        _run("dag-probe", dag_probe, results)
        _run("traffic-determinism", traffic_probe, results)
        _run("recovery-probe", recovery_probe, results)
        _run("durability-probe", durability, results)
        if deep:
            _run("dp-vs-oracle", dp_oracle, results)
            if "compiled" in state:
                _run("serving-smoke", serving_smoke, results)
                _run("capacity-degeneracy", capacity_degeneracy, results)
    return DoctorReport(results, deep=deep)
