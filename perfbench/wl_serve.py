"""``serve`` workload: seeded open-loop traffic replayed on simulated fleets.

Set-up compiles the main model and a second tenant and partitions the
main model over two boards; that time counts in ``setup_s``.  A timed
pass then replays, all on the virtual clock:

* a flat ``FleetScheduler`` of 4 replicas at loads 2.0, 3.2 and 3.8;
* a ``PipelineFleetScheduler`` with 2 pipelines of the partition plan;
* a ``MultiTenantScheduler`` (weighted fair queueing) with both models;
* a chaos run (5% transient faults plus a brownout) under the
  resilience control plane;
* a bisection for the sustained rate: the highest load whose p99 stays
  within 20x the single-image latency without a growing backlog.

Host time here is all in serve, capacity, resilience and traffic; the
optimizer does no work in a pass.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, List, Optional

from repro.capacity.multitenant import MultiTenantResult, MultiTenantScheduler
from repro.nn import models
from repro.resilience import ResiliencePolicy
from repro.serve.scheduler import FleetScheduler
from repro.sim.simulator import build_service_model
from repro.toolflow import compile_model, partition_model
from repro.traffic import TrafficTrace

from measure import Checks, Tracer, geomean, median

REPLICAS = 4
MAX_BATCH = 8
FLAT_LOADS = (2.0, 3.2, 3.8)
#: The flat load whose p99 is the workload's modelled latency.
P99_LOAD = 3.2
PIPELINES = 2
PIPELINE_LOAD = 1.6
#: Offered load of the main tenant in the multi-tenant run; the second
#: tenant's requests arrive four times as often.
TENANT_LOAD = 2.4
CHAOS_LOAD = 3.2
CHAOS_MAX_QUEUE = 4 * MAX_BATCH
#: p99 limit of the sustained-rate search, in single-image latencies.
SLO_FACTOR = 20
BISECT_STEPS = 8


@dataclass(frozen=True)
class ServeSuite:
    device: str
    main: Callable  # returns the main model
    tenant: Callable  # returns the second tenant's model
    flat_requests: int
    pipeline_requests: int
    tenant_requests: int  # per tenant
    chaos_requests: int
    bisect_requests: int  # per bisection step


SUITE = ServeSuite(
    device="zc706",
    main=models.vgg_fused_prefix,
    tenant=models.tiny_cnn,
    flat_requests=20_000,
    pipeline_requests=20_000,
    tenant_requests=15_000,
    chaos_requests=20_000,
    bisect_requests=4_000,
)

TINY_SUITE = ServeSuite(
    device="testchip",
    main=models.tiny_cnn,
    tenant=lambda: models.tiny_cnn(8, 8),
    flat_requests=300,
    pipeline_requests=300,
    tenant_requests=200,
    chaos_requests=300,
    bisect_requests=100,
)


def backlog_bounded(metrics, offered: int, span_cycles: float) -> bool:
    """Whether completions keep pace with an open-loop arrival stream.

    A growing backlog shows as a makespan much longer than the arrival
    span: the fleet drains at a lower rate than requests arrive.
    """
    return metrics.requests == offered and (
        metrics.makespan_cycles <= 1.05 * span_cycles
        + SLO_FACTOR * metrics.single_image_cycles
    )


def records_digest(records) -> str:
    return hashlib.sha256(repr(records).encode()).hexdigest()


def _metrics_of(result):
    """``ServingMetrics`` of a run; per tenant for a multi-tenant run."""
    if isinstance(result, MultiTenantResult):
        return {
            "tenants": {
                name: run.metrics for name, run in result.per_tenant.items()
            },
            "swaps": result.swaps,
        }
    return result.metrics


class ServeWorkload:
    name = "serve"

    def __init__(self, seed: int, workdir: Path, suite: ServeSuite = SUITE):
        self.seed = seed
        self.suite = suite
        main, tenant = suite.main(), suite.tenant()
        self.main_name, self.tenant_name = main.name, f"{tenant.name}_tenant"
        self.main = compile_model(main, device=suite.device).strategy
        self.tenant = compile_model(tenant, device=suite.device).strategy
        self.plan = partition_model(
            suite.main(), devices=f"{suite.device},{suite.device}"
        )
        self.floor = build_service_model(self.main).single_image_cycles
        self.slo = SLO_FACTOR * self.floor

    def _flat(self, **kwargs) -> FleetScheduler:
        return FleetScheduler.for_strategy(
            self.main, replicas=REPLICAS, max_batch=MAX_BATCH, **kwargs
        )

    def _chaos_spec(self) -> str:
        """5% transient faults plus replica 1 at half speed for the
        first half of the offered trace."""
        gap = self._flat().saturating_interarrival(CHAOS_LOAD)
        half = 0.5 * gap * self.suite.chaos_requests
        return f"transient:p=0.05;brownout:replica=1,at=0,for={half:.0f},scale=2"

    # -- passes ----------------------------------------------------------------

    def run_pass(self, tracer: Optional[Tracer] = None,
                 before_step: Optional[Callable[[], None]] = None) -> dict:
        suite, seed = self.suite, self.seed
        steps, runs = {}, {}

        def timed(step, func):
            if before_step is not None:
                before_step()
            started = time.perf_counter()
            if tracer is None:
                value = func()
            else:
                with tracer.span(f"serve.{step.split('@')[0]}", step=step):
                    value = func()
            steps[step] = time.perf_counter() - started
            return value

        for load in FLAT_LOADS:
            runs[f"flat@{load}"] = timed(
                f"flat@{load}",
                lambda: self._flat().run_open_loop(
                    suite.flat_requests, load=load, seed=seed
                ),
            )
        runs["pipeline"] = timed(
            "pipeline",
            lambda: self.plan.serve(
                pipelines=PIPELINES, max_batch=MAX_BATCH
            ).run_open_loop(suite.pipeline_requests, load=PIPELINE_LOAD,
                            seed=seed),
        )
        runs["multitenant"] = timed("multitenant", self._multitenant)
        runs["chaos"] = timed(
            "chaos",
            lambda: self._flat(
                faults=self._chaos_spec(), fault_seed=seed,
                resilience=ResiliencePolicy(), max_queue=CHAOS_MAX_QUEUE,
                slo_cycles=self.slo,
            ).run_open_loop(suite.chaos_requests, load=CHAOS_LOAD, seed=seed),
        )
        runs["bisect"] = timed("bisect", self._sustained_load)
        # Keep metrics only: holding every pass's request records would
        # grow the heap, and with it the interpreter's collection cost,
        # from pass to pass.
        digest = records_digest(runs[f"flat@{P99_LOAD}"].records)
        runs = {
            name: run if name == "bisect" else _metrics_of(run)
            for name, run in runs.items()
        }
        return {"steps": steps, "runs": runs, "digest": digest}

    def _multitenant(self):
        gap = self._flat().saturating_interarrival(TENANT_LOAD)
        trace = TrafficTrace.record(
            {
                self.main_name: f"poisson:mean={gap:.3f}",
                self.tenant_name: f"poisson:mean={gap / 4:.3f}",
            },
            num_requests=self.suite.tenant_requests,
            seed=self.seed,
        )
        fleet = MultiTenantScheduler.for_strategies(
            {self.main_name: self.main, self.tenant_name: self.tenant},
            replicas=REPLICAS, max_batch=MAX_BATCH, sharing="weighted_fair",
        )
        return fleet.run(trace.arrivals(), arrival_meta=trace.arrival_meta())

    def _sustained_load(self) -> dict:
        """Bisect the highest flat load meeting the p99 limit."""
        low, high = 0.0, float(REPLICAS)
        probes = []
        for _ in range(BISECT_STEPS):
            load = (low + high) / 2
            fleet = self._flat()
            result = fleet.run_open_loop(
                self.suite.bisect_requests, load=load, seed=self.seed
            )
            metrics = result.metrics
            span = fleet.saturating_interarrival(load) * (
                self.suite.bisect_requests - 1
            )
            good = metrics.p99_latency_cycles <= self.slo and backlog_bounded(
                metrics, self.suite.bisect_requests, span
            )
            probes.append((load, good, metrics))
            if good:
                low = load
            else:
                high = load
        gap = self._flat().saturating_interarrival(low) if low else None
        return {
            "load": low,
            "rps": self.main.device.frequency_hz / gap if gap else 0.0,
            "probes": probes,
        }

    # -- metrics ---------------------------------------------------------------

    def modelled_latency_mcyc(self, passes: List[dict]) -> float:
        return passes[0]["runs"][f"flat@{P99_LOAD}"].p99_latency_cycles / 1e6

    def requests_in_pass(self) -> int:
        suite = self.suite
        return (
            len(FLAT_LOADS) * suite.flat_requests
            + suite.pipeline_requests
            + 2 * suite.tenant_requests
            + suite.chaos_requests
            + BISECT_STEPS * suite.bisect_requests
        )

    def layer_metrics(self, traced: List[Tracer], passes: List[dict]) -> dict:
        def med(func):
            return median(func(t, p) for t, p in zip(traced, passes))

        def flat_s(t, p):
            return sum(p["steps"][f"flat@{load}"] for load in FLAT_LOADS)

        def batches(p):
            return sum(
                s.batches
                for load in FLAT_LOADS
                for s in p["runs"][f"flat@{load}"].replica_stats
            )

        last = passes[-1]["runs"]
        p99_run = last[f"flat@{P99_LOAD}"]
        chaos = last["chaos"]
        recovery = chaos.recovery or {}
        return {
            "traffic.gen_s": med(lambda t, p: t.total("traffic.gen")),
            "serve.flat.host_s": med(flat_s),
            "serve.pipeline.host_s": med(lambda t, p: p["steps"]["pipeline"]),
            "serve.multitenant.host_s": med(
                lambda t, p: p["steps"]["multitenant"]
            ),
            "serve.chaos.host_s": med(lambda t, p: p["steps"]["chaos"]),
            "serve.bisect.host_s": med(lambda t, p: p["steps"]["bisect"]),
            "serve.host_us_per_batch": med(
                lambda t, p: flat_s(t, p) / batches(p) * 1e6
            ),
            "serve.host_kreq_per_s": med(
                lambda t, p: self.requests_in_pass()
                / sum(p["steps"].values()) / 1e3
            ),
            "serve.mean_batch": p99_run.mean_batch_size,
            "serve.replica_busy_ratio": sum(
                s.utilization(p99_run.makespan_cycles)
                for s in p99_run.replica_stats
            ) / len(p99_run.replica_stats),
            "serve.p99_mcyc": p99_run.p99_latency_cycles / 1e6,
            "serve.sustained_rps": last["bisect"]["rps"],
            "serve.chaos_goodput_rps": chaos.goodput_per_second,
            "capacity.swaps": last["multitenant"]["swaps"],
            "resilience.events": len(recovery.get("events", ())),
            "resilience.ladder_steps": recovery.get("ladder_steps", 0),
        }

    # -- checks ----------------------------------------------------------------

    def check(self, passes: List[dict], checks: Checks,
              reference_pass: Optional[dict] = None) -> dict:
        suite = self.suite
        offered = {f"flat@{load}": suite.flat_requests for load in FLAT_LOADS}
        offered.update(
            pipeline=suite.pipeline_requests, chaos=suite.chaos_requests
        )
        for index, record in enumerate(passes):
            runs = record["runs"]
            for name, expected in offered.items():
                metrics = runs[name]
                checks.expect(
                    metrics.requests + metrics.failed + metrics.shed == expected,
                    f"pass {index} {name}: completed + failed + shed "
                    f"!= {expected} offered",
                )
            for tenant, metrics in runs["multitenant"]["tenants"].items():
                checks.expect(
                    metrics.requests + metrics.failed + metrics.shed
                    == suite.tenant_requests,
                    f"pass {index} multitenant {tenant}: requests lost",
                )
            for load, _, metrics in runs["bisect"]["probes"]:
                checks.expect(
                    metrics.requests + metrics.failed + metrics.shed
                    == suite.bisect_requests,
                    f"pass {index} bisect@{load:.3f}: requests lost",
                )
            checks.expect(
                runs["bisect"]["load"] > 0,
                f"pass {index}: no load meets the p99 limit",
            )
        # A rerun of one scenario must reproduce its records bit for bit.
        key = f"flat@{P99_LOAD}"
        rerun = records_digest(self._flat().run_open_loop(
            suite.flat_requests, load=P99_LOAD, seed=self.seed
        ).records)
        for index, record in enumerate(passes):
            checks.expect(
                record["digest"] == rerun,
                f"pass {index} {key}: records differ on a rerun",
            )
        if reference_pass is not None:
            checks.expect(
                reference_pass["digest"] == rerun,
                f"untraced {key}: records differ from the traced run",
            )
        return {}

    def tables(self, traced: List[Tracer]) -> dict:
        return {}
