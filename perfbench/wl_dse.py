"""Sweep half of ``toolflow``: one grid swept cold, then on the warm store.

Each pass runs ``sweep_grid`` on an empty cost store (every evaluation
is written back), then reruns the same grid on that store (reads only,
zero evaluations).  Points go through the supervised worker pool, the
journal and, for fleet sizes above one, the ``partition`` cut DP.

The grid has no seeded inputs; ``--seed`` only feeds the sweep's fault
seed, which has no effect when no faults are injected.
"""

from __future__ import annotations

import os
import shutil
import time
from pathlib import Path
from typing import Callable, List, Optional

from repro.hardware.device import get_device
from repro.nn import models
from repro.perf.cost import EvalContext
from repro.toolflow import compile_model, sweep_grid

from instrument import collect_shipped, search_metrics
from measure import Checks, Tracer, dir_bytes, geomean, median

MB = 1024 * 1024

#: VGG-E prefix on zc706 at Table 1's 2 MB, on one board and split over
#: two.  Each sweep runs both points at once on two workers, about 1.5 s
#: on a 2-core host.  vc707 points take about 8 s each and are left out
#: so that a run holds several passes.
GRID = {
    "models": ["vgg_e"],
    "devices": ["zc706"],
    "transfer_bytes": [2 * MB],
    "fleet_sizes": [1, 2],
}

#: Sub-second grid for the harness self-test.
TINY_GRID = {
    "models": ["tiny_cnn"],
    "devices": ["testchip"],
    "transfer_bytes": [None],
    "fleet_sizes": [1, 2],
}


def point_latency_mcyc(record: dict) -> float:
    """Modelled single-image latency of one sweep point, in Mcycles."""
    result = record["result"]
    if result["kind"] == "strategy":
        return result["latency_cycles"] / 1e6
    device = get_device(record["point"]["device"])
    return result["latency_seconds"] * device.frequency_hz / 1e6


class DseWorkload:
    def __init__(self, seed: int, workdir: Path, grid: dict = GRID):
        """Set-up: an in-process ``compile_model`` of the grid's first
        single-device point, the reference its sweep record must match."""
        self.seed = seed
        self.workdir = Path(workdir)
        self.grid = grid
        self.workers = min(2, os.cpu_count() or 1)
        self._passes = 0
        model = models.catalog()[grid["models"][0]]()
        self.reference_point = {
            "model": grid["models"][0],
            "device": grid["devices"][0],
            "transfer_bytes": grid["transfer_bytes"][0],
        }
        self.reference = compile_model(
            model, device=grid["devices"][0],
            transfer_constraint_bytes=grid["transfer_bytes"][0],
            context=EvalContext(),
        ).strategy

    def run_pass(self, tracer: Optional[Tracer] = None,
                 before_step: Optional[Callable[[], None]] = None) -> dict:
        self._passes += 1
        root = self.workdir / f"pass{self._passes}"
        steps, sweeps = {}, {}
        for phase in ("cold", "warm"):
            if before_step is not None:
                before_step()
            started = time.perf_counter()
            if tracer is None:
                sweeps[phase] = self._sweep(root, phase)
            else:
                with tracer.span(f"dse.sweep_{phase}"):
                    sweeps[phase] = self._sweep(root, phase)
                    collect_shipped(tracer, sweeps[phase].records)
            steps[phase] = time.perf_counter() - started
        store_bytes = dir_bytes(root / "store")
        shutil.rmtree(root)
        return dict(steps=steps, store_bytes=store_bytes, **sweeps)

    def _sweep(self, root: Path, phase: str):
        return sweep_grid(
            self.grid, root / phase, store=root / "store",
            workers=self.workers, fault_seed=self.seed,
        )

    # -- metrics ---------------------------------------------------------------

    def modelled_latency_mcyc(self, passes: List[dict]) -> float:
        return geomean(point_latency_mcyc(r) for r in passes[0]["cold"].records)

    def layer_metrics(self, traced: List[Tracer], passes: List[dict]) -> dict:
        def med(func):
            return median(func(t, p) for t, p in zip(traced, passes))

        def records(p):
            return p["cold"].records + p["warm"].records

        def elapsed(p):
            return [r["elapsed_s"] for r in records(p)]

        def telemetry_sum(p, key):
            return sum(
                (r["result"].get("telemetry") or {}).get(key, 0)
                for r in records(p)
            )

        def supervision(p, key):
            return sum(p[s].supervision.get(key, 0) for s in ("cold", "warm"))

        def busy(t, p):
            wall = p["steps"]["cold"] + p["steps"]["warm"]
            return sum(elapsed(p)) / (self.workers * wall)

        last = passes[-1]
        metrics = search_metrics(traced)
        metrics.update({
            "dse.sweep_cold_s": med(lambda t, p: p["steps"]["cold"]),
            "dse.sweep_warm_s": med(lambda t, p: p["steps"]["warm"]),
            "dse.point_p50_s": med(lambda t, p: median(elapsed(p))),
            "dse.point_max_s": med(lambda t, p: max(elapsed(p))),
            "dse.worker_busy_ratio": med(busy),
            "dse.store_get_s": med(
                lambda t, p: t.counters.get("dse.store_get_s", 0.0)
            ),
            "dse.store_hit_ratio": last["warm"].store_hit_rate,
            "dse.store_flush_s": med(
                lambda t, p: t.counters.get("dse.store_flush_s", 0.0)
            ),
            "dse.store_bytes": last["store_bytes"],
            "dse.retries": supervision(last, "requeues"),
            "dse.pool_fallbacks": supervision(last, "pool_fallbacks"),
            "partition.s": med(lambda t, p: t.total("partition")),
            "partition.stage_queries": telemetry_sum(
                last, "partition_stage_queries"
            ),
            "partition.cuts": telemetry_sum(last, "partition_cuts_considered"),
        })
        return metrics

    # -- checks ----------------------------------------------------------------

    def check(self, passes: List[dict], checks: Checks,
              reference_pass: Optional[dict] = None) -> dict:
        digest = passes[0]["cold"].records_digest()
        for index, record in enumerate(passes):
            cold, warm = record["cold"], record["warm"]
            for phase, result in (("cold", cold), ("warm", warm)):
                for point in result.records:
                    checks.expect(
                        point["ok"],
                        f"pass {index} {phase}: point {point['point']} "
                        f"failed: {point['error']}",
                    )
            checks.expect(
                warm.records_digest() == cold.records_digest(),
                f"pass {index}: warm sweep results differ from cold",
            )
            checks.expect(
                warm.telemetry.get("evaluations", 0) == 0,
                f"pass {index}: warm sweep ran implement()",
            )
            checks.expect(
                cold.records_digest() == digest,
                f"pass {index}: sweep results differ from pass 0",
            )
            checks.expect(
                self._matches_reference(cold.records),
                f"pass {index}: reference point differs from compile_model",
            )
        if reference_pass is not None:
            checks.expect(
                reference_pass["cold"].records_digest() == digest,
                "traced sweep results differ from the untraced sweep",
            )
        return {}

    def _matches_reference(self, records: List[dict]) -> bool:
        for record in records:
            point = record["point"]
            if record["ok"] and point["fleet_size"] == 1 and all(
                point[key] == value
                for key, value in self.reference_point.items()
            ):
                result = record["result"]
                return (
                    result["latency_cycles"] == self.reference.latency_cycles
                    and result["groups"] == len(self.reference.designs)
                )
        return False
