"""Cost-store and sweep-engine benchmarks: cold vs warm, serial vs pooled.

Two regenerated artifacts:

* ``results/dse_sweep.txt`` — the Figure 5 VGG-E constraint sweep run
  cold (empty store) and warm (second run against the same store):
  wall time, evaluation counts, store hit rate, and the bit-identity
  check between the two strategy sets.
* ``results/dse_sweep_grid.txt`` (heavy) — a multi-device grid through
  the sweep engine with ``workers=2`` vs serial, again asserting
  identical strategies.
"""

from __future__ import annotations

import time

import pytest

from conftest import FIG5_CONSTRAINTS_MB, MB, write_result
from repro.dse.grid import GridSpec
from repro.dse.store import CostStore
from repro.dse.sweep import sweep_grid
from repro.optimizer.dp import optimize_many
from repro.optimizer.serialize import strategy_to_dict
from repro.perf.cost import EvalContext


def test_fig5_sweep_cold_vs_warm_store(vgg_prefix, zc706, tmp_path):
    """The Figure 5 sweep pays its evaluation bill once, ever."""
    budgets = [mb * MB for mb in FIG5_CONSTRAINTS_MB]
    root = tmp_path / "store"

    cold_ctx = EvalContext(store=CostStore(root))
    t0 = time.perf_counter()
    cold = optimize_many(vgg_prefix, zc706, budgets, context=cold_ctx)
    cold_s = time.perf_counter() - t0

    warm_ctx = EvalContext(store=CostStore(root))
    t0 = time.perf_counter()
    warm = optimize_many(vgg_prefix, zc706, budgets, context=warm_ctx)
    warm_s = time.perf_counter() - t0

    assert [strategy_to_dict(s) for s in cold] == [
        strategy_to_dict(s) for s in warm
    ]
    assert warm_ctx.stats.evaluations == 0
    assert warm_ctx.stats.store_hit_rate == 1.0
    # Every fusion[i][j] design is rebuilt from its group entry.
    assert warm_ctx.stats.groups_searched == 0
    stats = CostStore(root).stats()

    lines = [
        "Figure 5 VGG-E sweep through the persistent cost store",
        f"constraints: {', '.join(f'{mb} MB' for mb in FIG5_CONSTRAINTS_MB)}",
        "",
        f"{'run':<6} {'wall (s)':>9} {'evaluations':>12} "
        f"{'store hits':>11} {'hit rate':>9} {'searches':>9}",
        f"{'cold':<6} {cold_s:>9.2f} {cold_ctx.stats.evaluations:>12,} "
        f"{cold_ctx.stats.store_hits:>11,} "
        f"{cold_ctx.stats.store_hit_rate * 100:>8.1f}% "
        f"{cold_ctx.stats.groups_searched:>9,}",
        f"{'warm':<6} {warm_s:>9.2f} {warm_ctx.stats.evaluations:>12,} "
        f"{warm_ctx.stats.store_hits:>11,} "
        f"{warm_ctx.stats.store_hit_rate * 100:>8.1f}% "
        f"{warm_ctx.stats.groups_searched:>9,}",
        "",
        f"store: {stats.entries:,} entries in {stats.shards} log record(s), "
        f"{stats.bytes / 1024:.1f} KB on disk",
        f"warm/cold: {warm_s / cold_s:.2f}x "
        f"(speedup {cold_s / max(warm_s, 1e-9):.1f}x); "
        "strategies bit-identical across runs",
    ]
    write_result("dse_sweep.txt", "\n".join(lines))
    assert warm_s < cold_s


@pytest.mark.heavy
def test_multi_device_grid_parallel_vs_serial(tmp_path):
    """The sweep engine's pool path: same strategies, shared store."""
    spec = GridSpec(
        models=("vgg_e",),
        devices=("zc706", "vc707", "zcu102"),
        transfer_bytes=(2 * MB, 8 * MB, 32 * MB),
    )

    t0 = time.perf_counter()
    serial = sweep_grid(spec, tmp_path / "serial")
    serial_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    pooled = sweep_grid(
        spec, tmp_path / "pooled", store=tmp_path / "store", workers=2
    )
    pooled_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    rerun = sweep_grid(
        spec, tmp_path / "rerun", store=tmp_path / "store", workers=2
    )
    rerun_s = time.perf_counter() - t0

    def bodies(result):
        return [
            {k: v for k, v in (r["result"] or {}).items() if k != "telemetry"}
            for r in result.records
        ]

    assert bodies(serial) == bodies(pooled) == bodies(rerun)
    assert rerun.store_hit_rate >= 0.9

    import os

    lines = [
        f"sweep engine: {spec.num_points}-point grid "
        "(vgg_e x {zc706, vc707, zcu102} x {2, 8, 32} MB)",
        f"host: {os.cpu_count()} CPU core(s) "
        "(pool speedup requires >1)",
        "",
        f"{'run':<22} {'wall (s)':>9} {'store hit rate':>15}",
        f"{'serial, no store':<22} {serial_s:>9.2f} {'-':>15}",
        f"{'workers=2, cold store':<22} {pooled_s:>9.2f} "
        f"{pooled.store_hit_rate * 100:>14.1f}%",
        f"{'workers=2, warm store':<22} {rerun_s:>9.2f} "
        f"{rerun.store_hit_rate * 100:>14.1f}%",
        "",
        "per-point strategies bit-identical across all three runs",
    ]
    write_result("dse_sweep_grid.txt", "\n".join(lines))
