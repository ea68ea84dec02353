"""repro.dse — persistent cost store + resumable design-space sweeps.

Two services on top of the single-device optimizer and the partitioner:

* :mod:`repro.dse.store` — a content-addressed, envelope-serialized
  on-disk store of finished ``fusion[i][j]`` searches and their
  engines, shared across processes and sweeps (``repro cache
  {stats,gc,clear}``).
* :mod:`repro.dse.grid` / :mod:`repro.dse.sweep` — declarative sweep
  grids expanded into points, run as jobs of the points that share a
  model, device, bandwidth factor and fleet size (one search context
  each), fanned out over a process pool and journaled per point for
  ``--resume`` (``repro sweep-grid``).

See ``docs/dse.md`` for the full guide.
"""

from repro.dse.grid import GRID_KIND, GridPoint, GridSpec
from repro.dse.store import (
    KEY_VERSION,
    STORE_ENV,
    CostStore,
    CostStoreStats,
    default_store_root,
    key_digest,
    resolve_store,
)
from repro.dse.supervisor import SupervisedPool, SupervisorStats
from repro.dse.sweep import (
    POINT_KIND,
    RESULTS_KIND,
    SweepEngine,
    SweepResult,
    records_digest,
    sweep_grid,
)

__all__ = [
    "GRID_KIND",
    "KEY_VERSION",
    "POINT_KIND",
    "RESULTS_KIND",
    "STORE_ENV",
    "CostStore",
    "CostStoreStats",
    "GridPoint",
    "GridSpec",
    "SupervisedPool",
    "SupervisorStats",
    "SweepEngine",
    "SweepResult",
    "default_store_root",
    "key_digest",
    "records_digest",
    "resolve_store",
    "sweep_grid",
]
