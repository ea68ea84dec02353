"""The parallel, resumable design-space sweep engine.

A sweep expands a :class:`~repro.dse.grid.GridSpec` into
:class:`~repro.dse.grid.GridPoint` objects and runs them as *jobs*: the
points that share a model, device, bandwidth factor and fleet size run
in sequence in one worker on one :class:`~repro.perf.cost.EvalContext`,
whose group memo hands each later point the ``fusion[i][j]`` searches
an earlier one finished, so a job searches each range once, as
:func:`~repro.optimizer.dp.optimize_many` does.  Jobs run through a
supervised ``multiprocessing`` pool with three pieces of shared state:

* the **persistent cost store** (:mod:`repro.dse.store`) of finished
  ``fusion[i][j]`` searches — every job's context recalls the group
  records it holds, each with its engines, and each point flushes the
  searches it ran back, so later jobs (and later *sweeps*) skip
  searches earlier ones already paid for;
* the **journal** — each finished point is appended to
  ``journal.jsonl`` as an independently checksummed envelope line the
  moment its job lands, so a killed sweep resumes with ``--resume``
  computing only the points not journaled (matched by content-derived
  ``point_id``, not position);
* the **results artifact** — when the sweep completes, the full record
  set is written as one ``sweep_results`` envelope.

Records stay per point: each holds its own result, error and
telemetry (what its own calls added to the job's context).  Strategies
produced by a store-backed or ``workers=N`` sweep are bit-identical to
the in-memory single-process path, and to a lone ``optimize`` of each
point: every cached value is a pure function of its key (asserted in
``tests/test_sweep_grid.py``).
"""

from __future__ import annotations

import dataclasses
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Union

from repro.check.artifacts import (
    append_envelope_line,
    payload_sha256,
    read_envelope_lines,
    save_artifact,
)
from repro.dse.grid import GridPoint, GridSpec
from repro.dse.store import CostStore, resolve_store
from repro.dse.supervisor import SupervisedPool
from repro.errors import ArtifactError, ReproError, SweepInterrupted
from repro.faults.process import (
    POINT_SWEEP_DONE,
    POINT_SWEEP_JOURNALED,
    POINT_SWEEP_START,
    ProcessFaultSpec,
    clear_process_faults,
    crash_point,
    derive_seed,
    install_process_faults,
)

#: Artifact kinds of the journal lines and the final results file.
POINT_KIND = "sweep_point"
RESULTS_KIND = "sweep_results"

#: Journal and results file names inside the sweep output directory.
JOURNAL_NAME = "journal.jsonl"
RESULTS_NAME = "sweep_results.json"

#: The store of each sweep this process is running, by root, while it
#: runs.  Inline jobs and the pool's forked workers reuse it through
#: :func:`_job_store`, so each process reads the store's log once and
#: then only the records appended since.
_RUNNING_STORES: Dict[str, CostStore] = {}


def _execute_point(point: GridPoint, context) -> dict:
    """Run one grid point on its job's context; returns its
    JSON-serializable result body, telemetry aside."""
    from repro.hardware.device import get_device
    from repro.hardware.dse import scale_bandwidth
    from repro.nn.models import load_chain
    from repro.optimizer.dp import optimize
    from repro.optimizer.serialize import strategy_to_dict

    network = load_chain(point.model)
    device = get_device(point.device)
    if point.bandwidth_factor != 1.0:
        device = scale_bandwidth(device, point.bandwidth_factor)
    if point.fleet_size == 1:
        transfer = point.transfer_bytes
        if transfer is None:
            transfer = network.feature_map_bytes(device.element_bytes)
        strategy = optimize(network, device, transfer, context=context)
        return {
            "kind": "strategy",
            "latency_cycles": strategy.latency_cycles,
            "latency_seconds": strategy.latency_seconds(),
            "effective_gops": strategy.effective_gops(),
            "groups": len(strategy.designs),
            "strategy": strategy_to_dict(strategy),
        }
    from repro.partition.cut import partition_network
    from repro.partition.fleet import DeviceFleet

    fleet = DeviceFleet.from_spec([device] * point.fleet_size)
    plan = partition_network(
        network,
        fleet,
        transfer_constraint_bytes=point.transfer_bytes,
        context=context,
    )
    return {
        "kind": "partition_plan",
        "stages": plan.num_stages,
        "latency_seconds": plan.latency_seconds,
        "bottleneck_seconds": plan.bottleneck_seconds,
        "effective_gops": plan.effective_gops(),
        "plan": plan.to_dict(),
    }


def run_point_job(job: dict) -> dict:
    """One point of a job -> its journal record payload.

    Takes a dict of the point and the job's shared
    :class:`~repro.perf.cost.EvalContext`.  Every
    :class:`~repro.errors.ReproError` is folded into the record, so one
    infeasible point never fails its job or the sweep.  The record's
    telemetry holds what this point's own calls added to the context,
    its store flush included.
    """
    point = GridPoint.from_dict(job["point"])
    context = job["context"]
    before = dataclasses.replace(context.stats)
    started = time.perf_counter()
    try:
        crash_point(POINT_SWEEP_START)
        result = _execute_point(point, context)
        # The point's result is already computed and correct; a failed
        # write-back only costs future warm starts.  EvalContext
        # degrades itself (counted in its telemetry); the
        # belt-and-braces except covers stores that are not
        # EvalContext-managed.
        try:
            context.flush_store()
            telemetry = context.stats.since(before).to_dict()
        except (OSError, ArtifactError) as exc:
            telemetry = context.stats.since(before).to_dict()
            telemetry["store_flush_errors"] = 1
            telemetry["store_flush_error"] = str(exc)
        result["telemetry"] = telemetry
        crash_point(POINT_SWEEP_DONE)
        ok, error = True, None
    except ReproError as exc:
        result, ok, error = {}, False, str(exc)
    return {
        "point_id": point.point_id,
        "point": point.to_dict(),
        "ok": ok,
        "error": error,
        "result": result,
        "elapsed_s": time.perf_counter() - started,
    }


def run_job(job: dict) -> List[dict]:
    """Pool worker entry: one job's points -> one record per point.

    Takes a plain dict (pickled across the process boundary) of the
    job's points, the store root and an optional
    :class:`~repro.faults.process.ProcessFaultSpec`.  The points share
    a model, device, bandwidth factor and fleet size, and run in
    sequence on one :class:`~repro.perf.cost.EvalContext`, whose group
    memo hands each later point the ranges an earlier one searched.
    The fault seed is derived per ``(job, attempt)``: a retried job
    redraws its fate, so an injected kill costs one requeue, never the
    whole sweep.
    """
    from repro.perf.cost import EvalContext

    points = job["points"]
    store = _job_store(job["store_root"]) if job.get("store_root") else None
    faults: Optional[ProcessFaultSpec] = job.get("faults")
    if faults is not None:
        # A point belongs to one job, so the first names the job.
        job_id = GridPoint.from_dict(points[0]).point_id
        install_process_faults(
            faults,
            seed=derive_seed(
                job.get("fault_seed", 0), job_id, job.get("attempt", 0)
            ),
        )
    context = EvalContext(store=store)
    try:
        return [
            run_point_job({"point": point, "context": context})
            for point in points
        ]
    finally:
        if faults is not None:
            clear_process_faults()


def _job_store(root: str) -> CostStore:
    """The running sweep's store, caught up with other workers'
    appends; a fresh one when no sweep of ``root`` runs here."""
    store = _RUNNING_STORES.get(root)
    if store is None:
        return CostStore(root)
    store.refresh()
    return store


def _worker_failure_records(job: dict, reason: str) -> List[dict]:
    """One journal record per point of a job whose workers kept dying."""
    return [
        {
            "point_id": GridPoint.from_dict(point).point_id,
            "point": point,
            "ok": False,
            "error": f"retries exhausted: {reason}",
            "result": {},
            "elapsed_s": 0.0,
        }
        for point in job["points"]
    ]


def records_digest(records: List[dict]) -> str:
    """Checksum of a sweep's *outcomes*, ignoring how they were reached.

    Strips the volatile fields — wall time, computed-vs-resumed
    provenance, and cache/supervision telemetry — and hashes the rest
    (point identity, ok/error, the full result body).  Two sweeps of
    the same grid agree on this digest iff they produced bit-identical
    results, which is exactly the crash-consistency claim the torture
    harness asserts: a killed-and-resumed or fault-injected sweep must
    digest equal to an undisturbed one.
    """
    stripped = []
    for record in records:
        result = {
            key: value
            for key, value in (record.get("result") or {}).items()
            if key != "telemetry"
        }
        stripped.append(
            {
                "point_id": record.get("point_id"),
                "point": record.get("point"),
                "ok": record.get("ok"),
                "error": record.get("error"),
                "result": result,
            }
        )
    return payload_sha256({"records": stripped})


@dataclass
class SweepResult:
    """Everything one :meth:`SweepEngine.run` produced."""

    spec: GridSpec
    records: List[dict]
    computed: int
    resumed: int
    failed: int
    journal_skipped: int
    elapsed_s: float
    store_root: Optional[str]
    telemetry: Dict[str, int] = field(default_factory=dict)
    #: Duplicate journal lines for already-recorded points (requeued
    #: workers whose first record landed late); ignored on replay.
    journal_duplicates: int = 0
    #: Supervisor interventions (worker deaths, hangs, requeues, ...)
    #: plus engine degradations (pool/journal/store fallbacks).
    supervision: Dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.failed == 0

    def records_digest(self) -> str:
        """Outcome checksum (see :func:`records_digest`)."""
        return records_digest(self.records)

    @property
    def store_hit_rate(self) -> float:
        """Group records the store answered / (those + groups searched)
        across computed points."""
        hits = self.telemetry.get("store_hits", 0)
        total = hits + self.telemetry.get("groups_searched", 0)
        return hits / total if total else 0.0

    def to_dict(self) -> dict:
        return {
            "grid": self.spec.to_dict(),
            "grid_digest": self.spec.digest(),
            "points": len(self.records),
            "computed": self.computed,
            "resumed": self.resumed,
            "failed": self.failed,
            "journal_skipped": self.journal_skipped,
            "journal_duplicates": self.journal_duplicates,
            "records_digest": self.records_digest(),
            "supervision": dict(self.supervision),
            "elapsed_s": self.elapsed_s,
            "store": None
            if self.store_root is None
            else {
                "root": self.store_root,
                "hits": self.telemetry.get("store_hits", 0),
                "misses": self.telemetry.get("groups_searched", 0),
                "hit_rate": self.store_hit_rate,
            },
            "records": self.records,
        }

    def summary(self) -> str:
        lines = [
            f"sweep of {len(self.records)} point(s): "
            f"{self.computed} computed, {self.resumed} resumed, "
            f"{self.failed} failed ({self.elapsed_s:.2f}s)",
        ]
        if self.store_root is not None:
            hits = self.telemetry.get("store_hits", 0)
            searched = self.telemetry.get("groups_searched", 0)
            lines.append(
                f"cost store: {hits:,} group hits / {searched:,} groups "
                f"searched ({self.store_hit_rate * 100:.1f}% warm) at "
                f"{self.store_root}"
            )
        if self.journal_skipped:
            lines.append(
                f"journal: {self.journal_skipped} damaged line(s) skipped "
                "and recomputed"
            )
        if self.journal_duplicates:
            lines.append(
                f"journal: {self.journal_duplicates} duplicate line(s) "
                "ignored on replay"
            )
        interventions = {
            name: count for name, count in self.supervision.items() if count
        }
        if interventions:
            lines.append(
                "supervision: "
                + ", ".join(
                    f"{count} {name}" for name, count in sorted(
                        interventions.items()
                    )
                )
            )
        return "\n".join(lines)


class SweepEngine:
    """Expand a grid, fan its jobs out, journal it, resume it.

    Args:
        spec: The declarative grid.
        out_dir: Directory receiving the journal and results artifact
            (created if missing).
        store: Persistent cost store shared by every worker — a
            :class:`CostStore`, a path, or ``None`` to run memory-only.
        workers: Process-pool width; ``None``/``0``/``1`` runs inline
            (deterministic debugging path, same results).
        faults: Optional :class:`~repro.faults.process.ProcessFaultSpec`
            (or its string grammar) installed *in each worker* — the
            torture harness's handle for killing workers and failing
            their writes mid-sweep.  Inline runs strip the lethal kinds
            (``kill``/``crash``) so the engine process survives.
        fault_seed: Seed the per-(job, attempt) fault draws derive
            from.
        point_timeout_s: Per-job hang budget (the name predates jobs of
            several points); a worker silent this long after picking a
            job up is terminated and the job requeued.  ``None``
            disables hang detection.
        max_retries: Requeues per job after worker deaths/hangs before
            each of its points is recorded as failed.
    """

    def __init__(
        self,
        spec: GridSpec,
        out_dir: Union[str, Path],
        store: Union[CostStore, str, Path, None] = None,
        workers: Optional[int] = None,
        faults: Union[ProcessFaultSpec, str, None] = None,
        fault_seed: int = 0,
        point_timeout_s: Optional[float] = None,
        max_retries: int = 2,
    ):
        self.spec = spec
        self.out_dir = Path(out_dir)
        self.store = resolve_store(store)
        self.workers = workers
        if isinstance(faults, str):
            faults = ProcessFaultSpec.parse(faults)
        self.faults = faults if faults and not faults.empty else None
        self.fault_seed = fault_seed
        self.point_timeout_s = point_timeout_s
        self.max_retries = max_retries
        self.journal_path = self.out_dir / JOURNAL_NAME
        self.results_path = self.out_dir / RESULTS_NAME
        #: Engine-side degradations of the current/last run.
        self.degradations: Dict[str, int] = {}
        self._supervision: Dict[str, int] = {}

    # -- journal -------------------------------------------------------------

    def completed_records(self) -> tuple:
        """Journaled results keyed by point id: ``(records, skipped,
        duplicates)``.

        Replay is idempotent: when several journal lines claim the same
        ``point_id`` (a requeued point whose first worker's record
        landed late, or a re-run appending over an old journal), the
        first *successful* record is pinned — later duplicates are
        counted, never double-counted or allowed to flip a completed
        point back to failed.  A failed record is superseded by a later
        success (the retry that worked).
        """
        envelopes, skipped = read_envelope_lines(
            self.journal_path, expected_kind=POINT_KIND
        )
        records: Dict[str, dict] = {}
        duplicates = 0
        for envelope in envelopes:
            payload = envelope.payload
            point_id = payload.get("point_id")
            if not isinstance(point_id, str) or payload.get("ok") is None:
                continue
            existing = records.get(point_id)
            if existing is not None:
                duplicates += 1
                if existing.get("ok"):
                    continue
            records[point_id] = payload
        return records, skipped, duplicates

    def _journal(self, record: dict) -> None:
        """Append one record, riding out transient write errors.

        The journal is an optimization (resume granularity), not the
        result of record; a full disk must degrade the sweep to
        coarser resumability, not kill it.  Three attempts, then count
        the loss and warn once.
        """
        for attempt in range(3):
            try:
                append_envelope_line(self.journal_path, POINT_KIND, record)
                return
            except OSError as exc:
                last_error = exc
                time.sleep(0.05 * (attempt + 1))
        if not self.degradations.get("journal_write_errors"):
            warnings.warn(
                f"sweep journal write failed ({last_error}); the sweep "
                "continues but --resume will recompute the affected "
                "point(s)",
                RuntimeWarning,
                stacklevel=2,
            )
        self.degradations["journal_write_errors"] = (
            self.degradations.get("journal_write_errors", 0) + 1
        )

    # -- running -------------------------------------------------------------

    def run(
        self,
        resume: bool = False,
        log: Optional[Callable[[str], None]] = None,
    ) -> SweepResult:
        """Run (or finish) the sweep.

        With ``resume`` the existing journal is honored: completed
        points are reported from their journaled records and only the
        remainder is computed.  Without it any prior journal is
        discarded and every point recomputes (a warm cost store still
        accelerates that).
        """
        emit = log or (lambda _line: None)
        started = time.perf_counter()
        points = self.spec.expand()
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.degradations = {}
        self._supervision = {}

        done: Dict[str, dict] = {}
        journal_skipped = 0
        journal_duplicates = 0
        if resume:
            done, journal_skipped, journal_duplicates = self.completed_records()
            # Keep only successful records for points still in the grid;
            # failed points get another chance.
            grid_ids = {point.point_id for point in points}
            done = {
                pid: record
                for pid, record in done.items()
                if pid in grid_ids and record.get("ok")
            }
        elif self.journal_path.exists():
            self.journal_path.unlink()

        pending = [p for p in points if p.point_id not in done]
        if done:
            emit(f"resuming: {len(done)} point(s) already journaled")
        if pending:
            emit(
                f"computing {len(pending)} point(s)"
                + (f" on {self.workers} workers" if self._pool_size() else "")
            )

        computed: Dict[str, dict] = {}
        try:
            for record in self._run_pending(pending):
                self._journal(record)
                crash_point(POINT_SWEEP_JOURNALED)
                computed[record["point_id"]] = record
                point = GridPoint.from_dict(record["point"])
                status = "ok" if record["ok"] else f"FAILED: {record['error']}"
                emit(
                    f"  {point.describe()}: {status} "
                    f"({record['elapsed_s']:.2f}s)"
                )
        except KeyboardInterrupt:
            # The journal already holds every finished point (flushed
            # line by line); surface the resumable state as a typed,
            # one-line error instead of a traceback.  _run_pending's
            # finally block has torn the pool down by the time the
            # exception propagates here.
            raise SweepInterrupted(
                f"sweep interrupted: {len(done) + len(computed)} of "
                f"{len(points)} point(s) journaled in {self.out_dir}; "
                "re-run with --resume to finish"
            ) from None

        records = []
        telemetry: Dict[str, int] = {"evaluations": 0, "store_hits": 0,
                                     "cache_hits": 0, "groups_searched": 0,
                                     "store_degraded": 0,
                                     "store_flush_errors": 0}
        failed = 0
        for point in points:
            record = computed.get(point.point_id)
            if record is not None:
                record = dict(record, source="computed")
                stats = record.get("result", {}).get("telemetry") or {}
                for counter in telemetry:
                    value = stats.get(counter)
                    if isinstance(value, int):
                        telemetry[counter] += value
            else:
                record = dict(done[point.point_id], source="resumed")
            if not record.get("ok"):
                failed += 1
            records.append(record)

        supervision = dict(self._supervision)
        for name, count in self.degradations.items():
            supervision[name] = supervision.get(name, 0) + count
        result = SweepResult(
            spec=self.spec,
            records=records,
            computed=len(computed),
            resumed=len(records) - len(computed),
            failed=failed,
            journal_skipped=journal_skipped,
            elapsed_s=time.perf_counter() - started,
            store_root=str(self.store.root) if self.store else None,
            telemetry=telemetry,
            journal_duplicates=journal_duplicates,
            supervision=supervision,
        )
        save_artifact(
            self.results_path,
            RESULTS_KIND,
            result.to_dict(),
            digests={"grid": self.spec.digest()},
        )
        return result

    def _pool_size(self) -> int:
        """Worker processes to use; 0 means run inline."""
        if self.workers is None or self.workers <= 1:
            return 0
        return self.workers

    def _worker_faults(self, pooled: bool) -> Optional[ProcessFaultSpec]:
        """The fault spec one executed job sees.

        Inline execution shares the engine's process, so the lethal
        fault kinds (hard kills, crash points) are stripped — they are
        meaningful only where a supervisor can requeue the loss.
        """
        if self.faults is None:
            return None
        if pooled:
            return self.faults
        softened = dataclasses.replace(self.faults, kill_p=0.0, crash_at=None)
        return softened if not softened.empty else None

    def _run_pending(self, pending: List[GridPoint]):
        """Yield one journal record per pending point (pool or inline);
        a job's records land together."""
        size = self._pool_size()
        pooled = size > 0
        if pooled:
            try:
                import multiprocessing

                ctx = multiprocessing.get_context("fork")
            except (ImportError, ValueError, OSError) as exc:
                # No usable pool on this platform: degrade to the
                # inline path (same results, longer wall clock).
                warnings.warn(
                    f"worker pool unavailable ({exc}); sweeping inline",
                    RuntimeWarning,
                    stacklevel=2,
                )
                self.degradations["pool_fallbacks"] = 1
                pooled = False
        jobs = [
            {
                "points": [point.to_dict() for point in points],
                "store_root": str(self.store.root) if self.store else None,
                "faults": self._worker_faults(pooled),
                "fault_seed": self.fault_seed,
                "attempt": 0,
            }
            for points in _group_jobs(pending)
        ]
        if not jobs:
            return
        if self.store is not None:
            _RUNNING_STORES[str(self.store.root)] = self.store
        try:
            if not pooled:
                for job in jobs:
                    yield from run_job(job)
                return
            pool = SupervisedPool(
                run_job,
                workers=min(size, len(jobs)),
                mp_context=ctx,
                timeout_s=self.point_timeout_s,
                max_retries=self.max_retries,
                on_exhausted=_worker_failure_records,
            )
            try:
                # Records land in completion order; the journal
                # tolerates any order and the results list is
                # re-assembled in grid order, so supervision never
                # affects the artifact.
                for records in pool.run(jobs):
                    yield from records
            finally:
                self._supervision = pool.stats.to_dict()
        finally:
            if self.store is not None:
                _RUNNING_STORES.pop(str(self.store.root), None)


def _group_jobs(points: List[GridPoint]) -> List[List[GridPoint]]:
    """The sweep's jobs: points grouped by all but the transfer budget,
    in grid order."""
    jobs: Dict[tuple, List[GridPoint]] = {}
    for point in points:
        key = (point.model, point.device, point.bandwidth_factor,
               point.fleet_size)
        jobs.setdefault(key, []).append(point)
    return list(jobs.values())


def sweep_grid(
    spec: GridSpec,
    out_dir: Union[str, Path],
    store: Union[CostStore, str, Path, None] = None,
    workers: Optional[int] = None,
    resume: bool = False,
    log: Optional[Callable[[str], None]] = None,
    faults: Union[ProcessFaultSpec, str, None] = None,
    fault_seed: int = 0,
    point_timeout_s: Optional[float] = None,
    max_retries: int = 2,
) -> SweepResult:
    """One-call front end (what ``repro sweep-grid`` and
    :func:`repro.toolflow.sweep_grid` invoke)."""
    engine = SweepEngine(
        spec,
        out_dir,
        store=store,
        workers=workers,
        faults=faults,
        fault_seed=fault_seed,
        point_timeout_s=point_timeout_s,
        max_retries=max_retries,
    )
    return engine.run(resume=resume, log=log)
