"""The kill-point torture harness: crash-consistency, proven by crashing.

``docs/durability.md`` states a guarantee: *a process killed at any
registered crash point leaves every artifact either fully valid or a
typed, self-healing miss, and rerunning (or ``--resume``-ing) completes
bit-identical to a run that was never interrupted.*  This module is the
machinery that makes the statement falsifiable:

* Four **workloads** cover every file-writing path in the library —
  a plain artifact save, a JSONL journal, a cost-store flush and a full
  inline sweep.  Each knows how to run, how to *verify* the on-disk
  debris a crash leaves (valid, absent, or typed error — never a
  crash), how to *recover* (rerun / resume), and how to digest its
  final state.
* :func:`run_kill_point_matrix` forks a child per (workload, crash
  point), installs a hard ``os._exit`` at the point
  (:mod:`repro.faults.process`), lets the child die there, then
  verifies + recovers in the parent and compares the recovered digest
  against an uninterrupted reference.  Together the workloads pass
  through **every** registered crash point.
* :func:`run_chaos_sweep` is the probabilistic sibling: a multi-worker
  sweep under seeded worker kills and injected EIO must produce
  checksum-equal records to the fault-free sweep, with every
  intervention visible in telemetry.
* :func:`durability_probe` is the seconds-scale subset ``repro doctor``
  runs.

Entry points: ``repro torture`` (CLI), ``doctor(deep=True)``, and the
CI ``torture-smoke`` job.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

from repro.check.artifacts import (
    append_envelope_line,
    load_envelope,
    payload_sha256,
    read_envelope_lines,
    save_artifact,
)
from repro.errors import ArtifactError, ReproError
from repro.faults.process import (
    KILL_EXIT_CODE,
    fork_available,
    registered_crash_points,
    run_to_kill,
)

#: Grid every sweep-backed workload uses: four fast points on the
#: synthetic test device, so each matrix cell stays in seconds.  The two
#: bandwidth factors make two sweep jobs, so the chaos sweep keeps two
#: workers busy at once.
_SWEEP_GRID = {
    "models": ["tiny_cnn"],
    "devices": ["testchip"],
    "bandwidth_factors": [1.0, 2.0],
    "transfer_bytes": [None, 1 << 20],
}


# -- workloads ----------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    """One crash-consistency scenario the matrix tortures.

    Attributes:
        name: Short identifier (``repro torture --workloads``).
        points: The registered crash points this workload passes
            through — the matrix runs it once per point.
        run: Do the work from scratch in a directory (this is what the
            forked child executes and dies inside).
        verify: Inspect the post-crash directory; must *return* (any
            damage shows as absent files or typed errors the caller
            tolerates) — an unexpected exception is a harness failure.
        recover: Finish the work in the same directory (rerun/resume).
        digest: Canonical checksum of the directory's final logical
            state; compared against an uninterrupted run's digest.
    """

    name: str
    points: Sequence[str]
    run: Callable[[Path], None]
    verify: Callable[[Path], None]
    recover: Callable[[Path], None]
    digest: Callable[[Path], str]


def _artifact_run(root: Path) -> None:
    save_artifact(
        root / "artifact.json",
        "sweep_point",
        {"point_id": "torture", "ok": True, "value": 42},
    )


def _artifact_verify(root: Path) -> None:
    path = root / "artifact.json"
    if path.exists():
        # Present implies fully valid: the write was atomic.
        load_envelope(path, expected_kind="sweep_point")
    leftovers = list(root.glob(".artifact.json.*.tmp"))
    # A temp file may survive the kill (the unlink lives in the dying
    # process); it must never be taken for the artifact itself, and a
    # recovery pass may clean it.
    for leftover in leftovers:
        leftover.unlink()


def _artifact_recover(root: Path) -> None:
    _artifact_run(root)


def _artifact_digest(root: Path) -> str:
    return payload_sha256(
        load_envelope(root / "artifact.json", expected_kind="sweep_point").payload
    )


_JOURNAL_IDS = ("alpha", "bravo", "charlie")


def _journal_run(root: Path) -> None:
    for point_id in _JOURNAL_IDS:
        append_envelope_line(
            root / "journal.jsonl",
            "sweep_point",
            {"point_id": point_id, "ok": True},
        )


def _journal_verify(root: Path) -> None:
    # Damaged lines are skipped and counted — never raised.
    read_envelope_lines(root / "journal.jsonl", expected_kind="sweep_point")


def _journal_recover(root: Path) -> None:
    envelopes, _ = read_envelope_lines(
        root / "journal.jsonl", expected_kind="sweep_point"
    )
    done = {e.payload.get("point_id") for e in envelopes}
    for point_id in _JOURNAL_IDS:
        if point_id not in done:
            append_envelope_line(
                root / "journal.jsonl",
                "sweep_point",
                {"point_id": point_id, "ok": True},
            )


def _journal_digest(root: Path) -> str:
    envelopes, _ = read_envelope_lines(
        root / "journal.jsonl", expected_kind="sweep_point"
    )
    # Replay semantics: distinct point ids, first record pinned.
    seen: Dict[str, dict] = {}
    for envelope in envelopes:
        seen.setdefault(envelope.payload["point_id"], envelope.payload)
    return payload_sha256({pid: seen[pid] for pid in sorted(seen)})


def _store_entries():
    """Three one-layer group records, keyed by synthetic group keys."""
    from repro.hardware.resources import ResourceVector
    from repro.perf.cost import GroupKey
    from repro.perf.implement import Algorithm, Implementation

    def impl(name: str, cycles: int) -> Implementation:
        return Implementation(
            layer_name=name,
            algorithm=Algorithm.CONVENTIONAL,
            parallelism=4,
            resources=ResourceVector(bram18k=2, dsp=4, ff=100, lut=200),
            compute_cycles=cycles,
            fill_cycles=10,
            input_bytes=1024,
            output_bytes=1024,
            weight_dram_bytes=4096,
            weights_resident=True,
            ops=cycles * 8,
            line_brams=1,
            weight_brams=1,
            weight_mode=None,
            winograd_m=2,
        )

    return {
        GroupKey(
            layers=(("torture", name),),
            device="torture",
            explore_tile_sizes=False,
            algorithms=None,
        ): (impl(name, cycles),)
        for name, cycles in (("conv1", 1000), ("conv2", 2000), ("conv3", 3000))
    }


def _store_run(root: Path) -> None:
    from repro.dse.store import CostStore

    CostStore(root / "store").put_many(_store_entries())


def _store_verify(root: Path) -> None:
    from repro.dse.store import CostStore

    store = CostStore(root / "store")
    for path in store.shard_paths():
        try:
            store.load_shard(path)
        except ArtifactError:
            pass  # typed and self-healing: exactly the contract
    for key in _store_entries():
        store.get(key)  # hit, miss or healed miss — never a crash


def _store_recover(root: Path) -> None:
    _store_run(root)


def _store_digest(root: Path) -> str:
    from repro.dse.store import CostStore, group_to_dict

    store = CostStore(root / "store")
    found = {}
    for key in _store_entries():
        choices = store.get(key)
        if choices is not None:
            found[repr(key)] = group_to_dict(choices)
    return payload_sha256(found)


def _sweep_run(root: Path) -> None:
    from repro.dse.grid import GridSpec
    from repro.dse.sweep import sweep_grid

    sweep_grid(
        GridSpec.from_dict(_SWEEP_GRID),
        root / "sweep",
        store=root / "store",
        workers=0,
    )


def _sweep_verify(root: Path) -> None:
    from repro.dse.sweep import JOURNAL_NAME, POINT_KIND, RESULTS_KIND

    sweep_dir = root / "sweep"
    read_envelope_lines(sweep_dir / JOURNAL_NAME, expected_kind=POINT_KIND)
    results = sweep_dir / "sweep_results.json"
    if results.exists():
        load_envelope(results, expected_kind=RESULTS_KIND)
    store_root = root / "store"
    if store_root.exists():
        _store_verify_store(store_root)


def _store_verify_store(store_root: Path) -> None:
    from repro.dse.store import CostStore

    store = CostStore(store_root)
    for path in store.shard_paths():
        try:
            store.load_shard(path)
        except ArtifactError:
            pass


def _sweep_recover(root: Path) -> None:
    from repro.dse.grid import GridSpec
    from repro.dse.sweep import sweep_grid

    sweep_grid(
        GridSpec.from_dict(_SWEEP_GRID),
        root / "sweep",
        store=root / "store",
        workers=0,
        resume=True,
    )


def _sweep_digest(root: Path) -> str:
    from repro.dse.sweep import RESULTS_KIND, records_digest

    envelope = load_envelope(
        root / "sweep" / "sweep_results.json", expected_kind=RESULTS_KIND
    )
    return records_digest(envelope.payload["records"])


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="artifact",
            points=("atomic.temp_written", "atomic.synced", "atomic.replaced"),
            run=_artifact_run,
            verify=_artifact_verify,
            recover=_artifact_recover,
            digest=_artifact_digest,
        ),
        Workload(
            name="journal",
            points=("journal.appended", "journal.synced"),
            run=_journal_run,
            verify=_journal_verify,
            recover=_journal_recover,
            digest=_journal_digest,
        ),
        Workload(
            name="cost_store",
            points=("store.flush.locked", "store.flush.shard_written"),
            run=_store_run,
            verify=_store_verify,
            recover=_store_recover,
            digest=_store_digest,
        ),
        Workload(
            name="sweep",
            points=("sweep.point_start", "sweep.point_done", "sweep.journaled"),
            run=_sweep_run,
            verify=_sweep_verify,
            recover=_sweep_recover,
            digest=_sweep_digest,
        ),
    )
}


def uncovered_points() -> List[str]:
    """Registered crash points no workload tortures (must stay empty)."""
    covered = {
        point for workload in WORKLOADS.values() for point in workload.points
    }
    return sorted(set(registered_crash_points()) - covered)


# -- the matrix ---------------------------------------------------------------


@dataclass
class CellResult:
    """One (workload, crash point) torture cell."""

    workload: str
    point: str
    outcome: str  # "killed" | "finished" | "error"
    verified: bool = False
    recovered: bool = False
    digest_equal: bool = False
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return (
            self.outcome in ("killed", "finished")
            and self.verified
            and self.recovered
            and self.digest_equal
        )

    def to_dict(self) -> dict:
        return {
            "workload": self.workload,
            "point": self.point,
            "outcome": self.outcome,
            "verified": self.verified,
            "recovered": self.recovered,
            "digest_equal": self.digest_equal,
            "ok": self.ok,
            "error": self.error,
        }


@dataclass
class TortureReport:
    """Everything one torture run established."""

    cells: List[CellResult] = field(default_factory=list)
    chaos: Optional[dict] = None
    uncovered: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        chaos_ok = self.chaos is None or self.chaos.get("equal", False)
        return (
            all(cell.ok for cell in self.cells)
            and chaos_ok
            and not self.uncovered
        )

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "cells": [cell.to_dict() for cell in self.cells],
            "chaos": self.chaos,
            "uncovered_points": list(self.uncovered),
        }

    def summary(self) -> str:
        lines = [
            f"torture matrix: {len(self.cells)} cell(s), "
            f"{sum(1 for c in self.cells if c.ok)} ok"
        ]
        for cell in self.cells:
            status = "ok" if cell.ok else f"FAILED ({cell.error})"
            lines.append(
                f"  {cell.workload} x {cell.point}: "
                f"{cell.outcome}, {status}"
            )
        if self.uncovered:
            lines.append(
                "UNCOVERED crash points: " + ", ".join(self.uncovered)
            )
        if self.chaos is not None:
            verdict = (
                "checksum-equal to fault-free"
                if self.chaos.get("equal")
                else "DIVERGED from fault-free"
            )
            interventions = self.chaos.get("supervision", {})
            busy = ", ".join(
                f"{count} {name}"
                for name, count in sorted(interventions.items())
                if count
            )
            lines.append(f"chaos sweep: {verdict}" + (f" ({busy})" if busy else ""))
        lines.append("torture: " + ("PASS" if self.ok else "FAIL"))
        return "\n".join(lines)


def _run_cell(workload: Workload, point: str, workdir: Path) -> CellResult:
    cell = CellResult(workload=workload.name, point=point, outcome="error")
    root = workdir / f"{workload.name}-{point.replace('.', '_')}"
    reference_root = workdir / f"{workload.name}-reference"
    try:
        root.mkdir(parents=True, exist_ok=True)
        if not reference_root.exists():
            reference_root.mkdir(parents=True)
            workload.run(reference_root)
        reference = workload.digest(reference_root)
        cell.outcome = run_to_kill(workload.run, point, args=(root,))
        workload.verify(root)
        cell.verified = True
        workload.recover(root)
        cell.recovered = True
        cell.digest_equal = workload.digest(root) == reference
        if not cell.digest_equal:
            cell.error = "recovered state diverged from uninterrupted run"
        elif cell.outcome == "error":
            cell.error = "child failed outside the injected kill"
    except (ReproError, OSError) as exc:
        cell.error = f"{type(exc).__name__}: {exc}"
    return cell


def run_kill_point_matrix(
    workdir: Path,
    workloads: Optional[Sequence[str]] = None,
    log: Optional[Callable[[str], None]] = None,
) -> TortureReport:
    """Torture every (workload, crash point) cell; see module docstring.

    Raises:
        ReproError: Only for harness misuse (unknown workload name);
            workload failures land in the report, not as exceptions.
    """
    emit = log or (lambda _line: None)
    if not fork_available():  # pragma: no cover - POSIX-only guard
        raise ReproError("the kill-point matrix requires fork (POSIX)")
    names = list(workloads) if workloads else list(WORKLOADS)
    unknown = [name for name in names if name not in WORKLOADS]
    if unknown:
        raise ReproError(
            f"unknown torture workload(s): {', '.join(unknown)} "
            f"(known: {', '.join(WORKLOADS)})"
        )
    report = TortureReport(
        uncovered=uncovered_points() if not workloads else []
    )
    workdir = Path(workdir)
    for name in names:
        workload = WORKLOADS[name]
        for point in workload.points:
            emit(f"torturing {name} at {point}...")
            cell = _run_cell(workload, point, workdir)
            emit(
                f"  {cell.outcome}, "
                + ("ok" if cell.ok else f"FAILED: {cell.error}")
            )
            report.cells.append(cell)
    return report


# -- the chaos sweep ----------------------------------------------------------


def run_chaos_sweep(
    workdir: Path,
    workers: int = 2,
    kill_p: float = 0.2,
    eio_p: float = 0.05,
    seed: int = 7,
    max_retries: int = 5,
    log: Optional[Callable[[str], None]] = None,
) -> dict:
    """A multi-worker sweep under kills + EIO vs the fault-free run.

    Returns a dict with both records digests, ``equal``, and the chaos
    run's supervision/telemetry counters — the acceptance check behind
    the CI ``torture-smoke`` job.
    """
    from repro.dse.grid import GridSpec
    from repro.dse.sweep import sweep_grid

    emit = log or (lambda _line: None)
    workdir = Path(workdir)
    spec = GridSpec.from_dict(_SWEEP_GRID)
    emit("running fault-free reference sweep...")
    reference = sweep_grid(
        spec, workdir / "reference", store=workdir / "store_ref",
        workers=workers,
    )
    emit(
        f"running chaos sweep (kill p={kill_p} at sweep.point_start, "
        f"eio p={eio_p}, seed {seed})..."
    )
    chaos = sweep_grid(
        spec,
        workdir / "chaos",
        store=workdir / "store_chaos",
        workers=workers,
        faults=f"kill:p={kill_p},point=sweep.point_start;eio:p={eio_p}",
        fault_seed=seed,
        max_retries=max_retries,
    )
    outcome = {
        "reference_digest": reference.records_digest(),
        "chaos_digest": chaos.records_digest(),
        "equal": reference.records_digest() == chaos.records_digest(),
        "chaos_ok": chaos.ok,
        "supervision": dict(chaos.supervision),
        "telemetry": dict(chaos.telemetry),
    }
    emit(
        "chaos sweep "
        + ("matched the fault-free digest" if outcome["equal"] else "DIVERGED")
    )
    return outcome


# -- the doctor probe ---------------------------------------------------------


def durability_probe(workdir: Path) -> str:
    """Seconds-scale torture subset for ``repro doctor``.

    Kills the artifact and journal workloads at one point each and
    asserts recovery; returns a one-line summary, raises
    :class:`~repro.errors.ReproError` on any failed cell.
    """
    if not fork_available():  # pragma: no cover - POSIX-only guard
        return "skipped (fork unavailable on this platform)"
    cells = [
        _run_cell(WORKLOADS["artifact"], "atomic.synced", Path(workdir)),
        _run_cell(WORKLOADS["journal"], "journal.appended", Path(workdir)),
    ]
    bad = [cell for cell in cells if not cell.ok]
    if bad:
        raise ReproError(
            "; ".join(
                f"{cell.workload} killed at {cell.point}: {cell.error}"
                for cell in bad
            )
        )
    return (
        f"{len(cells)} kill(s) survived: artifacts atomic, journal "
        "self-healing, recovery digest-identical"
    )


def save_torture_report(path, report: TortureReport) -> None:
    """Persist a report as a standard artifact envelope."""
    save_artifact(Path(path), "torture_report", report.to_dict())


__all__ = [
    "KILL_EXIT_CODE",
    "CellResult",
    "TortureReport",
    "WORKLOADS",
    "Workload",
    "durability_probe",
    "run_chaos_sweep",
    "run_kill_point_matrix",
    "save_torture_report",
    "uncovered_points",
]
