"""Persistent, content-addressed store of finished ``fusion[i][j]`` searches.

The paper's Algorithm 1 reads a ``fusion[i][j]`` table that Algorithm 2
generates offline.  This module keeps that table's cells across
processes: one *group record* per completed search, keyed by
:class:`~repro.perf.cost.GroupKey` (the range's layer signatures, the
device subset the search reads, the tile switch and the algorithm set),
holding the :class:`~repro.perf.implement.Implementation` of every
engine the search chose.  A warm run looks a range up, relabels the
recalled engines with its own layer names and composes the group; it
neither searches nor calls the cost model.  ``implement()`` results
themselves stay in the process's :class:`~repro.perf.cost.EvalContext`:
they are the search's working memo, cheap to recompute and never read
by a run whose ranges are all recalled.

Layout and discipline:

* **Keys.** A :class:`GroupKey` is built from frozen dataclasses, enums,
  tuples and ints whose ``repr`` is deterministic across processes (no
  memory addresses, no hash randomization), so the store addresses
  entries by the SHA-256 of that canonical text, salted with
  :data:`KEY_VERSION` and :data:`SEARCH_VERSION`.  Bumping either
  invalidates every stale entry at once.
* **One append-only log.** Entries live in ``<root>/log.jsonl``, one
  record per line.  A record is a standard :mod:`repro.check` artifact
  envelope of kind ``cost_store_shard`` (versioned, checksummed) whose
  payload is ``{"key_version", "entries": {digest: {key, created,
  group}}}``.  A flush appends one record and ``fsync``s it, so
  its cost follows the entries it writes, not the size of the store.
  Records apply in file order; a key written twice holds the same
  engines both times (up to the layer names a recall replaces), since
  a search's choice is a pure function of its key.  A record of
  another ``key_version`` is skipped, so a store written before records
  held engines (``key_version`` 1, with per-point entries) starts cold
  once instead of reading as damaged, and its next flush compacts the
  stale records away.  A truncated or bit-flipped
  record surfaces as a typed
  :class:`~repro.errors.ArtifactError` from :meth:`CostStore.load_shard`,
  never as a ``KeyError`` deep in a search.
* **Self-healing.** The lookup path (:meth:`CostStore.get`) reads the
  log once per store object and treats a damaged record or entry as a
  *miss*, counts it, and lets the search re-run.  A run that met a
  damaged or stale record compacts the log at its next flush: it re-reads the
  log under the lock, drops damaged and stale records, merges its own
  entries and replaces the file atomically.  Corruption costs time,
  never correctness.
* **Concurrency.** One ``flock`` on ``<root>/log.lock`` serializes
  appends and compactions across processes; each writer opens the log
  only once it holds the lock, so no append lands in a file a
  compaction has already replaced.  Readers take the lock shared, so a
  half-written append is never mistaken for damage.
  :meth:`CostStore.refresh` adds what other processes appended since a
  store's last read, reading only the new bytes.
* **Hygiene.** :meth:`CostStore.stats`, :meth:`CostStore.gc` (age- and
  count-bounded eviction with compaction) and :meth:`CostStore.clear`
  back the ``repro cache {stats,gc,clear}`` CLI.  Stores written in the
  older layout of 256 rewritten shard files (``<root>/shards/`` and
  ``<root>/locks/``) are never read, so they start cold once; ``gc``
  and ``clear`` delete that tree.
"""

from __future__ import annotations

import errno
import hashlib
import os
import shutil
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Hashable, List, Mapping, Optional, Tuple, Union

from repro.check.artifacts import (
    E_FIELD_VALUE,
    E_IO,
    E_LOCK,
    append_envelope_line,
    atomic_write_text,
    envelope_line,
    parse_envelope_bytes,
    require,
    require_enum,
)
from repro.errors import ArtifactError, ArtifactIntegrityError, ArtifactSchemaError
from repro.faults.process import (
    POINT_STORE_LOCKED,
    POINT_STORE_SHARD_WRITTEN,
    crash_point,
)
from repro.hardware.resources import ResourceVector
from repro.perf.cost import GroupChoices, GroupKey
from repro.perf.implement import Algorithm, Implementation, WeightMode

try:  # pragma: no cover - POSIX; the spin-lock fallback covers the rest
    import fcntl
except ImportError:  # pragma: no cover
    fcntl = None  # type: ignore[assignment]

#: Artifact kind of one log record.
SHARD_KIND = "cost_store_shard"

#: The log of records and the lock file that serializes its writers,
#: both directly under the store root.
LOG_NAME = "log.jsonl"
LOCK_NAME = "log.lock"

#: Directories of the older 256-shard layout; never read, deleted by
#: ``gc`` and ``clear``.
LEGACY_DIRS = ("shards", "locks")

#: Version salt of the key derivation *and* the entry payload layout.
#: Bump whenever ``implement()`` changes behaviour or the
#: :class:`Implementation` fields or the record layout change: every
#: older entry is then unreachable (a different digest, and its
#: record is skipped), so a stale store can never feed a drifted
#: engine back into a design.  Version 2 is the first whose records
#: hold only finished searches with their engines.
KEY_VERSION = 2

#: Second salt of every key.  Bump whenever the search's menus, its
#: DFS order or :func:`~repro.perf.group.compose_group` change: a
#: completed search returns the first optimal leaf in DFS order, so
#: those are what a stored choice depends on beyond ``implement()``.
SEARCH_VERSION = 1

#: Environment variable overriding the default store location.
STORE_ENV = "REPRO_COST_CACHE"

#: Lock acquisition attempts before giving up with ``E_LOCK``.
LOCK_ATTEMPTS = 5

#: Base backoff between lock attempts (doubles each retry).
LOCK_BACKOFF_S = 0.05

#: ``flock`` errnos meaning "this filesystem cannot lock" (NFS without
#: lockd, some overlay/network mounts) — permanent, so retrying is
#: pointless; the store degrades to lockless writes instead.
_FLOCK_UNSUPPORTED = {
    getattr(errno, name)
    for name in ("ENOTSUP", "EOPNOTSUPP", "ENOSYS", "EINVAL")
    if hasattr(errno, name)
}


def default_store_root() -> Path:
    """The default on-disk location (``$REPRO_COST_CACHE`` or
    ``~/.cache/repro/cost_store``)."""
    env = os.environ.get(STORE_ENV)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro" / "cost_store"


def stable_key_text(key: Hashable) -> str:
    """Deterministic textual form of a :class:`GroupKey`.

    The key is built from frozen dataclasses, enums, strings and ints —
    all of which ``repr`` identically in every process — so this text is
    a portable identity where Python's salted ``hash()`` is not.
    """
    return repr(key)


def key_digest(key: Hashable) -> str:
    """Content address of one entry: SHA-256 of the salted key text."""
    text = f"v{KEY_VERSION}:s{SEARCH_VERSION}:{stable_key_text(key)}"
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# -- Implementation <-> JSON -------------------------------------------------


def implementation_to_dict(impl: Implementation) -> dict:
    """JSON-serializable record of one evaluated engine."""
    return {
        "layer_name": impl.layer_name,
        "algorithm": impl.algorithm.value,
        "parallelism": impl.parallelism,
        "resources": impl.resources.as_dict(),
        "compute_cycles": impl.compute_cycles,
        "fill_cycles": impl.fill_cycles,
        "input_bytes": impl.input_bytes,
        "output_bytes": impl.output_bytes,
        "weight_dram_bytes": impl.weight_dram_bytes,
        "weights_resident": impl.weights_resident,
        "ops": impl.ops,
        "line_brams": impl.line_brams,
        "weight_brams": impl.weight_brams,
        "weight_mode": impl.weight_mode.value
        if impl.weight_mode is not None
        else None,
        "winograd_m": impl.winograd_m,
    }


def implementation_from_dict(entry: dict, path: str = "$") -> Implementation:
    """Rebuild an :class:`Implementation`, raising typed errors on damage."""
    algorithm = require_enum(entry, "algorithm", Algorithm, path)
    weight_mode = None
    if entry.get("weight_mode") is not None:
        weight_mode = require_enum(entry, "weight_mode", WeightMode, path)
    resources = require(entry, "resources", dict, path)
    return Implementation(
        layer_name=require(entry, "layer_name", str, path),
        algorithm=algorithm,
        parallelism=require(entry, "parallelism", int, path),
        resources=ResourceVector(
            bram18k=require(resources, "bram18k", int, f"{path}.resources"),
            dsp=require(resources, "dsp", int, f"{path}.resources"),
            ff=require(resources, "ff", int, f"{path}.resources"),
            lut=require(resources, "lut", int, f"{path}.resources"),
        ),
        compute_cycles=require(entry, "compute_cycles", int, path),
        fill_cycles=require(entry, "fill_cycles", int, path),
        input_bytes=require(entry, "input_bytes", int, path),
        output_bytes=require(entry, "output_bytes", int, path),
        weight_dram_bytes=require(entry, "weight_dram_bytes", int, path),
        weights_resident=require(entry, "weights_resident", bool, path),
        ops=require(entry, "ops", int, path),
        line_brams=require(entry, "line_brams", int, path),
        weight_brams=require(entry, "weight_brams", int, path),
        weight_mode=weight_mode,
        winograd_m=require(entry, "winograd_m", int, path),
    )


# -- GroupChoices <-> JSON ---------------------------------------------------


def group_to_dict(choices: GroupChoices) -> dict:
    """JSON-serializable record of one completed search's engines."""
    return {
        "feasible": bool(choices),
        "layers": [implementation_to_dict(impl) for impl in choices],
    }


def group_from_dict(entry: dict, length: int, path: str = "$") -> GroupChoices:
    """Rebuild a search's engines for a ``length``-layer range.

    Strict: a wrong type, an unknown enum or a layer count other than
    ``length`` (none at all for an infeasible range) raises a typed
    :class:`ArtifactSchemaError`.
    """
    feasible = require(entry, "feasible", bool, path)
    layers = require(entry, "layers", list, path)
    if len(layers) != (length if feasible else 0):
        raise ArtifactSchemaError(
            E_FIELD_VALUE,
            f"{path}.layers",
            f"{len(layers)} layers for a {length}-layer range "
            f"({'feasible' if feasible else 'infeasible'})",
        )
    return tuple(
        implementation_from_dict(layer, f"{path}.layers[{index}]")
        for index, layer in enumerate(layers)
    )


# -- the log -----------------------------------------------------------------


def _record_entries(line: bytes, name: str) -> Optional[Dict[str, dict]]:
    """Entries of one log record; None for a stale ``key_version``.

    Raises:
        ArtifactError: The record is damaged (typed, with code and path).
    """
    payload = parse_envelope_bytes(line, SHARD_KIND, name=name).payload
    version = require(payload, "key_version", int, "$.payload")
    if version != KEY_VERSION:
        # A stale record is not an error — its digests can simply never
        # be queried — but its entries are dead weight.
        return None
    entries = require(payload, "entries", dict, "$.payload")
    for digest, entry in entries.items():
        if not isinstance(entry, dict):
            raise ArtifactSchemaError(
                E_FIELD_VALUE,
                f"$.payload.entries.{digest}",
                "entry must be an object",
            )
    return entries


def _parse_log(
    data: bytes, name: str = LOG_NAME
) -> Tuple[Dict[str, dict], List[ArtifactError], int, int]:
    """``(entries, damaged, records, stale)`` of a log's bytes.

    ``entries`` merges every current record in file order; ``damaged``
    holds one typed error per record that is not readable (a torn tail
    included); ``records`` counts the readable ones and ``stale`` those
    of another ``key_version``.
    """
    entries: Dict[str, dict] = {}
    damaged: List[ArtifactError] = []
    records = stale = 0
    for number, line in enumerate(data.split(b"\n"), 1):
        if not line.strip():
            continue
        try:
            record = _record_entries(line, f"{name} line {number}")
        except ArtifactError as exc:
            damaged.append(exc)
            continue
        records += 1
        if record is None:
            stale += 1
        else:
            entries.update(record)
    return entries, damaged, records, stale


# -- stats -------------------------------------------------------------------


@dataclass(frozen=True)
class CostStoreStats:
    """What ``repro cache stats`` reports.

    ``shards`` counts the log's readable records and ``corrupt_shards``
    its damaged ones (each record is one ``cost_store_shard``
    envelope).
    """

    root: str
    entries: int
    shards: int
    bytes: int
    corrupt_shards: int

    def to_dict(self) -> dict:
        return {
            "root": self.root,
            "entries": self.entries,
            "shards": self.shards,
            "bytes": self.bytes,
            "corrupt_shards": self.corrupt_shards,
        }

    def summary(self) -> str:
        lines = [
            f"cost store at {self.root}",
            f"  entries:         {self.entries:,}",
            f"  log records:     {self.shards}",
            f"  size on disk:    {self.bytes / 1024:.1f} KB",
        ]
        if self.corrupt_shards:
            lines.append(
                f"  damaged records: {self.corrupt_shards} "
                "(ignored; dropped by the next flush of a run that reads "
                "them, or gc)"
            )
        return "\n".join(lines)


class CostStore:
    """Content-addressed on-disk store of finished group searches.

    Safe across processes (one file lock around every append,
    compaction and read).  Pass one to
    :class:`~repro.perf.cost.EvalContext` via its ``store`` argument,
    and that context to ``optimize`` / ``compile_model`` /
    ``partition_model`` via their ``context`` arguments, and finished
    searches persist across runs.
    """

    def __init__(self, root: Union[str, Path, None] = None):
        self.root = Path(root) if root is not None else default_store_root()
        self.log_path = self.root / LOG_NAME
        self.lock_path = self.root / LOCK_NAME
        # This store's view of the log (digest -> entry), read on the
        # first lookup and kept current by its own flushes and by
        # refresh().  _read_to is (inode, byte offset) of what it holds.
        self._view: Optional[Dict[str, dict]] = None
        self._read_to: Optional[Tuple[int, int]] = None
        # Set once a read met a damaged or stale record: the next flush
        # compacts.
        self._compact = False
        #: Damaged records and entries observed (and healed around).
        self.corrupt_shards = 0
        self.corrupt_entries = 0
        #: Lock acquisitions that proceeded locklessly because the
        #: filesystem cannot ``flock`` (NFS and friends); a concurrent
        #: writer's entries may then be lost, never an existing record.
        self.lock_fallbacks = 0
        #: Transient lock failures that succeeded on retry.
        self.lock_retries = 0
        # Once flock proves unsupported here, stop re-probing it.
        self._locks_unsupported = False

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CostStore({str(self.root)!r})"

    # -- paths and locking ---------------------------------------------------

    def shard_paths(self) -> List[Path]:
        """The log, if it exists (the file :meth:`load_shard` checks)."""
        return [self.log_path] if self.log_path.exists() else []

    def _acquire_lock(self, shared: bool):
        """Open + ``flock`` the store's lock file, with bounded retry.

        Returns the locked file handle, or ``None`` when this
        filesystem cannot lock at all, or a shared lock fails (counted
        in :attr:`lock_fallbacks`; the caller proceeds locklessly).

        Raises:
            ArtifactIntegrityError: ``E_LOCK`` when acquisition keeps
                failing transiently after :data:`LOCK_ATTEMPTS` tries —
                never a bare ``OSError`` from deep inside a flush.
        """
        if fcntl is None or self._locks_unsupported:
            self.lock_fallbacks += 1
            return None
        last_error: Optional[OSError] = None
        for attempt in range(LOCK_ATTEMPTS):
            if attempt:
                self.lock_retries += 1
                time.sleep(LOCK_BACKOFF_S * (2 ** (attempt - 1)))
            handle = None
            try:
                handle = open(self.lock_path, "a+")
                fcntl.flock(
                    handle.fileno(), fcntl.LOCK_SH if shared else fcntl.LOCK_EX
                )
                return handle
            except OSError as exc:
                if handle is not None:
                    handle.close()
                if exc.errno in _FLOCK_UNSUPPORTED:
                    self._locks_unsupported = True
                    self.lock_fallbacks += 1
                    return None
                if shared:
                    # A reader that cannot lock (a read-only store, say)
                    # reads anyway: at worst it takes an append in
                    # flight for a damaged record, which costs a miss.
                    self.lock_fallbacks += 1
                    return None
                last_error = exc
        raise ArtifactIntegrityError(
            E_LOCK,
            "$",
            f"cannot lock the cost store at {self.root} after "
            f"{LOCK_ATTEMPTS} attempts: {last_error}",
        )

    @contextmanager
    def _locked(self, shared: bool = False):
        """Cross-process lock on the log: exclusive for writers, shared
        for readers.  The store root must exist."""
        handle = self._acquire_lock(shared)
        try:
            yield
        finally:
            if handle is not None:
                try:
                    fcntl.flock(handle.fileno(), fcntl.LOCK_UN)
                except OSError:
                    pass  # the close below releases the lock anyway
                handle.close()

    def _read_log(self) -> bytes:
        """The log's bytes (empty when there is none), read under the
        caller's exclusive lock."""
        try:
            return self.log_path.read_bytes()
        except FileNotFoundError:
            return b""

    def _log_position(self) -> Optional[Tuple[int, int]]:
        """``(inode, size)`` of the log, or None when there is none."""
        try:
            status = os.stat(self.log_path)
        except FileNotFoundError:
            return None
        return status.st_ino, status.st_size

    # -- loading -------------------------------------------------------------

    def load_shard(self, path: Union[str, Path]) -> Dict[str, dict]:
        """Read a log file, *raising* typed errors on damage.

        This is the strict loader ``repro doctor``'s corruption probe
        exercises; the lookup path reads the same records with
        self-healing.  Returns the merged entries of every record.

        Raises:
            ArtifactError: The first damaged record's error — truncation,
                bit damage, checksum mismatch, schema problems — each
                with a stable code and JSON path.
        """
        path = Path(path)
        try:
            data = path.read_bytes()
        except OSError as exc:
            raise ArtifactIntegrityError(
                E_IO, "$", f"cannot read {path}: {exc}"
            )
        entries, damaged, _, _ = _parse_log(data, path.name)
        if damaged:
            raise damaged[0]
        return entries

    def _entries(self) -> Dict[str, dict]:
        """This store's view of the log, read (and healed) once."""
        if self._view is None:
            self._sync()
        return self._view

    def refresh(self) -> None:
        """Add the records other processes appended since this store
        last read the log (a no-op before its first lookup).

        Between compactions the log only grows, so this reads just the
        new bytes; a log that a compaction replaced is read whole.
        """
        if self._view is not None:
            self._sync()

    def _sync(self) -> None:
        """Read the log into the view: from where the view left off in
        the same file, else whole."""
        offset, data, position = 0, b"", None
        with self._open_log_shared() as handle:
            if handle is not None:
                status = os.fstat(handle.fileno())
                read_to = self._read_to
                # Resume only in the same file, at a line boundary.
                if (
                    read_to is not None
                    and read_to[0] == status.st_ino
                    and 0 < read_to[1] <= status.st_size
                ):
                    handle.seek(read_to[1] - 1)
                    if handle.read(1) == b"\n":
                        offset = read_to[1]
                handle.seek(offset)
                data = handle.read()
                position = (status.st_ino, offset + len(data))
        # Damaged records serve misses so the search re-runs; stale ones
        # can never be queried.  Either way this store's next flush
        # compacts the log without them.
        entries, damaged, _, stale = _parse_log(data)
        if offset and self._view is not None:
            self._view.update(entries)
        else:
            self._view = entries
        self._read_to = position
        self.corrupt_shards += len(damaged)
        self._compact = self._compact or bool(damaged) or bool(stale)

    @contextmanager
    def _open_log_shared(self):
        """The log opened for reading under the shared lock; None when
        there is no log."""
        if not self.log_path.exists():
            yield None
            return
        with self._locked(shared=True):
            try:
                handle = open(self.log_path, "rb")
            except FileNotFoundError:
                yield None
                return
            with handle:
                yield handle

    def get(self, key: GroupKey) -> Optional[GroupChoices]:
        """Look up one completed search's engines; ``None`` on miss *or*
        damage (an empty tuple is a remembered infeasible range)."""
        digest = key_digest(key)
        entry = self._entries().get(digest)
        if entry is None:
            return None
        try:
            return group_from_dict(
                require(entry, "group", dict, "$"), len(key.layers),
                path="$.group",
            )
        except ArtifactError:
            # A single damaged entry: heal by forgetting it.  The
            # re-searched value is appended later in the log, so it wins.
            self.corrupt_entries += 1
            if self._view is not None:
                self._view.pop(digest, None)
            return None

    # -- writing -------------------------------------------------------------

    def put_many(self, entries: Mapping[GroupKey, GroupChoices]) -> int:
        """Write entries to the store (the write-back flush).

        ``entries`` maps each :class:`GroupKey` to the engines its
        search chose.  Under the log's file lock they are appended as
        one ``fsync``ed record —
        nothing is re-read or rewritten — unless this store has met a
        damaged record, in which case the log is compacted instead.
        Returns the number of entries written.
        """
        if not entries:
            return 0
        now = time.time()
        fresh: Dict[str, dict] = {}
        for key, choices in entries.items():
            fresh[key_digest(key)] = {
                "key": stable_key_text(key),
                "created": now,
                "group": group_to_dict(choices),
            }
        compact = self._compact
        self.root.mkdir(parents=True, exist_ok=True)
        with self._locked():
            crash_point(POINT_STORE_LOCKED)
            before = self._log_position()
            if compact:
                merged = _parse_log(self._read_log())[0]
                merged.update(fresh)
                self._rewrite_log(merged)
            else:
                append_envelope_line(
                    self.log_path, SHARD_KIND, _payload(fresh), points=None
                )
            after = self._log_position()
            crash_point(POINT_STORE_SHARD_WRITTEN)
        if compact:
            self._view, self._read_to = merged, after
            self._compact = False
        elif self._view is not None:
            self._view.update(fresh)
            if self._read_to == before:
                # Nobody appended in between: the view holds it all.
                self._read_to = after
        return len(fresh)

    def _rewrite_log(self, entries: Dict[str, dict]) -> None:
        """Atomically replace the log with one record of ``entries``
        (deleting it when there are none).  The caller holds the lock."""
        if entries:
            atomic_write_text(
                self.log_path, envelope_line(SHARD_KIND, _payload(entries))
            )
        else:
            self.log_path.unlink(missing_ok=True)

    # -- hygiene -------------------------------------------------------------

    def stats(self) -> CostStoreStats:
        """Scan the store on disk (``repro cache stats``)."""
        with self._open_log_shared() as handle:
            data = handle.read() if handle is not None else b""
        entries, damaged, records, _ = _parse_log(data)
        return CostStoreStats(
            root=str(self.root),
            entries=len(entries),
            shards=records,
            bytes=len(data),
            corrupt_shards=len(damaged),
        )

    def gc(
        self,
        max_entries: Optional[int] = None,
        max_age_s: Optional[float] = None,
    ) -> int:
        """Evict and compact (``repro cache gc``).

        Drops entries older than ``max_age_s``, then the oldest entries
        beyond ``max_entries``, and rewrites the log as one record, so
        the pass also drops damaged and stale records and repeated keys.
        Returns the number of entries removed (damaged records count
        their unknown contents as 0).  Deletes an older-layout tree.
        """
        self._remove_legacy()
        if not self.log_path.exists():
            return 0
        now = time.time()
        with self._locked():
            entries = _parse_log(self._read_log())[0]
            kept = []
            for digest, entry in entries.items():
                created = entry.get("created")
                if isinstance(created, (int, float)) and (
                    max_age_s is None or now - created <= max_age_s
                ):
                    kept.append((created, digest))
            if max_entries is not None and len(kept) > max_entries:
                kept.sort(reverse=True)
                kept = kept[:max_entries]
            survivors = {digest: entries[digest] for _, digest in kept}
            self._rewrite_log(survivors)
            position = self._log_position()
        self._view, self._read_to = survivors, position
        self._compact = False
        return len(entries) - len(survivors)

    def clear(self) -> int:
        """Delete every entry (``repro cache clear``); returns the count.
        Deletes an older-layout tree too."""
        self._remove_legacy()
        removed = 0
        if self.log_path.exists():
            with self._locked():
                removed = len(_parse_log(self._read_log())[0])
                self.log_path.unlink(missing_ok=True)
        self._view = self._read_to = None
        self._compact = False
        return removed

    def _remove_legacy(self) -> None:
        for name in LEGACY_DIRS:
            shutil.rmtree(self.root / name, ignore_errors=True)


def _payload(entries: Dict[str, dict]) -> dict:
    """The payload of one log record."""
    return {"key_version": KEY_VERSION, "entries": entries}


def resolve_store(
    store: Union[CostStore, str, Path, None]
) -> Optional[CostStore]:
    """Coerce a store argument (store object, path, or None)."""
    if store is None or isinstance(store, CostStore):
        return store
    return CostStore(store)
