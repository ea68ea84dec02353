"""Persistent, content-addressed cost store: ``implement()`` across runs.

PR 2's signature-keyed :class:`~repro.perf.cost.EvalContext` removed
40.8% of cost-model evaluations *within* a process — but the cache died
with it, so every compile, CI run and Figure 5 sweep re-paid the full
evaluation bill.  This module is the on-disk tier below that memory
cache: a content-addressed store of evaluated
:class:`~repro.perf.implement.Implementation` records, keyed by exactly
the same ``(layer signature, algorithm, weight mode, winograd m,
parallelism, cost-relevant device subset)`` identity the in-memory
cache uses.  The same shards also hold *group entries*: what each
completed ``fusion[i][j]`` search chose, keyed by
:class:`~repro.perf.cost.GroupKey`, so a warm run rebuilds its group
designs instead of re-running branch and bound.

Layout and discipline:

* **Keys.** An :class:`EvalContext` key is a tuple of frozen dataclasses
  and enums whose ``repr`` is deterministic across processes (no memory
  addresses, no hash randomization), so the store addresses entries by
  the SHA-256 of that canonical text, salted with :data:`KEY_VERSION`.
  Bumping :data:`KEY_VERSION` (required whenever ``implement()``'s
  outputs or the key layout change) invalidates every stale entry at
  once.  Group entries are further salted with :data:`SEARCH_VERSION`.
* **Shards.** Entries live in 256 shard files (first two hex digits of
  the digest) under ``<root>/shards/``, each a standard
  :mod:`repro.check` artifact envelope — versioned, checksummed, written
  atomically.  A truncated or bit-flipped shard therefore surfaces as a
  typed :class:`~repro.errors.ArtifactError` from :meth:`CostStore.load_shard`,
  never as a ``KeyError`` deep in a search.
* **Self-healing.** The lookup paths (:meth:`CostStore.get`,
  :meth:`CostStore.get_group`) treat a damaged shard or entry as
  *empty*, count it, and let the evaluation layer recompute or the
  search re-run; a damaged shard is rewritten by the next flush of a
  run that reads it.  Corruption costs time, never correctness.
* **Concurrency.** Writers take a per-shard ``flock`` lock, re-read the
  shard on disk, merge their entries and atomically replace the file —
  two processes flushing overlapping keys interleave without loss or
  torn files (values are pure functions of the key, so merge order is
  irrelevant).
* **Hygiene.** :meth:`CostStore.stats`, :meth:`CostStore.gc` (age- and
  count-bounded eviction with compaction) and :meth:`CostStore.clear`
  back the ``repro cache {stats,gc,clear}`` CLI.
"""

from __future__ import annotations

import errno
import hashlib
import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Hashable, List, Mapping, Optional, Tuple, Union

from repro.check.artifacts import (
    E_FIELD_VALUE,
    E_LOCK,
    load_envelope,
    require,
    save_artifact,
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

#: Artifact kind of one shard file.
SHARD_KIND = "cost_store_shard"

#: Version salt of the key derivation *and* the entry payload layout.
#: Bump whenever ``implement()`` changes behaviour or the
#: :class:`Implementation` fields change: every older entry is then
#: unreachable (a different digest), so a stale store can never feed a
#: drifted cost back into a search.
KEY_VERSION = 1

#: Extra salt of group entries.  Bump whenever the search's menus, its
#: DFS order or :func:`~repro.perf.group.compose_group` change: a
#: completed search returns the first optimal leaf in DFS order, so
#: those are what a stored choice depends on beyond ``implement()``.
SEARCH_VERSION = 1

#: Environment variable overriding the default store location.
STORE_ENV = "REPRO_COST_CACHE"

#: Hex digits of the digest that select a shard file (256 shards).
_SHARD_CHARS = 2

#: Shard-lock acquisition attempts before giving up with ``E_LOCK``.
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
    """Deterministic textual form of an :class:`EvalContext` cache key.

    The key is built from frozen dataclasses, enums, strings and ints —
    all of which ``repr`` identically in every process — so this text is
    a portable identity where Python's salted ``hash()`` is not.
    """
    return repr(key)


def key_digest(key: Hashable) -> str:
    """Content address of one entry: SHA-256 of the salted key text."""
    salt = f"v{KEY_VERSION}"
    if isinstance(key, GroupKey):
        salt += f":s{SEARCH_VERSION}"
    text = f"{salt}:{stable_key_text(key)}"
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _enum(cls, raw: str, path: str, what: str):
    """``cls(raw)``, or a typed schema error naming the field."""
    try:
        return cls(raw)
    except ValueError:
        raise ArtifactSchemaError(
            E_FIELD_VALUE, path, f"{raw!r} is not a known {what}"
        ) from None


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
    algorithm = _enum(
        Algorithm, require(entry, "algorithm", str, path),
        f"{path}.algorithm", "algorithm",
    )
    weight_mode = None
    if entry.get("weight_mode") is not None:
        weight_mode = _enum(
            WeightMode, require(entry, "weight_mode", str, path),
            f"{path}.weight_mode", "weight mode",
        )
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
    """JSON-serializable record of one completed search's choices."""
    return {
        "feasible": bool(choices),
        "layers": [
            {
                "algorithm": algorithm.value,
                "weight_mode": mode.value,
                "winograd_m": m,
                "parallelism": parallelism,
            }
            for algorithm, mode, m, parallelism in choices
        ],
    }


def group_from_dict(entry: dict, length: int, path: str = "$") -> GroupChoices:
    """Rebuild a search's choices for a ``length``-layer range.

    Strict: a wrong type, an unknown enum, a non-positive parallelism or
    a layer count other than ``length`` (none at all for an infeasible
    range) raises a typed :class:`ArtifactSchemaError`.
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
    choices = []
    for index, layer in enumerate(layers):
        where = f"{path}.layers[{index}]"
        parallelism = require(layer, "parallelism", int, where)
        if parallelism < 1:
            raise ArtifactSchemaError(
                E_FIELD_VALUE, f"{where}.parallelism",
                f"parallelism {parallelism} is not positive",
            )
        choices.append((
            _enum(
                Algorithm, require(layer, "algorithm", str, where),
                f"{where}.algorithm", "algorithm",
            ),
            _enum(
                WeightMode, require(layer, "weight_mode", str, where),
                f"{where}.weight_mode", "weight mode",
            ),
            require(layer, "winograd_m", int, where),
            parallelism,
        ))
    return tuple(choices)


# -- stats -------------------------------------------------------------------


@dataclass(frozen=True)
class CostStoreStats:
    """What ``repro cache stats`` reports."""

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
            f"  entries:        {self.entries:,}",
            f"  shard files:    {self.shards}",
            f"  size on disk:   {self.bytes / 1024:.1f} KB",
        ]
        if self.corrupt_shards:
            lines.append(
                f"  corrupt shards: {self.corrupt_shards} "
                "(ignored; rewritten by the next flush that reads them, or gc)"
            )
        return "\n".join(lines)


class CostStore:
    """Content-addressed on-disk cache of cost-model evaluations.

    Thread-safe within a process (one lock guards the in-memory shard
    views) and safe across processes (per-shard file locks around every
    read-merge-write).  Pass one to
    :class:`~repro.perf.cost.EvalContext` via its ``store`` argument,
    and that context to ``optimize`` / ``compile_model`` /
    ``partition_model`` via their ``context`` arguments, and
    evaluations persist across runs.
    """

    def __init__(self, root: Union[str, Path, None] = None):
        self.root = Path(root) if root is not None else default_store_root()
        self.shards_dir = self.root / "shards"
        self.locks_dir = self.root / "locks"
        self._lock = threading.Lock()
        # Per-process view of shard contents: shard id -> entries dict.
        self._shards: Dict[str, Dict[str, dict]] = {}
        #: Damaged shards/entries observed (and healed around) so far.
        self.corrupt_shards = 0
        self.corrupt_entries = 0
        #: Flushes that proceeded locklessly because the filesystem
        #: cannot ``flock`` (NFS and friends); merge-on-write still
        #: bounds the damage to losing a concurrent writer's entries.
        self.lock_fallbacks = 0
        #: Transient lock failures that succeeded on retry.
        self.lock_retries = 0
        # Once flock proves unsupported here, stop re-probing it.
        self._locks_unsupported = False

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CostStore({str(self.root)!r})"

    # -- paths and locking ---------------------------------------------------

    def _shard_id(self, digest: str) -> str:
        return digest[:_SHARD_CHARS]

    def shard_path(self, shard_id: str) -> Path:
        return self.shards_dir / f"{shard_id}.json"

    def shard_paths(self) -> List[Path]:
        """Every shard file currently on disk, sorted."""
        if not self.shards_dir.is_dir():
            return []
        return sorted(self.shards_dir.glob("*.json"))

    def _acquire_shard_lock(self, shard_id: str):
        """Open + ``flock`` one shard's lock file, with bounded retry.

        Returns the locked file handle, or ``None`` when this
        filesystem cannot lock at all (counted in
        :attr:`lock_fallbacks`; the flush proceeds locklessly).

        Raises:
            ArtifactIntegrityError: ``E_LOCK`` when acquisition keeps
                failing transiently after :data:`LOCK_ATTEMPTS` tries —
                never a bare ``OSError`` from deep inside a flush.
        """
        if fcntl is None or self._locks_unsupported:
            self.lock_fallbacks += 1
            return None
        lock_path = self.locks_dir / f"{shard_id}.lock"
        last_error: Optional[OSError] = None
        for attempt in range(LOCK_ATTEMPTS):
            if attempt:
                self.lock_retries += 1
                time.sleep(LOCK_BACKOFF_S * (2 ** (attempt - 1)))
            handle = None
            try:
                self.locks_dir.mkdir(parents=True, exist_ok=True)
                handle = open(lock_path, "a+")
                fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
                return handle
            except OSError as exc:
                if handle is not None:
                    handle.close()
                if exc.errno in _FLOCK_UNSUPPORTED:
                    self._locks_unsupported = True
                    self.lock_fallbacks += 1
                    return None
                last_error = exc
        raise ArtifactIntegrityError(
            E_LOCK,
            "$",
            f"cannot lock cost-store shard {shard_id} after "
            f"{LOCK_ATTEMPTS} attempts: {last_error}",
        )

    @contextmanager
    def _shard_lock(self, shard_id: str):
        """Cross-process mutual exclusion for one shard's read-merge-write."""
        handle = self._acquire_shard_lock(shard_id)
        try:
            yield
        finally:
            if handle is not None:
                try:
                    fcntl.flock(handle.fileno(), fcntl.LOCK_UN)
                except OSError:
                    pass  # the close below releases the lock anyway
                handle.close()

    # -- loading -------------------------------------------------------------

    def load_shard(self, path: Union[str, Path]) -> Dict[str, dict]:
        """Read one shard file, *raising* typed errors on damage.

        This is the strict loader ``repro doctor``'s corruption probe
        exercises; the lookup path wraps it with self-healing.

        Raises:
            ArtifactError: Truncation, bit damage, checksum mismatch,
                schema problems — each with a stable code and JSON path.
        """
        envelope = load_envelope(path, expected_kind=SHARD_KIND)
        payload = envelope.payload
        version = require(payload, "key_version", int, "$.payload")
        if version != KEY_VERSION:
            # A stale shard is not an error — its digests can simply
            # never be queried — but its entries are dead weight.
            return {}
        entries = require(payload, "entries", dict, "$.payload")
        for digest, entry in entries.items():
            if not isinstance(entry, dict):
                raise ArtifactSchemaError(
                    E_FIELD_VALUE,
                    f"$.payload.entries.{digest}",
                    "entry must be an object",
                )
        return entries

    def _entries(self, shard_id: str) -> Dict[str, dict]:
        """In-memory view of one shard, loading (and healing) on demand."""
        with self._lock:
            cached = self._shards.get(shard_id)
            if cached is not None:
                return cached
        path = self.shard_path(shard_id)
        entries: Dict[str, dict] = {}
        if path.exists():
            try:
                entries = self.load_shard(path)
            except ArtifactError:
                # Damaged shard: serve misses so the evaluation layer
                # recomputes (or the search re-runs); this run's flush
                # rewrites the file.
                self.corrupt_shards += 1
        with self._lock:
            return self._shards.setdefault(shard_id, entries)

    def get(self, key: Hashable) -> Optional[Implementation]:
        """Look up one evaluation; ``None`` on miss *or* damage."""
        return self._lookup(
            key,
            lambda entry: implementation_from_dict(
                require(entry, "impl", dict, "$"), path="$.impl"
            ),
        )

    def get_group(self, key: GroupKey) -> Optional[GroupChoices]:
        """Look up one completed search's choices; ``None`` on miss *or*
        damage (an empty tuple is a remembered infeasible range)."""
        return self._lookup(
            key,
            lambda entry: group_from_dict(
                require(entry, "group", dict, "$"), len(key.layers),
                path="$.group",
            ),
        )

    def _lookup(self, key: Hashable, decode):
        digest = key_digest(key)
        entry = self._entries(self._shard_id(digest)).get(digest)
        if entry is None:
            return None
        try:
            return decode(entry)
        except ArtifactError:
            # A single damaged entry: heal by forgetting it.
            self.corrupt_entries += 1
            with self._lock:
                self._shards.get(self._shard_id(digest), {}).pop(digest, None)
            return None

    def __contains__(self, key: Hashable) -> bool:
        return self.get(key) is not None

    # -- writing -------------------------------------------------------------

    def put_many(
        self, entries: Mapping[Hashable, Union[Implementation, GroupChoices]]
    ) -> int:
        """Merge entries into the store (the write-back flush).

        ``entries`` maps evaluation keys to :class:`Implementation`
        records and :class:`GroupKey` keys to search choices.  They are
        grouped by shard; each shard is re-read from disk under its file
        lock, merged and atomically replaced, so concurrent flushes from
        other processes are preserved.  Returns the number of entries
        written.
        """
        if not entries:
            return 0
        by_shard: Dict[str, Dict[str, dict]] = {}
        now = time.time()
        for key, value in entries.items():
            digest = key_digest(key)
            record = {"key": stable_key_text(key), "created": now}
            if isinstance(key, GroupKey):
                record["group"] = group_to_dict(value)
            else:
                record["impl"] = implementation_to_dict(value)
            by_shard.setdefault(self._shard_id(digest), {})[digest] = record
        self.shards_dir.mkdir(parents=True, exist_ok=True)
        for shard_id, fresh in sorted(by_shard.items()):
            with self._shard_lock(shard_id):
                merged = self._read_for_merge(shard_id)
                crash_point(POINT_STORE_LOCKED)
                merged.update(fresh)
                self._write_shard(shard_id, merged)
                crash_point(POINT_STORE_SHARD_WRITTEN)
        return sum(len(fresh) for fresh in by_shard.values())

    def _read_for_merge(self, shard_id: str) -> Dict[str, dict]:
        """On-disk entries of one shard, healing damage to empty."""
        path = self.shard_path(shard_id)
        if not path.exists():
            return {}
        try:
            return dict(self.load_shard(path))
        except ArtifactError:
            self.corrupt_shards += 1
            return {}

    def _write_shard(self, shard_id: str, entries: Dict[str, dict]) -> None:
        save_artifact(
            self.shard_path(shard_id),
            SHARD_KIND,
            {"key_version": KEY_VERSION, "entries": entries},
        )
        with self._lock:
            self._shards[shard_id] = entries

    # -- hygiene -------------------------------------------------------------

    def stats(self) -> CostStoreStats:
        """Scan the store on disk (``repro cache stats``)."""
        entries = 0
        size = 0
        shards = 0
        corrupt = 0
        for path in self.shard_paths():
            shards += 1
            size += path.stat().st_size
            try:
                entries += len(self.load_shard(path))
            except ArtifactError:
                corrupt += 1
        return CostStoreStats(
            root=str(self.root),
            entries=entries,
            shards=shards,
            bytes=size,
            corrupt_shards=corrupt,
        )

    def gc(
        self,
        max_entries: Optional[int] = None,
        max_age_s: Optional[float] = None,
    ) -> int:
        """Evict and compact (``repro cache gc``).

        Drops entries older than ``max_age_s``, then the oldest entries
        beyond ``max_entries``; damaged shards compact to empty.  Every
        surviving shard is rewritten, so the pass also repairs any file
        that was half-damaged.  Returns the number of entries removed
        (damaged shards count their unknown contents as 0).
        """
        now = time.time()
        kept: List[Tuple[float, str, str, dict]] = []
        removed = 0
        shard_ids = []
        for path in self.shard_paths():
            shard_id = path.stem
            shard_ids.append(shard_id)
            with self._shard_lock(shard_id):
                for digest, entry in self._read_for_merge(shard_id).items():
                    created = entry.get("created")
                    age_ok = isinstance(created, (int, float)) and (
                        max_age_s is None or now - created <= max_age_s
                    )
                    if age_ok:
                        kept.append((created, digest, shard_id, entry))
                    else:
                        removed += 1
        if max_entries is not None and len(kept) > max_entries:
            kept.sort(key=lambda item: (item[0], item[1]), reverse=True)
            removed += len(kept) - max_entries
            kept = kept[:max_entries]
        survivors: Dict[str, Dict[str, dict]] = {sid: {} for sid in shard_ids}
        for _, digest, shard_id, entry in kept:
            survivors[shard_id][digest] = entry
        for shard_id, entries in sorted(survivors.items()):
            with self._shard_lock(shard_id):
                if entries:
                    self._write_shard(shard_id, entries)
                else:
                    try:
                        self.shard_path(shard_id).unlink()
                    except FileNotFoundError:
                        pass
                    with self._lock:
                        self._shards.pop(shard_id, None)
        return removed

    def clear(self) -> int:
        """Delete every entry (``repro cache clear``); returns the count."""
        removed = 0
        for path in self.shard_paths():
            shard_id = path.stem
            with self._shard_lock(shard_id):
                try:
                    removed += len(self.load_shard(path))
                except ArtifactError:
                    pass
                try:
                    path.unlink()
                except FileNotFoundError:
                    pass
            with self._lock:
                self._shards.pop(shard_id, None)
        return removed


def resolve_store(
    store: Union[CostStore, str, Path, None]
) -> Optional[CostStore]:
    """Coerce a store argument (store object, path, or None)."""
    if store is None or isinstance(store, CostStore):
        return store
    return CostStore(store)
