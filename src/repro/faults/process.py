"""Deterministic filesystem & process fault injection for the toolflow.

Where :mod:`repro.faults.injector` breaks the *simulated* serving fleet
on its virtual clock, this module breaks the **toolflow process
itself**: the writes that persist strategies, partition plans,
the cost-store log, sweep journals, traffic traces and recovery logs.
It follows the same discipline — every fault is drawn from a seeded
splitmix64 counter stream, so the same spec + seed reproduces a
bit-identical failure schedule — and it is the engine behind the
crash-consistency guarantee ``repro torture`` and the
``durability-probe`` doctor check enforce (see ``docs/durability.md``).

Two mechanisms:

* **Filesystem faults.**  Every file-writing path in the library
  (:func:`repro.check.artifacts.atomic_write_text`,
  :func:`~repro.check.artifacts.append_envelope_line`, and everything
  built on them: cost-store flushes, journals, saved artifacts, benchmark
  results) routes its ``write``/``fsync`` calls through
  :func:`fs_write` / :func:`fs_fsync`.  An installed injector can turn
  one call into an ``EIO``/``ENOSPC`` :class:`OSError`, a *torn* write
  (a prefix of the bytes lands, then the error strikes — the
  half-written temp file or journal tail a real crash leaves behind),
  or a silently dropped ``fsync``.
* **Crash points.**  Writing paths mark the instants between their
  steps — temp file written, synced, renamed; journal line appended;
  cost-store lock taken — with :func:`crash_point` markers.  An
  injector armed with ``crash:point=NAME`` dies there: either a *hard*
  kill (``os._exit``, skipping every ``finally`` — exactly what
  ``kill -9`` or a power cut does) or a raised
  :class:`SimulatedCrash` for in-process tests.  ``kill:p=0.2`` arms
  every drawn point probabilistically — the sweep engine uses it to
  kill 20% of its workers mid-point and prove the supervisor recovers.

The spec grammar matches :class:`repro.faults.spec.FaultSpec`::

    eio:p=0.05;torn:p=0.02;fsync-drop:p=0.1
    crash:point=atomic.synced,hit=2,mode=exit
    kill:p=0.2,point=sweep.point_start

With no injector installed every hook is a no-op costing one global
read — production writes are untouched.
"""

from __future__ import annotations

import errno
import hashlib
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import ReproError
from repro.faults.injector import counter_uniform
from repro.faults.spec import FaultError

#: Exit status of a hard (``mode=exit``) injected crash.  Distinct from
#: every status the library exits with deliberately, so the torture
#: harness can tell "killed at the point" from "finished before it".
KILL_EXIT_CODE = 87

#: Draw streams (the ``stream`` argument of :func:`counter_uniform`),
#: one per probabilistic fault kind so their schedules are independent.
_STREAMS = {"eio": 101, "enospc": 102, "torn": 103, "fsync-drop": 104,
            "kill": 105}


class SimulatedCrash(ReproError):
    """An injected crash in ``mode=raise`` (the in-process test mode)."""


# -- crash-point registry -----------------------------------------------------

_CRASH_POINTS: Dict[str, str] = {}


def register_crash_point(name: str, description: str) -> str:
    """Declare a named instant a crash can be injected at.

    Writing paths register their points at import time, so
    ``repro torture`` can enumerate the full kill matrix without
    running anything first.  Returns ``name`` for assignment.
    """
    _CRASH_POINTS[name] = description
    return name


def registered_crash_points() -> Dict[str, str]:
    """Every registered crash point, name -> description."""
    return dict(_CRASH_POINTS)


# The core write paths' points.  Registered here (not in
# repro.check.artifacts) so importing this module alone yields the full
# matrix; the markers in artifacts.py use the same literal names.
POINT_TEMP_WRITTEN = register_crash_point(
    "atomic.temp_written", "temp file written, not yet fsynced"
)
POINT_SYNCED = register_crash_point(
    "atomic.synced", "temp file fsynced, not yet renamed over the target"
)
POINT_REPLACED = register_crash_point(
    "atomic.replaced", "rename landed; the new artifact is live"
)
POINT_JOURNAL_APPENDED = register_crash_point(
    "journal.appended", "journal line written, not yet fsynced"
)
POINT_JOURNAL_SYNCED = register_crash_point(
    "journal.synced", "journal line fsynced and durable"
)
POINT_STORE_LOCKED = register_crash_point(
    "store.flush.locked", "cost-store log lock held, nothing written yet"
)
POINT_STORE_SHARD_WRITTEN = register_crash_point(
    "store.flush.shard_written",
    "record appended and fsynced (or log compacted), lock still held",
)
POINT_SWEEP_START = register_crash_point(
    "sweep.point_start", "sweep worker picked up a point, nothing computed"
)
POINT_SWEEP_DONE = register_crash_point(
    "sweep.point_done", "point computed and store flushed, record not "
    "yet returned"
)
POINT_SWEEP_JOURNALED = register_crash_point(
    "sweep.journaled", "point record appended to the sweep journal"
)


# -- the spec -----------------------------------------------------------------


@dataclass(frozen=True)
class ProcessFaultSpec:
    """A declarative schedule of filesystem/process faults.

    Attributes:
        eio_p: Per-write probability of an injected ``EIO``.
        enospc_p: Per-write probability of an injected ``ENOSPC``
            ("disk full").
        torn_p: Per-write probability of a torn write — a seeded prefix
            of the bytes lands, then ``EIO`` strikes.
        fsync_drop_p: Per-fsync probability the sync is silently
            dropped (the OS lied; the data may not be durable).
        kill_p: Per-crash-point probability of a hard kill; restricted
            to ``kill_point`` when set, else any point.
        kill_point: Crash point the probabilistic kills are armed at
            (``None``: every point draws).
        crash_at: Deterministic crash: die at the ``crash_hit``-th pass
            of this named point.
        crash_hit: Which pass of ``crash_at`` dies (1-based).
        crash_mode: ``"exit"`` (hard ``os._exit``) or ``"raise"``
            (:class:`SimulatedCrash`).
    """

    eio_p: float = 0.0
    enospc_p: float = 0.0
    torn_p: float = 0.0
    fsync_drop_p: float = 0.0
    kill_p: float = 0.0
    kill_point: Optional[str] = None
    crash_at: Optional[str] = None
    crash_hit: int = 1
    crash_mode: str = "exit"

    def __post_init__(self) -> None:
        for name in ("eio_p", "enospc_p", "torn_p", "fsync_drop_p", "kill_p"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise FaultError(
                    f"{name} must be a probability in [0, 1], got {value}"
                )
        if self.crash_mode not in ("exit", "raise"):
            raise FaultError(
                f"crash mode must be 'exit' or 'raise', got {self.crash_mode!r}"
            )
        if self.crash_hit < 1:
            raise FaultError(f"crash hit must be >= 1, got {self.crash_hit}")
        for point in (self.crash_at, self.kill_point):
            if point is not None and point not in _CRASH_POINTS:
                known = ", ".join(sorted(_CRASH_POINTS))
                raise FaultError(
                    f"unknown crash point {point!r} (known: {known})"
                )

    @property
    def empty(self) -> bool:
        return (
            self.eio_p == self.enospc_p == self.torn_p == 0.0
            and self.fsync_drop_p == self.kill_p == 0.0
            and self.crash_at is None
        )

    @classmethod
    def parse(cls, text: Optional[str]) -> "ProcessFaultSpec":
        """Parse the compact CLI grammar; ``None``/empty -> no faults.

        Raises:
            FaultError: One clean line on any malformed event, key or
                value — matching the serving-fault spec contract.
        """
        if not text or not text.strip():
            return cls()
        fields: dict = {}
        for event in text.split(";"):
            event = event.strip()
            if not event:
                continue
            kind, sep, body = event.partition(":")
            kind = kind.strip()
            if not sep:
                raise FaultError(
                    f"bad process-fault event {event!r} (expected "
                    "kind:key=value,...)"
                )
            pairs = {}
            for item in body.split(","):
                item = item.strip()
                if not item:
                    continue
                key, eq, value = item.partition("=")
                if not eq:
                    raise FaultError(
                        f"bad field {item!r} in {event!r} (expected key=value)"
                    )
                pairs[key.strip()] = value.strip()

            def prob(pairs=pairs, kind=kind) -> float:
                if "p" not in pairs:
                    raise FaultError(f"{kind} fault needs p=PROBABILITY")
                try:
                    return float(pairs["p"])
                except ValueError:
                    raise FaultError(
                        f"{kind} probability {pairs['p']!r} is not a number"
                    ) from None

            if kind == "eio":
                fields["eio_p"] = prob()
            elif kind == "enospc":
                fields["enospc_p"] = prob()
            elif kind == "torn":
                fields["torn_p"] = prob()
            elif kind in ("fsync-drop", "fsync_drop"):
                fields["fsync_drop_p"] = prob()
            elif kind == "kill":
                fields["kill_p"] = prob()
                if "point" in pairs:
                    fields["kill_point"] = pairs["point"]
            elif kind == "crash":
                if "point" not in pairs:
                    raise FaultError("crash fault needs point=NAME")
                fields["crash_at"] = pairs["point"]
                if "hit" in pairs:
                    try:
                        fields["crash_hit"] = int(pairs["hit"])
                    except ValueError:
                        raise FaultError(
                            f"crash hit {pairs['hit']!r} is not an integer"
                        ) from None
                if "mode" in pairs:
                    fields["crash_mode"] = pairs["mode"]
            else:
                raise FaultError(
                    f"unknown process-fault kind {kind!r} (known: eio, "
                    "enospc, torn, fsync-drop, kill, crash)"
                )
        return cls(**fields)


def derive_seed(seed: int, *tokens) -> int:
    """Decorrelated child seed for ``(seed, token, ...)``.

    The sweep engine seeds each worker attempt with
    ``derive_seed(fault_seed, job_id, attempt)`` so a retried job
    redraws its fate — a killed attempt does not kill forever — while
    the whole schedule stays a pure function of the sweep's fault seed.
    """
    text = ":".join([str(seed)] + [str(t) for t in tokens])
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


# -- the injector -------------------------------------------------------------


@dataclass
class FsInjector:
    """Answers the write hooks' fault queries for one installation.

    All draws are counter-based (one counter per fault kind), so the
    schedule is independent of which files are written in which order —
    only *how many* writes happened before this one matters, which is
    deterministic for a deterministic workload.
    """

    spec: ProcessFaultSpec
    seed: int = 0
    counters: Dict[str, int] = field(default_factory=dict)
    #: Observed-fault counts, e.g. {"eio": 2, "fsync_dropped": 1}.
    stats: Dict[str, int] = field(default_factory=dict)
    #: Crash-point pass counts (for ``hit=N`` and for coverage reports).
    point_hits: Dict[str, int] = field(default_factory=dict)

    def _draw(self, kind: str) -> float:
        counter = self.counters.get(kind, 0)
        self.counters[kind] = counter + 1
        return counter_uniform(self.seed, _STREAMS[kind], counter)

    def _count(self, what: str) -> None:
        self.stats[what] = self.stats.get(what, 0) + 1

    # -- hooks ---------------------------------------------------------------

    def on_write(self, handle, text: str, label: str) -> None:
        """Perform (or sabotage) one buffered write of ``text``."""
        if self.spec.torn_p and self._draw("torn") < self.spec.torn_p:
            # A prefix lands, then the device errors — the classic torn
            # tail.  The cut is drawn from the same stream so the damage
            # is reproducible byte-for-byte.
            fraction = self._draw("torn")
            handle.write(text[: int(len(text) * fraction)])
            handle.flush()
            self._count("torn_writes")
            raise OSError(
                errno.EIO, f"injected torn write ({label})"
            )
        if self.spec.eio_p and self._draw("eio") < self.spec.eio_p:
            self._count("eio")
            raise OSError(errno.EIO, f"injected I/O error ({label})")
        if self.spec.enospc_p and self._draw("enospc") < self.spec.enospc_p:
            self._count("enospc")
            raise OSError(
                errno.ENOSPC, f"injected disk-full error ({label})"
            )
        handle.write(text)

    def on_fsync(self, handle, label: str) -> bool:
        """Whether the fsync should actually run (False: dropped)."""
        if (
            self.spec.fsync_drop_p
            and self._draw("fsync-drop") < self.spec.fsync_drop_p
        ):
            self._count("fsync_dropped")
            return False
        return True

    def at_point(self, name: str) -> None:
        """One pass through a crash point; may never return."""
        hits = self.point_hits.get(name, 0) + 1
        self.point_hits[name] = hits
        if self.spec.crash_at == name and hits == self.spec.crash_hit:
            self._die(name)
        if self.spec.kill_p and (
            self.spec.kill_point is None or self.spec.kill_point == name
        ):
            if self._draw("kill") < self.spec.kill_p:
                self._die(name)

    def _die(self, point: str) -> None:
        self._count("crashes")
        if self.spec.crash_mode == "exit":
            # A hard death: no finally blocks, no atexit, no flushes —
            # what SIGKILL or a power cut leaves behind.
            os._exit(KILL_EXIT_CODE)
        raise SimulatedCrash(f"injected crash at point {point!r}")


# -- installation -------------------------------------------------------------

_INJECTOR: Optional[FsInjector] = None


def install_process_faults(
    spec, seed: int = 0
) -> FsInjector:
    """Arm the hooks with a spec (string, :class:`ProcessFaultSpec`, or
    an :class:`FsInjector`); returns the active injector."""
    global _INJECTOR
    if isinstance(spec, FsInjector):
        _INJECTOR = spec
    else:
        if isinstance(spec, str):
            spec = ProcessFaultSpec.parse(spec)
        _INJECTOR = FsInjector(spec=spec, seed=seed)
    return _INJECTOR


def clear_process_faults() -> None:
    """Disarm every hook (the default state)."""
    global _INJECTOR
    _INJECTOR = None


def current_injector() -> Optional[FsInjector]:
    return _INJECTOR


class process_faults:
    """Context manager arming a spec for a ``with`` block::

        with process_faults("eio:p=1.0", seed=3) as injector:
            ...  # every write in here raises EIO
    """

    def __init__(self, spec, seed: int = 0):
        self.spec = spec
        self.seed = seed
        self.injector: Optional[FsInjector] = None

    def __enter__(self) -> FsInjector:
        self._previous = _INJECTOR
        self.injector = install_process_faults(self.spec, seed=self.seed)
        return self.injector

    def __exit__(self, *exc) -> None:
        global _INJECTOR
        _INJECTOR = self._previous


# -- the hooks the write paths call ------------------------------------------


def crash_point(name: str) -> None:
    """Mark one instant a crash can strike.  No-op when disarmed."""
    if _INJECTOR is not None:
        _INJECTOR.at_point(name)


def fs_write(handle, text: str, label: str = "write") -> None:
    """Buffered write of ``text`` to ``handle``, injectable."""
    if _INJECTOR is None:
        handle.write(text)
    else:
        _INJECTOR.on_write(handle, text, label)


def fs_fsync(handle, label: str = "fsync") -> None:
    """``flush`` + ``fsync`` of ``handle``, droppable."""
    handle.flush()
    if _INJECTOR is None or _INJECTOR.on_fsync(handle, label):
        os.fsync(handle.fileno())


# -- torture-harness support --------------------------------------------------


def run_to_kill(target, point: str, hit: int = 1, args: Tuple = ()) -> str:
    """Run ``target(*args)`` in a forked child that hard-dies at ``point``.

    The parent's verdict:

    * ``"killed"`` — the child reached the point and died there
      (exit status :data:`KILL_EXIT_CODE`);
    * ``"finished"`` — the workload completed without passing the point
      ``hit`` times (the point is not on this workload's path);
    * ``"error"`` — the child failed some *other* way, which a
      crash-consistency harness must treat as its own bug.

    Requires ``fork`` (POSIX); callers gate on
    :func:`fork_available`.
    """
    import multiprocessing

    ctx = multiprocessing.get_context("fork")
    spec = ProcessFaultSpec(crash_at=point, crash_hit=hit, crash_mode="exit")
    child = ctx.Process(target=_kill_child, args=(spec, target, args))
    child.start()
    child.join()
    if child.exitcode == KILL_EXIT_CODE:
        return "killed"
    if child.exitcode == 0:
        return "finished"
    return "error"


def _kill_child(spec: ProcessFaultSpec, target, args: Tuple) -> None:
    install_process_faults(spec)
    try:
        target(*args)
    except ReproError:
        # The workload may legitimately surface a typed error after an
        # injected fault; the harness only cares about crashes vs
        # completion here.
        pass
    os._exit(0)


def fork_available() -> bool:
    """Whether the hard-kill harness can run on this platform."""
    import multiprocessing

    try:
        multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX
        return False
    return hasattr(os, "fork")


__all__ = [
    "KILL_EXIT_CODE",
    "FsInjector",
    "ProcessFaultSpec",
    "SimulatedCrash",
    "clear_process_faults",
    "crash_point",
    "current_injector",
    "derive_seed",
    "fork_available",
    "fs_fsync",
    "fs_write",
    "install_process_faults",
    "process_faults",
    "register_crash_point",
    "registered_crash_points",
    "run_to_kill",
]
