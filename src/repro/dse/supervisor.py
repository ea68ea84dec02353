"""Supervised worker pool: the sweep's defense against dying workers.

``multiprocessing.Pool`` has a famous failure mode: a worker that dies
hard (OOM kill, segfault, an injected ``os._exit``) mid-task leaves
``imap`` waiting forever — a thousand-point sweep stalls at 99% with
nothing in the journal saying why.  This pool trades ``Pool``'s
generality for supervision:

* every worker is a directly-owned ``Process`` with its own one-job
  mailbox; the supervisor always knows which job each worker holds;
* workers **heartbeat** — a ``start`` message when they pick a job up —
  so a hang is measured from real pickup, not dispatch;
* the supervisor polls worker liveness while waiting for results: a
  **dead** worker (``is_alive()`` false, job unreported) or a **hung**
  one (no result within ``timeout_s`` of its heartbeat) is reaped, its
  in-flight job **requeued** with bounded retry + backoff, and a fresh
  worker spawned in its place;
* when a job exhausts ``max_retries`` the caller's ``on_exhausted``
  callback synthesizes its failure result — the sweep records the loss
  and moves on, it never stalls and never silently drops a point.

The pool yields one result per job as it lands (like
``imap_unordered``); callers own ordering.  ``SupervisorStats`` counts every intervention so the
sweep's telemetry can report exactly how much supervision happened.
"""

from __future__ import annotations

import queue as queue_mod
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

#: Default in-flight retry budget per job (initial run + 2 retries).
DEFAULT_MAX_RETRIES = 2

#: Base requeue backoff; doubles per attempt so a crash-looping job
#: cannot hot-spin a worker.
DEFAULT_BACKOFF_S = 0.1

#: Supervisor poll interval while waiting on the result queue.
_POLL_S = 0.05


@dataclass
class SupervisorStats:
    """Every intervention the supervisor made, for sweep telemetry."""

    workers_spawned: int = 0
    worker_deaths: int = 0
    workers_hung: int = 0
    requeues: int = 0
    retries_exhausted: int = 0

    def to_dict(self) -> Dict[str, int]:
        return {
            "workers_spawned": self.workers_spawned,
            "worker_deaths": self.worker_deaths,
            "workers_hung": self.workers_hung,
            "requeues": self.requeues,
            "retries_exhausted": self.retries_exhausted,
        }

    @property
    def interventions(self) -> int:
        return self.worker_deaths + self.workers_hung


def _worker_main(worker_id: int, mailbox, results, worker_fn) -> None:
    """Worker loop: one job at a time, heartbeat at pickup, never raise.

    A worker that *returns* has been told to stop (``None`` job); a
    worker that vanishes any other way is a death the supervisor
    handles.  Exceptions are folded into an ``error`` message rather
    than escaping — a bad job must cost one retry, not the process.
    """
    while True:
        job = mailbox.get()
        if job is None:
            return
        results.put(("start", worker_id, None, None))
        try:
            record = worker_fn(job)
            results.put(("done", worker_id, record, None))
        except BaseException as exc:
            try:
                results.put(("error", worker_id, None, repr(exc)))
            except Exception:
                return  # queue gone: the supervisor is tearing down


@dataclass
class _WorkerSlot:
    process: object
    mailbox: object
    job: Optional[dict] = None
    started_at: Optional[float] = None
    dispatched_at: Optional[float] = None

    @property
    def busy(self) -> bool:
        return self.job is not None

    def deadline_clock(self) -> Optional[float]:
        """The instant hang-timeouts measure from (heartbeat, else
        dispatch)."""
        return self.started_at or self.dispatched_at


class SupervisedPool:
    """Run jobs through supervised worker processes; yield results.

    Args:
        worker_fn: Top-level picklable callable ``job dict -> result``
            (the sweep passes :func:`repro.dse.sweep.run_job`, whose
            result is a list of point records).
        workers: Worker process count (>= 1).
        mp_context: A ``multiprocessing`` context (the sweep passes its
            fork context).
        timeout_s: Hang budget per job measured from the worker's pickup
            heartbeat; ``None`` disables hang detection (deaths are
            still detected).
        max_retries: Retries per job after its first failure before
            ``on_exhausted`` is consulted.
        on_exhausted: ``(job, reason) -> result`` synthesizing the
            failure result for a job that kept dying; ``None`` re-raises
            the loss as ``RuntimeError`` (library misuse — the sweep
            always provides one).
        attempt_key: Job-dict key carrying the attempt ordinal; the
            supervisor increments it on each requeue so workers can
            derive per-attempt fault seeds.
    """

    def __init__(
        self,
        worker_fn: Callable[[dict], dict],
        workers: int,
        mp_context,
        timeout_s: Optional[float] = None,
        max_retries: int = DEFAULT_MAX_RETRIES,
        backoff_s: float = DEFAULT_BACKOFF_S,
        on_exhausted: Optional[Callable[[dict, str], dict]] = None,
        attempt_key: str = "attempt",
    ):
        self.worker_fn = worker_fn
        self.workers = max(1, workers)
        self.ctx = mp_context
        self.timeout_s = timeout_s
        self.max_retries = max_retries
        self.backoff_s = backoff_s
        self.on_exhausted = on_exhausted
        self.attempt_key = attempt_key
        self.stats = SupervisorStats()
        # Jobs whose retry budget ran out, awaiting on_exhausted.
        self._exhausted: List[tuple] = []

    # -- the run loop --------------------------------------------------------

    def run(self, jobs: List[dict]):
        """Yield one result per job, supervising until all have landed."""
        if not jobs:
            return
        results = self.ctx.Queue()
        # (not_before, job) — requeued jobs wait out their backoff.
        pending: List[tuple] = [(0.0, dict(job)) for job in jobs]
        outstanding = len(pending)
        slots: Dict[int, _WorkerSlot] = {}
        next_id = 0
        try:
            for _ in range(min(self.workers, len(pending))):
                slots[next_id] = self._spawn(next_id, results)
                next_id += 1
            while outstanding:
                now = time.monotonic()
                # Feed idle workers anything whose backoff has elapsed.
                for slot in slots.values():
                    if not pending:
                        break
                    if slot.busy:
                        continue
                    ready = next(
                        (i for i, (t, _) in enumerate(pending) if t <= now),
                        None,
                    )
                    if ready is None:
                        break
                    _, job = pending.pop(ready)
                    slot.job = job
                    slot.started_at = None
                    slot.dispatched_at = now
                    slot.mailbox.put(job)

                try:
                    kind, worker_id, record, error = results.get(
                        timeout=_POLL_S
                    )
                except queue_mod.Empty:
                    next_id = self._reap(slots, pending, results, next_id)
                    for done in self._drain_exhausted():
                        outstanding -= 1
                        yield done
                    continue

                slot = slots.get(worker_id)
                if slot is None:  # a message from an already-reaped worker
                    continue
                if kind == "start":
                    slot.started_at = time.monotonic()
                elif kind == "done":
                    slot.job = None
                    outstanding -= 1
                    yield record
                elif kind == "error":
                    job, slot.job = slot.job, None
                    if job is not None:
                        self._requeue(job, pending, f"worker raised {error}")
                        for done in self._drain_exhausted():
                            outstanding -= 1
                            yield done
        finally:
            self._shutdown(slots)

    # -- supervision ---------------------------------------------------------

    def _spawn(self, worker_id: int, results) -> _WorkerSlot:
        mailbox = self.ctx.Queue()
        process = self.ctx.Process(
            target=_worker_main,
            args=(worker_id, mailbox, results, self.worker_fn),
            daemon=True,
        )
        process.start()
        self.stats.workers_spawned += 1
        return _WorkerSlot(process=process, mailbox=mailbox)

    def _reap(self, slots, pending, results, next_id: int) -> int:
        """Detect dead/hung workers; requeue their jobs; respawn."""
        now = time.monotonic()
        for worker_id, slot in list(slots.items()):
            dead = not slot.process.is_alive()
            hung = (
                not dead
                and slot.busy
                and self.timeout_s is not None
                and slot.deadline_clock() is not None
                and now - slot.deadline_clock() > self.timeout_s
            )
            if not dead and not hung:
                continue
            if hung:
                self.stats.workers_hung += 1
                slot.process.terminate()
            else:
                self.stats.worker_deaths += 1
            slot.process.join(timeout=5.0)
            del slots[worker_id]
            if slot.job is not None:
                reason = "worker hung" if hung else (
                    f"worker died (exit {slot.process.exitcode})"
                )
                self._requeue(slot.job, pending, reason)
            # Replace the lost capacity (bounded by original width).
            if len(slots) < self.workers:
                slots[next_id] = self._spawn(next_id, results)
                next_id += 1
        return next_id

    def _requeue(self, job: dict, pending, reason: str) -> None:
        attempt = int(job.get(self.attempt_key, 0)) + 1
        if attempt > self.max_retries:
            self.stats.retries_exhausted += 1
            self._exhausted.append((job, reason))
            return
        self.stats.requeues += 1
        job = dict(job)
        job[self.attempt_key] = attempt
        not_before = time.monotonic() + self.backoff_s * (2 ** (attempt - 1))
        pending.append((not_before, job))

    def _drain_exhausted(self):
        for job, reason in self._exhausted:
            if self.on_exhausted is None:
                raise RuntimeError(
                    f"job exhausted its retries ({reason}) and no "
                    "on_exhausted handler was provided"
                )
            yield self.on_exhausted(job, reason)
        self._exhausted = []

    def _shutdown(self, slots) -> None:
        for slot in slots.values():
            try:
                slot.mailbox.put(None)
            except Exception:
                pass
        deadline = time.monotonic() + 2.0
        for slot in slots.values():
            slot.process.join(timeout=max(0.0, deadline - time.monotonic()))
        for slot in slots.values():
            if slot.process.is_alive():
                slot.process.terminate()
                slot.process.join(timeout=1.0)
