"""Dynamic batching queue for the serving runtime.

Requests are collected into batches under two limits, the standard
dynamic-batching contract of inference servers:

* **max batch size** — a batch never exceeds ``max_batch`` requests;
  once that many are pending the batch is ready immediately.
* **max wait deadline** — a partial batch becomes ready once its
  *oldest* request has waited ``max_wait_cycles``, bounding the queueing
  latency a lone request can suffer in exchange for amortization.

Batching pays on this hardware because the accelerator loads each fusion
group's resident weights once per batch (see
:class:`repro.sim.simulator.GroupServiceModel`): a batch of B images
costs far less than B single-image passes on weight-heavy groups.

The batcher is a pure data structure over the *virtual* clock — it never
reads wall time.  The scheduler drives it with explicit ``now`` values,
which keeps every serving simulation exactly reproducible.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Deque, List, NamedTuple, Optional

from repro.errors import ReproError


class ServingError(ReproError):
    """The serving runtime was misconfigured or misused."""


class InferenceRequest(NamedTuple):
    """One inference request against the compiled model.

    An immutable named tuple: cheap to build once per arrival, equal by
    value (to a plain tuple of the same fields too).

    Attributes:
        request_id: Dense id, assigned in arrival order.
        arrival_cycle: Virtual-clock cycle the request entered the queue.
            For a retried request this is the *re*-arrival cycle — the
            original entry time is preserved in ``first_arrival_cycle``.
        attempts: Which dispatch attempt this enqueueing represents
            (1 for a fresh request).
        first_arrival_cycle: Original arrival of a retried request;
            None for fresh requests (then ``arrival_cycle`` is it).
    """

    request_id: int
    arrival_cycle: float
    attempts: int = 1
    first_arrival_cycle: Optional[float] = None

    @property
    def origin_cycle(self) -> float:
        """When the request first entered the system (deadline anchor)."""
        if self.first_arrival_cycle is None:
            return self.arrival_cycle
        return self.first_arrival_cycle

    def retry_at(self, cycle: float) -> "InferenceRequest":
        """The documented re-arrival path for a failed request.

        Returns a copy stamped with a fresh ``arrival_cycle`` (so the
        batcher's in-order contract holds), the attempt counter bumped,
        and the original arrival preserved for latency/deadline math.
        """
        return self._replace(
            arrival_cycle=float(cycle),
            attempts=self.attempts + 1,
            first_arrival_cycle=self.origin_cycle,
        )


class DynamicBatcher:
    """FIFO queue that groups requests into deadline-bounded batches."""

    def __init__(self, max_batch: int = 8, max_wait_cycles: float = 0.0):
        if max_batch < 1:
            raise ServingError(f"max_batch must be >= 1, got {max_batch}")
        if max_wait_cycles < 0:
            raise ServingError(
                f"max_wait_cycles must be >= 0, got {max_wait_cycles}"
            )
        self.max_batch = max_batch
        self.max_wait_cycles = max_wait_cycles
        self._pending: Deque[InferenceRequest] = deque()

    def __len__(self) -> int:
        return len(self._pending)

    @property
    def pending(self) -> List[InferenceRequest]:
        """The queued requests, oldest first (a copy)."""
        return list(self._pending)

    def add(self, request: InferenceRequest) -> None:
        """Enqueue a request (requests must arrive in time order)."""
        if self._pending and request.arrival_cycle < self._pending[-1].arrival_cycle:
            last = self._pending[-1]
            raise ServingError(
                f"request {request.request_id} arrives at "
                f"{request.arrival_cycle}, before already-queued request "
                f"{last.request_id} at {last.arrival_cycle}; requests must "
                f"be added in arrival order — re-enqueue retried requests "
                f"via requeue()/retry_at() to stamp a fresh arrival_cycle"
            )
        self._pending.append(request)

    def requeue(self, request: InferenceRequest, now: float) -> InferenceRequest:
        """Re-enqueue a failed request at virtual time ``now``.

        Stamps a fresh ``arrival_cycle`` (see
        :meth:`InferenceRequest.retry_at`) so the in-order contract of
        :meth:`add` holds, and returns the re-stamped request.  ``now``
        must be at or after the newest pending arrival, like any other
        arrival.
        """
        retried = request.retry_at(now)
        self.add(retried)
        return retried

    def has_full_batch(self) -> bool:
        """True when a batch can be cut without waiting for the deadline."""
        return len(self._pending) >= self.max_batch

    def next_deadline(self) -> Optional[float]:
        """When the oldest pending request's wait budget expires.

        None when the queue is empty.  A full batch is ready regardless
        of this deadline.
        """
        if not self._pending:
            return None
        return self._pending[0].arrival_cycle + self.max_wait_cycles

    def dispatch_cycle(self, now: float, ready_cycle: float) -> float:
        """When the next batch is cut for a replica free from ``ready_cycle``.

        A full batch goes as soon as both the clock and the replica are
        there; a partial one also waits for its oldest request's
        deadline.  Infinite when the queue is empty.
        """
        pending = self._pending
        if not pending:
            return math.inf
        if len(pending) >= self.max_batch:
            return max(now, ready_cycle)
        return max(now, pending[0].arrival_cycle + self.max_wait_cycles,
                   ready_cycle)

    def ready_at(self, now: float) -> bool:
        """Whether a batch should be cut at virtual time ``now``."""
        if not self._pending:
            return False
        return self.has_full_batch() or now >= self.next_deadline()

    def pop_batch(self, now: float) -> List[InferenceRequest]:
        """Cut and return the next batch (oldest ``max_batch`` requests).

        Raises:
            ServingError: If no batch is ready at ``now`` — the caller's
                virtual clock is ahead of or behind the queue state.
        """
        if not self.ready_at(now):
            raise ServingError(
                f"no batch ready at cycle {now}: {len(self._pending)} pending, "
                f"deadline {self.next_deadline()}"
            )
        batch = [
            self._pending.popleft()
            for _ in range(min(self.max_batch, len(self._pending)))
        ]
        return batch
