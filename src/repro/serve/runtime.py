"""Accelerator replica: executes request batches on the timing model.

One :class:`AcceleratorReplica` stands for one FPGA board (or one
partition of a board) programmed with the compiled strategy.  It
executes batches through the same streaming-engine timing the
single-image simulator replays — service time comes from
:class:`repro.sim.simulator.ServiceModel`, i.e. the row-level pipeline
recurrence with the per-group resident-weight preload paid once per
batch — but tracks only *time*, not feature maps, so a replica can
serve thousands of requests in microseconds of host time.

Replicas live entirely on the scheduler's virtual clock: ``execute``
takes the dispatch cycle and returns the span the batch occupied.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.optimizer.strategy import Strategy
from repro.serve.batcher import InferenceRequest, ServingError
from repro.sim.simulator import ServiceModel, build_service_model


@dataclass(frozen=True)
class ReplicaStats:
    """Lifetime counters of one replica, frozen at report time."""

    replica_id: int
    batches: int
    requests: int
    busy_cycles: float
    failed_batches: int = 0  # batches lost to crashes / transient faults
    wasted_cycles: float = 0.0  # service cycles spent on failed batches

    def utilization(self, makespan_cycles: float) -> float:
        """Busy fraction over the serving window (successful work only)."""
        return self.busy_cycles / makespan_cycles if makespan_cycles > 0 else 0.0


@dataclass(frozen=True)
class BatchAttempt:
    """Outcome of dispatching one batch to one replica.

    ``end_cycle`` is the completion cycle on success, or the cycle the
    failure was detected (crash instant, or end of the wasted service
    for a transient fault).
    """

    start_cycle: float
    end_cycle: float
    ok: bool
    failure: Optional[str] = None  # "crash" | "transient"


class AcceleratorReplica:
    """One accelerator board executing batches back to back.

    A board shared by several tenants (several compiled models, see
    :class:`~repro.serve.scheduler.Tenant`) keeps one tenant's weights
    resident: a batch of another tenant first pays that tenant's
    ``swap_cycles`` to reload them (scaled by any active brownout, like
    the rest of the service), while the first load of an idle board is
    free.  Counters are kept per tenant.  With one tenant the swap term
    is identically zero.
    """

    def __init__(self, replica_id: int, service_model: ServiceModel):
        self.replica_id = replica_id
        self.models = [service_model]  # per tenant
        self.swap_prices = [0.0]  # per tenant
        self.busy_until = 0.0
        self.loaded: Optional[int] = None  # tenant whose weights are resident
        self.swaps = 0
        self.swap_cycles = 0.0
        self._clear_counters()

    def _clear_counters(self) -> None:
        n = len(self.models)
        self._busy = [0.0] * n
        self._batches = [0] * n
        self._requests = [0] * n
        self._failed_batches = [0] * n
        self._wasted = [0.0] * n

    @classmethod
    def shared(cls, replica_id: int, tenants: Sequence) -> "AcceleratorReplica":
        """A board serving ``tenants`` (in scheduler order): tenant ``t``'s
        batches run on ``tenants[t].service_model`` and pay its
        ``swap_cycles`` after another tenant's batch."""
        replica = cls(replica_id, tenants[0].service_model)
        replica.models = [t.service_model for t in tenants]
        replica.swap_prices = [t.swap_cycles for t in tenants]
        replica._clear_counters()
        return replica

    @classmethod
    def for_strategy(cls, replica_id: int, strategy: Strategy) -> "AcceleratorReplica":
        """Build a replica programmed with ``strategy``."""
        return cls(replica_id, build_service_model(strategy))

    def batch_cycles(self, batch_size: int) -> float:
        """Service time of one batch of the first tenant on this replica."""
        return self.models[0].batch_cycles(batch_size)

    def execute(
        self, batch: Sequence[InferenceRequest], dispatch_cycle: float
    ) -> Tuple[float, float]:
        """Run a batch, starting no earlier than ``dispatch_cycle``.

        The replica serves batches strictly in dispatch order: if it is
        still busy, the batch waits for the previous one to drain.

        Returns:
            ``(start_cycle, completion_cycle)`` of the batch.
        """
        attempt = self.execute_attempt(batch, dispatch_cycle)
        return attempt.start_cycle, attempt.end_cycle

    def execute_attempt(
        self,
        batch: Sequence[InferenceRequest],
        dispatch_cycle: float,
        injector=None,
        tenant: int = 0,
    ) -> BatchAttempt:
        """Run tenant ``tenant``'s batch under an optional fault injector.

        With no injector the batch always succeeds.  With one, the
        start skips the replica's down windows, the service time absorbs
        any active brownout scale, and the attempt can fail: a crash
        window opening mid-batch aborts it at the crash cycle, and a
        transient fault wastes the full service time.  Failed work is
        tracked in the wasted-cycle / failed-batch counters, never in
        the success counters.
        """
        if not batch:
            raise ServingError("cannot execute an empty batch")
        swap = 0.0
        if self.loaded is not None and self.loaded != tenant:
            swap = self.swap_prices[tenant]
        self.loaded = tenant
        start = max(dispatch_cycle, self.busy_until)
        scale = 1.0
        if injector is not None:
            start = injector.available_from(self.replica_id, start)
            scale = injector.service_scale(self.replica_id, start)
        service = (swap + self.models[tenant].batch_cycles(len(batch))) * scale
        end = start + service
        if swap > 0:
            self.swaps += 1
            self.swap_cycles += swap * scale
        if injector is not None:
            crash = injector.crash_in(self.replica_id, start, end)
            if crash is not None:
                self.busy_until = crash
                self._wasted[tenant] += crash - start
                self._failed_batches[tenant] += 1
                return BatchAttempt(start, crash, ok=False, failure="crash")
        self.busy_until = end
        if injector is not None and injector.transient_failure(self.replica_id):
            self._wasted[tenant] += service
            self._failed_batches[tenant] += 1
            return BatchAttempt(start, end, ok=False, failure="transient")
        self._busy[tenant] += service
        self._batches[tenant] += 1
        self._requests[tenant] += len(batch)
        return BatchAttempt(start, end, ok=True)

    def health(self, cycle: float, injector=None) -> str:
        """``up`` / ``draining`` / ``down`` at virtual time ``cycle``."""
        if injector is None:
            return "up"
        return injector.health(self.replica_id, cycle, self.busy_until)

    def stats(self, tenant: int = 0) -> ReplicaStats:
        """This replica's counters restricted to one tenant's work."""
        return ReplicaStats(
            replica_id=self.replica_id,
            batches=self._batches[tenant],
            requests=self._requests[tenant],
            busy_cycles=self._busy[tenant],
            failed_batches=self._failed_batches[tenant],
            wasted_cycles=self._wasted[tenant],
        )

    def __repr__(self) -> str:
        return (
            f"AcceleratorReplica(id={self.replica_id}, "
            f"busy_until={self.busy_until:.0f}, "
            f"requests={sum(self._requests)}, swaps={self.swaps})"
        )


def weight_load_cycles(strategy, frequency_hz: Optional[float] = None) -> float:
    """Cycles to stream ``strategy``'s weights from host DRAM.

    The price of reprogramming a warm board with the strategy: its
    weight bytes over the device's DRAM bandwidth, in cycles of
    ``frequency_hz`` (the strategy's device clock by default).
    """
    device = strategy.device
    if frequency_hz is None:
        frequency_hz = device.frequency_hz
    return (
        strategy.weight_transfer_bytes
        / device.bandwidth_bytes_per_s
        * frequency_hz
    )


def build_fleet(
    service_model: ServiceModel, replicas: int
) -> List[AcceleratorReplica]:
    """Instantiate ``replicas`` identical accelerator instances."""
    if replicas < 1:
        raise ServingError(f"a fleet needs >= 1 replica, got {replicas}")
    return [AcceleratorReplica(i, service_model) for i in range(replicas)]
