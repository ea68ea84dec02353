"""Replica: executes request batches on the timing model.

One :class:`Replica` stands for one member of a fleet: a single FPGA
board programmed with the compiled strategy, or a chain of boards
running a partition plan's stages joined by links.  A single board is
that chain with one stage and no links (:meth:`PipelineServiceModel.of`),
so one executor serves flat, multi-tenant and pipelined fleets alike.
It executes batches through the same streaming-engine timing the
single-image simulator replays — service time comes from
:class:`repro.sim.simulator.ServiceModel`, i.e. the row-level pipeline
recurrence with the per-group resident-weight preload paid once per
batch — but tracks only *time*, not feature maps, so a replica can
serve thousands of requests in milliseconds of host time.

Replicas live entirely on the scheduler's virtual clock:
``execute_attempt`` takes the dispatch cycle and returns the span the
batch occupied.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.serve.batcher import InferenceRequest, ServingError
from repro.sim.simulator import ServiceModel


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


class BatchAttempt(NamedTuple):
    """Outcome of dispatching one batch to one replica (a named tuple).

    ``end_cycle`` is the completion cycle on success, or the cycle the
    failure was detected (crash instant, or end of the wasted service
    for a transient fault).
    """

    start_cycle: float
    end_cycle: float
    ok: bool
    failure: Optional[str] = None  # "crash" | "transient"


class _ScaledStage:
    """One stage's batched service times on another board's clock."""

    def __init__(self, model: ServiceModel, scale: float):
        self.model = model
        self.scale = scale

    def batch_cycles(self, batch_size: int) -> float:
        return self.model.batch_cycles(batch_size) * self.scale


class PipelineServiceModel:
    """Batch-aware timing of a chain of stages joined by links.

    ``stages`` are per-stage batched timings in the fleet's reference
    cycles (a :class:`~repro.sim.simulator.ServiceModel` on the
    reference clock, a :class:`_ScaledStage` on any other), and
    ``transfer_cycles[i](B)`` is link ``i``'s transfer time from stage
    ``i`` to stage ``i + 1``.  ``batch_cycles(B)`` is one batch's full
    traversal (the latency term), while :meth:`bottleneck_cycles` is the
    slowest stage or link (the throughput term a pipeline sustains).
    One board is the one-stage, link-free case (:meth:`of`).
    """

    def __init__(
        self,
        stages: Sequence,
        transfer_cycles: Sequence[Callable[[int], float]],
    ):
        if not stages:
            raise ServingError("a pipeline needs at least one stage")
        if len(transfer_cycles) != len(stages) - 1:
            raise ServingError(
                f"{len(stages)} stages need {len(stages) - 1} transfers, "
                f"got {len(transfer_cycles)}"
            )
        self.stages = list(stages)
        self.transfer_cycles = list(transfer_cycles)
        self._head: Dict[int, float] = {}
        self._tail: Dict[int, Tuple[Tuple[float, float], ...]] = {}

    def head_cycles(self, batch_size: int) -> float:
        """The head stage's ``batch_cycles(batch_size)``, computed once
        per batch size: a replica charges it on every batch."""
        cycles = self._head.get(batch_size)
        if cycles is None:
            cycles = self._head[batch_size] = self.stages[0].batch_cycles(
                batch_size
            )
        return cycles

    def tail_cycles(self, batch_size: int) -> Tuple[Tuple[float, float], ...]:
        """Per link ``i``: its ``transfer_cycles[i](batch_size)`` and
        stage ``i + 1``'s ``batch_cycles(batch_size)``, computed once per
        batch size: a pipelined replica charges them on every batch."""
        tail = self._tail.get(batch_size)
        if tail is None:
            tail = self._tail[batch_size] = tuple(
                (transfer(batch_size), stage.batch_cycles(batch_size))
                for transfer, stage in zip(self.transfer_cycles, self.stages[1:])
            )
        return tail

    @classmethod
    def of(cls, model) -> "PipelineServiceModel":
        """``model`` as a pipeline: a plain service model becomes one
        link-free stage on the reference clock, so its batch times keep
        their bits."""
        return model if isinstance(model, cls) else cls([model], [])

    def batch_cycles(self, batch_size: int) -> float:
        """Reference cycles for one batch to traverse every stage."""
        total = 0.0
        for index, stage in enumerate(self.stages):
            total += stage.batch_cycles(batch_size)
            if index < len(self.transfer_cycles):
                total += self.transfer_cycles[index](batch_size)
        return total

    @property
    def single_image_cycles(self) -> float:
        """Pipeline latency of a lone image — the request-latency floor."""
        return self.batch_cycles(1)

    def bottleneck_cycles(self, batch_size: int) -> float:
        """Slowest stage or link for one batch — the initiation interval."""
        spans = [stage.batch_cycles(batch_size) for stage in self.stages]
        spans.extend(fn(batch_size) for fn in self.transfer_cycles)
        return max(spans)


class Replica:
    """One fleet member: a chain of boards executing batches in order.

    A flat fleet's replica is one board, a pipelined fleet's is a chain
    of stages joined by links; each tenant (see
    :class:`~repro.serve.scheduler.Tenant`) runs on its own
    :class:`PipelineServiceModel` of that shape.  ``busy_until`` is the
    head stage's availability — downstream stages and links drain
    concurrently with newly admitted batches, each busy until its
    previous batch clears it.

    A replica keeps one tenant's weights resident: a batch of another
    tenant first pays that tenant's ``swap_prices`` entry on the head
    stage (scaled by any active brownout, like the rest of the
    service), while the first load of an idle replica is free.
    Counters are kept per tenant and per stage.
    """

    def __init__(
        self,
        replica_id: int,
        models: Sequence[PipelineServiceModel],
        swap_prices: Optional[Sequence[float]] = None,
        ready_cycle: float = 0.0,
        stats_base: Optional[int] = None,
    ):
        """``models`` holds one pipeline per tenant (all of one shape).
        ``ready_cycle`` delays the first admission — a replica rebuilt
        mid-run (online re-partitioning) starts busy until its re-plan
        and weight handover complete.  ``stats_base`` overrides the
        default per-stage stats-row ids, so a rebuilt replica with a
        different stage count cannot collide with the original fleet's
        rows."""
        self.replica_id = replica_id
        self.models = list(models)
        self.swap_prices = (
            list(swap_prices) if swap_prices is not None
            else [0.0] * len(self.models)
        )
        self.stats_base = stats_base
        self.num_stages = stages = len(self.models[0].stages)
        self.busy_until = ready_cycle  # head stage
        self._stage_busy_until = [ready_cycle] * (stages - 1)  # stages 1..
        self._link_busy_until = [ready_cycle] * (stages - 1)
        self.loaded: Optional[int] = None  # tenant whose weights are resident
        self.swaps = 0
        self.swap_cycles = 0.0
        self._busy = [[0.0] * stages for _ in self.models]
        self._wasted = [[0.0] * stages for _ in self.models]
        self._batches = [0] * len(self.models)
        self._requests = [0] * len(self.models)
        self._failed_batches = [0] * len(self.models)

    def execute_attempt(
        self,
        batch: Sequence[InferenceRequest],
        dispatch_cycle: float,
        injector=None,
        tenant: int = 0,
    ) -> BatchAttempt:
        """Push tenant ``tenant``'s batch through every stage under an
        optional fault injector.

        With no injector the batch always succeeds.  With one, the head
        start skips the replica's down windows, each stage's service
        absorbs the brownout scale active at its start, and each link
        transfer is stretched by the link's degradation scale and stalled
        through partition windows.  A crash window opening inside the
        traversal aborts the batch: stages and links are committed only
        up to the crash cycle.  A batch that traverses cleanly can still
        fail a transient draw, wasting its full service.  Work is booked
        as each stage's exact service time (a crashed stage books the
        span it ran), successful work in the busy counters and failed
        work in the wasted ones.
        """
        if not batch:
            raise ServingError("cannot execute an empty batch")
        size = len(batch)
        model = self.models[tenant]
        swap = 0.0
        if self.loaded is not None and self.loaded != tenant:
            swap = self.swap_prices[tenant]
        self.loaded = tenant
        start = max(dispatch_cycle, self.busy_until)
        scale = 1.0
        if injector is not None:
            start = injector.available_from(self.replica_id, start)
            scale = injector.service_scale(self.replica_id, start)
        service = (swap + model.head_cycles(size)) * scale
        head_end = end = start + service
        if swap > 0:
            self.swaps += 1
            self.swap_cycles += swap * scale
        # Plan the downstream traversal first, commit after the crash
        # check — an aborted batch must not advance stages past it.
        tail = None
        if self.num_stages > 1:
            tail, end = self._plan_tail(model, size, end, injector)
        if injector is not None:
            crash = injector.crash_in(self.replica_id, start, end)
            if crash is not None:
                self.busy_until = min(head_end, crash)
                wasted = self._wasted[tenant]
                wasted[0] += service if head_end <= crash else crash - start
                if tail is not None:
                    self._commit_tail(tail, wasted, crash)
                self._failed_batches[tenant] += 1
                return BatchAttempt(start, crash, ok=False, failure="crash")
        self.busy_until = head_end
        failed = injector is not None and injector.transient_failure(
            self.replica_id
        )
        book = self._wasted[tenant] if failed else self._busy[tenant]
        book[0] += service
        if tail is not None:
            self._commit_tail(tail, book)
        if failed:
            self._failed_batches[tenant] += 1
            return BatchAttempt(start, end, ok=False, failure="transient")
        self._batches[tenant] += 1
        self._requests[tenant] += size
        return BatchAttempt(start, end, ok=True)

    def _plan_tail(self, model, size, clock, injector):
        """Link ``i`` then stage ``i + 1``, for every link: their
        ``(begin, end)`` and ``(start, end, service)`` spans, and the
        traversal's end."""
        tail = []
        for index, (transfer, service) in enumerate(model.tail_cycles(size)):
            begin = max(clock, self._link_busy_until[index])
            if injector is not None:
                transfer *= injector.link_scale(index, clock)
                begin = injector.link_available_from(index, begin)
            clock = begin + transfer
            start = max(clock, self._stage_busy_until[index])
            if injector is not None:
                service *= injector.service_scale(self.replica_id, start)
            tail.append(((begin, clock), (start, start + service, service)))
            clock = start + service
        return tail, clock

    def _commit_tail(self, tail, book, crash: float = inf) -> None:
        """Advance links and downstream stages, up to ``crash`` at most,
        booking each stage's service (or, cut by the crash, its span)."""
        for index, ((begin, arrive), (start, stop, service)) in enumerate(tail):
            if begin >= crash:
                return
            self._link_busy_until[index] = min(arrive, crash)
            if start >= crash:
                return
            self._stage_busy_until[index] = min(stop, crash)
            book[index + 1] += service if stop <= crash else crash - start

    def health(self, cycle: float, injector=None) -> str:
        """``up`` / ``draining`` / ``down`` at virtual time ``cycle``."""
        if injector is None:
            return "up"
        return injector.health(self.replica_id, cycle, self.busy_until)

    def stats(self, tenant: int = 0) -> List[ReplicaStats]:
        """One row of tenant ``tenant``'s work per stage.

        Rows are numbered from ``stats_base`` (default: ``replica_id``
        times the stage count).  Failed-batch counts live on the head
        stage's row — a batch fails as a unit — while each stage keeps
        its own wasted cycles.
        """
        base = (
            self.stats_base
            if self.stats_base is not None
            else self.replica_id * self.num_stages
        )
        return [
            ReplicaStats(
                replica_id=base + index,
                batches=self._batches[tenant],
                requests=self._requests[tenant],
                busy_cycles=self._busy[tenant][index],
                failed_batches=self._failed_batches[tenant] if index == 0 else 0,
                wasted_cycles=self._wasted[tenant][index],
            )
            for index in range(self.num_stages)
        ]

    def __repr__(self) -> str:
        return (
            f"Replica(id={self.replica_id}, stages={self.num_stages}, "
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
