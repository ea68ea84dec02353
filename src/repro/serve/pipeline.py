"""Pipelined fleet serving: one PartitionPlan behind the dynamic batcher.

Where :class:`~repro.serve.scheduler.FleetScheduler` serves batches on N
*identical replicas* of one device, this module serves them on one (or
more) *pipelines* of heterogeneous stages: each batch flows stage 0 ->
link -> stage 1 -> ... and a new batch may enter stage 0 while earlier
batches occupy downstream stages — that overlap is where the partition
plan's throughput comes from.

Everything runs on one virtual clock in the fleet's **reference cycles**
(the first device's clock): each stage's batched service model — the
same :class:`~repro.sim.simulator.ServiceModel` a single-device fleet
uses, built from the stage's strategy — is rescaled by the ratio of
clocks, and link transfers convert through the reference frequency.
Metrics flow through the unchanged ``ServingMetrics`` machinery, with
one :class:`~repro.serve.runtime.ReplicaStats` row per pipeline stage
so per-device utilization is visible.

Fault model (:mod:`repro.faults`): a pipeline with a dead stage is a
dead pipeline — stage crashes fold into the owning replica's down
windows, so failover moves whole batches to a healthy (spare) pipeline.
Brownouts stretch stage service, link faults stretch (``scale``) or
sever (partition) individual inter-board transfers, and transient
failures void a batch's full traversal.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple, Union

from repro.faults import FaultInjector, FaultSpec, RetryPolicy
from repro.serve.batcher import InferenceRequest, ServingError
from repro.serve.runtime import BatchAttempt, ReplicaStats
from repro.serve.scheduler import FleetScheduler, Policy
from repro.sim.simulator import ServiceModel, build_service_model


class _ScaledStage:
    """One stage's batched service times, in reference cycles."""

    def __init__(self, model: ServiceModel, scale: float, label: str):
        self.model = model
        self.scale = scale
        self.label = label

    def batch_cycles(self, batch_size: int) -> float:
        return self.model.batch_cycles(batch_size) * self.scale


class PipelineServiceModel:
    """Batch-aware timing of a whole pipeline, in reference cycles.

    Drop-in for :class:`~repro.sim.simulator.ServiceModel` where the
    scheduler reads it: ``batch_cycles(B)`` is one batch's full
    traversal (the latency term), while :meth:`bottleneck_cycles` is the
    slowest stage or link (the throughput term a pipeline sustains).
    """

    def __init__(
        self,
        stages: Sequence[_ScaledStage],
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


class PipelineReplica:
    """One pipeline instance: a chain of stage executors plus links.

    Presents the same surface the scheduler's event loop dispatches to
    (``busy_until`` / ``execute_attempt`` / ``health``),
    with ``busy_until`` meaning *the head stage's* availability —
    downstream stages drain concurrently with newly admitted batches.
    """

    def __init__(
        self,
        replica_id: int,
        model: PipelineServiceModel,
        ready_cycle: float = 0.0,
        stats_base: Optional[int] = None,
    ):
        """``ready_cycle`` delays the whole pipeline's first admission —
        a replica rebuilt mid-run (online re-partitioning) starts busy
        until its re-plan and weight handover complete.  ``stats_base``
        overrides the default per-stage stats-row ids, so a rebuilt
        replica with a different stage count cannot collide with the
        original fleet's rows."""
        self.replica_id = replica_id
        self.model = model
        self.stats_base = stats_base
        stages = len(model.stages)
        self._stage_busy_until = [ready_cycle] * stages
        self._stage_busy_cycles = [0.0] * stages
        self._stage_wasted_cycles = [0.0] * stages
        self._link_busy_until = [ready_cycle] * (stages - 1)
        self.batches = 0
        self.requests = 0
        self.failed_batches = 0

    @property
    def busy_until(self) -> float:
        """When the head stage can admit the next batch."""
        return self._stage_busy_until[0]

    def execute_attempt(
        self,
        batch: Sequence[InferenceRequest],
        dispatch_cycle: float,
        injector=None,
        tenant: int = 0,
    ) -> BatchAttempt:
        """Push one batch down the pipeline under an optional injector.

        A pipeline serves a single tenant: ``tenant`` is always 0.
        Batches are served in dispatch order at every stage (each stage
        and link is busy until its previous batch clears it).

        With an injector the traversal is planned fault-aware: the head
        start skips the replica's down windows, each stage's service
        absorbs the brownout scale active at its start, and each link
        transfer is stretched by the link's degradation scale and
        stalled through partition windows.  A crash window opening
        inside the traversal aborts the batch — stages and links are
        committed only up to the crash cycle and the span they spent
        counts as wasted.  A batch that traverses cleanly can still fail
        a transient draw, wasting the full traversal on the head stage's
        books.
        """
        if not batch:
            raise ServingError("cannot execute an empty batch")
        size = len(batch)
        clock = max(dispatch_cycle, self.busy_until)
        if injector is not None:
            clock = injector.available_from(self.replica_id, clock)
        head_start = clock
        # Plan the traversal first, commit after the crash check — an
        # aborted batch must not advance stages past the crash cycle.
        stage_spans: List[Tuple[float, float, float]] = []
        link_spans: List[Tuple[float, float]] = []
        for index, stage in enumerate(self.model.stages):
            start = max(clock, self._stage_busy_until[index])
            service = stage.batch_cycles(size)
            if injector is not None:
                service *= injector.service_scale(self.replica_id, start)
            end = start + service
            stage_spans.append((start, end, service))
            clock = end
            if index < len(self.model.transfer_cycles):
                transfer = self.model.transfer_cycles[index](size)
                begin = max(clock, self._link_busy_until[index])
                if injector is not None:
                    transfer *= injector.link_scale(index, clock)
                    begin = injector.link_available_from(index, begin)
                link_spans.append((begin, begin + transfer))
                clock = begin + transfer
        end = clock
        crash = (
            None
            if injector is None
            else injector.crash_in(self.replica_id, head_start, end)
        )
        if crash is not None:
            # Commit stages/links only up to the crash cycle; every
            # cycle actually spent is wasted work.
            for index, (start, stop, _) in enumerate(stage_spans):
                if start >= crash:
                    break
                stop = min(stop, crash)
                self._stage_busy_until[index] = stop
                self._stage_wasted_cycles[index] += stop - start
            for index, (start, stop) in enumerate(link_spans):
                if start >= crash:
                    break
                self._link_busy_until[index] = min(stop, crash)
            self.failed_batches += 1
            return BatchAttempt(head_start, crash, ok=False, failure="crash")
        for index, (start, stop, _) in enumerate(stage_spans):
            self._stage_busy_until[index] = stop
        for index, (start, stop) in enumerate(link_spans):
            self._link_busy_until[index] = stop
        if injector is not None and injector.transient_failure(self.replica_id):
            for index, (start, stop, _) in enumerate(stage_spans):
                self._stage_wasted_cycles[index] += stop - start
            self.failed_batches += 1
            return BatchAttempt(head_start, end, ok=False, failure="transient")
        for index, (start, stop, service) in enumerate(stage_spans):
            # A fault-free run books the exact service time; a fault-aware
            # one books the committed span, like its wasted-cycle books.
            self._stage_busy_cycles[index] += (
                service if injector is None else stop - start
            )
        self.batches += 1
        self.requests += size
        return BatchAttempt(head_start, end, ok=True)

    def health(self, cycle: float, injector=None) -> str:
        """``up`` / ``draining`` / ``down`` at virtual time ``cycle``."""
        if injector is None:
            return "up"
        return injector.health(self.replica_id, cycle, self.busy_until)

    def stage_stats(self) -> List[ReplicaStats]:
        """One stats row per stage (utilization per fleet device).

        Failed-batch counts live on the head stage's row — a batch fails
        as a unit, not per stage — while each stage keeps its own wasted
        cycles.
        """
        base = (
            self.stats_base
            if self.stats_base is not None
            else self.replica_id * len(self.model.stages)
        )
        return [
            ReplicaStats(
                replica_id=base + index,
                batches=self.batches,
                requests=self.requests,
                busy_cycles=self._stage_busy_cycles[index],
                failed_batches=self.failed_batches if index == 0 else 0,
                wasted_cycles=self._stage_wasted_cycles[index],
            )
            for index in range(len(self.model.stages))
        ]

    def __repr__(self) -> str:
        return (
            f"PipelineReplica(id={self.replica_id}, "
            f"stages={len(self.model.stages)}, requests={self.requests})"
        )


def build_pipeline_model(
    plan, reference_hz: Optional[float] = None
) -> PipelineServiceModel:
    """Derive the reference-cycle pipeline timing of a PartitionPlan.

    ``reference_hz`` overrides the plan's own reference clock — used
    when a re-planned survivor pipeline must keep ticking in the
    *original* fleet's reference cycles (the dead device may have been
    the reference device).
    """
    if reference_hz is None:
        reference_hz = plan.fleet.reference_frequency_hz
    stages = []
    for placement in plan.placements:
        device = placement.device
        stages.append(
            _ScaledStage(
                build_service_model(placement.strategy),
                scale=reference_hz / device.frequency_hz,
                label=f"{device.name}[{placement.stage_id}]",
            )
        )
    transfer_cycles = []
    for transfer in plan.transfers:
        link, tensor_bytes = transfer.link, transfer.tensor_bytes

        def cycles(batch_size: int, link=link, tensor_bytes=tensor_bytes):
            # One tensor per image; the link's setup latency is paid per
            # batch (the images stream back to back).
            seconds = (
                link.latency_s
                + batch_size * tensor_bytes / link.bandwidth_bytes_per_s
            )
            return seconds * reference_hz

        transfer_cycles.append(cycles)
    return PipelineServiceModel(stages, transfer_cycles)


class PipelineFleetScheduler(FleetScheduler):
    """Serves request traces against pipelined copies of a PartitionPlan.

    The scheduler, batcher, policies, metrics, and the whole resilience
    layer (retry/failover/admission control) are inherited unchanged
    from :class:`FleetScheduler`; only the executors differ — each
    "replica" is a whole pipeline whose admission point is its head
    stage.  ``pipelines > 1`` models several independent fleets behind
    one batcher, which under a crash fault doubles as a spare board:
    batches from a downed pipeline fail over to the survivors.
    """

    # Pipeline attempts span downstream-stage queueing, so the
    # latency-inflation trigger (calibrated against pure service time)
    # is off — a cleanly overloaded pipeline must not trip the ladder;
    # failures and confirmed deaths still do.
    latency_trigger = False

    def __init__(
        self,
        plan,
        pipelines: int = 1,
        policy: Union[str, Policy] = Policy.LEAST_LOADED,
        max_batch: int = 8,
        max_wait_cycles: Optional[float] = None,
        faults: Union[FaultSpec, str, None] = None,
        fault_seed: int = 0,
        retry: Optional[RetryPolicy] = None,
        max_queue: Optional[int] = None,
        slo_cycles: Optional[float] = None,
        resilience=None,
        replan_context=None,
        replan_workers: Optional[int] = None,
    ):
        """``resilience`` attaches the :mod:`repro.resilience` control
        plane; on confirmed death of one stage's device the controller
        re-partitions the network over the survivors.  Pass the original
        search's ``replan_context`` so the re-plan runs through a warm
        cost cache (``replan_workers`` only changes wall time, never
        the plan)."""
        if pipelines < 1:
            raise ServingError(f"need >= 1 pipeline, got {pipelines}")
        self.plan = plan
        self.replan_context = replan_context
        self.replan_workers = replan_workers
        model = build_pipeline_model(plan)
        super().__init__(
            model,
            replicas=pipelines,
            policy=policy,
            max_batch=max_batch,
            max_wait_cycles=max_wait_cycles,
            frequency_hz=plan.fleet.reference_frequency_hz,
            ops_per_request=plan.total_ops,
            reference_gops=plan.effective_gops(),
            faults=faults,
            fault_seed=fault_seed,
            retry=retry,
            max_queue=max_queue,
            slo_cycles=slo_cycles,
            resilience=resilience,
        )

    def per_request_capacity_cycles(self) -> float:
        """Pipeline capacity is bottleneck-bound, not traversal-bound."""
        return (
            self.service_model.bottleneck_cycles(self.max_batch)
            / self.max_batch
        )

    def _build_replicas(self) -> List[PipelineReplica]:
        return [
            PipelineReplica(i, self.service_model)
            for i in range(self.num_replicas)
        ]

    def _build_injector(self) -> Optional[FaultInjector]:
        """Injector aware of the pipeline's links and stages."""
        if self.faults is None or self.faults.empty:
            return None
        return FaultInjector(
            self.faults,
            seed=self.fault_seed,
            replicas=self.num_replicas,
            links=len(self.service_model.transfer_cycles),
            stages=len(self.service_model.stages),
        )

    def _collect_stats(self, fleet, tenant: int) -> List[ReplicaStats]:
        stats: List[ReplicaStats] = []
        for replica in fleet:
            stats.extend(replica.stage_stats())
        if self._active_control is not None:
            # A rebuilt replica replaced its PipelineReplica mid-run;
            # the dead pipeline's rows were archived at swap time.
            stats.extend(self._active_control.archived_stats)
        stats.sort(key=lambda s: s.replica_id)
        return stats

    def _dead_stage(self, replica_id: int, cycle: float) -> List[int]:
        """Stages of ``replica_id`` whose crash window covers ``cycle``."""
        if self.faults is None:
            return []
        dead = set()
        for fault in self.faults.of_kind("crash"):
            if fault.replica != replica_id or fault.stage is None:
                continue
            start, end = fault.window
            if start <= cycle < end:
                dead.add(fault.stage)
        return sorted(dead)

    def _rebuild_replica(
        self, control, fleet, replica_id: int, cycle: float
    ) -> None:
        """Online re-partitioning: replace a dead pipeline with a plan
        over the surviving devices.

        The survivor plan comes from the same cut-point DP that built
        the original (through the warm cost store when one is wired),
        rescaled into the original reference clock.  The rebuilt
        replica becomes ready after the policy's re-plan latency plus
        the new plan's weight handover, and — since its plan no longer
        contains the dead device — it serves outside the original fault
        schedule.
        """
        from repro.errors import ReproError
        from repro.resilience.replan import (
            handover_cycles,
            replan_cycles,
            replan_survivors,
        )

        dead = self._dead_stage(replica_id, cycle)
        if len(dead) != 1:
            control.note_rebuild_failed(
                replica_id, cycle,
                f"cannot identify a single dead stage (candidates {dead})",
            )
            return
        try:
            new_plan = replan_survivors(
                self.plan,
                dead[0],
                context=self.replan_context,
                workers=self.replan_workers,
            )
        except ReproError as exc:
            control.note_rebuild_failed(replica_id, cycle, f"re-plan: {exc}")
            return
        model = build_pipeline_model(new_plan, reference_hz=self.frequency_hz)
        ready = (
            cycle
            + replan_cycles(self.resilience, self.frequency_hz)
            + handover_cycles(new_plan, self.frequency_hz)
        )
        index = next(
            i for i, r in enumerate(fleet) if r.replica_id == replica_id
        )
        control.archive_stats(fleet[index].stage_stats())
        stats_base = control.alloc_stats_base(
            self.num_replicas * len(self.service_model.stages),
            len(model.stages),
        )
        fleet[index] = PipelineReplica(
            replica_id, model, ready_cycle=ready, stats_base=stats_base
        )
        control.note_rebuilt(
            replica_id, cycle, ready,
            f"re-planned over {len(new_plan.placements)} surviving "
            f"stage(s); ready at cycle {ready:,.0f}",
        )
