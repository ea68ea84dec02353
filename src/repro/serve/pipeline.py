"""Pipelined fleet serving: one PartitionPlan behind the dynamic batcher.

Where a flat :class:`~repro.serve.scheduler.FleetScheduler` serves
batches on N *identical replicas* of one device, this module serves them
on one (or more) *pipelines* of heterogeneous stages: each batch flows
stage 0 -> link -> stage 1 -> ... and a new batch may enter stage 0
while earlier batches occupy downstream stages — that overlap is where
the partition plan's throughput comes from.  Both run on the same
:class:`~repro.serve.runtime.Replica` executor: a flat replica is the
one-stage, link-free pipeline, so a one-device plan serves exactly like
a flat fleet of its strategy.

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

from typing import List, Optional, Union

from repro.faults import FaultSpec, RetryPolicy
from repro.serve.batcher import ServingError
from repro.serve.runtime import PipelineServiceModel, Replica, _ScaledStage
from repro.serve.scheduler import FleetScheduler, Policy
from repro.sim.simulator import build_service_model


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

    The scheduler, batcher, policies, metrics, executors and the whole
    resilience layer (retry/failover/admission control) are inherited
    unchanged from :class:`FleetScheduler`, which builds every replica
    as a whole pipeline of the plan's shape, admitting at its head
    stage; this class adds only online re-partitioning (the control
    plane's rebuild rung).  ``pipelines > 1`` models several independent fleets behind
    one batcher, which under a crash fault doubles as a spare board:
    batches from a downed pipeline fail over to the survivors.
    """

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
    ):
        """``resilience`` attaches the :mod:`repro.resilience` control
        plane; on confirmed death of one stage's device the controller
        re-partitions the network over the survivors.  Pass the original
        search's ``replan_context`` so the re-plan runs through a warm
        cost cache."""
        if pipelines < 1:
            raise ServingError(f"need >= 1 pipeline, got {pipelines}")
        self.plan = plan
        self.replan_context = replan_context
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
        control.archive_stats(fleet[index].stats())
        stats_base = control.alloc_stats_base(
            self.num_replicas * len(self.service_model.stages),
            len(model.stages),
        )
        fleet[index] = Replica(
            replica_id, [model], ready_cycle=ready, stats_base=stats_base
        )
        control.note_rebuilt(
            replica_id, cycle, ready,
            f"re-planned over {len(new_plan.placements)} surviving "
            f"stage(s); ready at cycle {ready:,.0f}",
        )
