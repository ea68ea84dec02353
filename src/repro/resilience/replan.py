"""Online re-partitioning over the surviving devices of a pipeline.

When the :class:`~repro.resilience.controller.RecoveryController`
confirms a pipeline stage's device dead, the fleet does not fall back to
a stale plan — it re-runs the same cut-point DP that produced the
original plan, restricted to the survivors.  Routed through a warm
:mod:`repro.dse` cost store (or a shared in-memory context) every
(layer-range, device) cost the original search evaluated is a cache
hit, so the wall-clock price of a re-plan is milliseconds; its
*virtual-clock* price is the policy's ``replan_latency_s`` plus the new
plan's weight handover (:func:`handover_cycles`).

The survivor fleet keeps the original device order with the dead device
spliced out; the link that fed it is merged away (:func:`surviving_fleet`),
mirroring how a board would be bypassed on the physical interconnect.
"""

from __future__ import annotations

import math
from typing import Optional

from repro.errors import ReproError
from repro.partition.fleet import DeviceFleet


def surviving_fleet(fleet: DeviceFleet, dead_index: int) -> DeviceFleet:
    """``fleet`` with device ``dead_index`` (and its feeding link) removed.

    Removing an interior device merges its two adjacent links into the
    downstream one; removing an endpoint just drops the endpoint's only
    link.  Raises when the index is out of range or no device survives.
    """
    n = len(fleet.devices)
    if not 0 <= dead_index < n:
        raise ReproError(
            f"dead device index {dead_index} out of range for "
            f"{n}-device fleet"
        )
    if n < 2:
        raise ReproError("no surviving devices to re-plan over")
    devices = [d for i, d in enumerate(fleet.devices) if i != dead_index]
    links = list(fleet.links)
    if dead_index == 0:
        links = links[1:]
    elif dead_index == n - 1:
        links = links[:-1]
    else:
        links = links[: dead_index - 1] + links[dead_index:]
    name = f"{fleet.name}-minus{dead_index}" if fleet.name else None
    return DeviceFleet(devices, links=links, name=name)


def replan_survivors(
    plan,
    dead_stage: int,
    transfer_constraint_bytes: Optional[int] = None,
    context=None,
):
    """Re-run the cut-point DP over the survivors of ``plan``.

    ``dead_stage`` names the stage whose device died; the new plan
    covers the *whole* network over the remaining devices.  Pass the
    original search's ``context`` to make the re-plan a warm-cache
    operation (a store-backed context is flushed on return).
    """
    from repro.optimizer.dp import _flush_context
    from repro.partition.cut import partition_network

    placements = plan.placements
    if not 0 <= dead_stage < len(placements):
        raise ReproError(
            f"dead stage {dead_stage} out of range for "
            f"{len(placements)}-stage plan"
        )
    dead_device = placements[dead_stage].device_index
    survivors = surviving_fleet(plan.fleet, dead_device)
    if transfer_constraint_bytes is None:
        element_bytes = min(d.element_bytes for d in survivors.devices)
        transfer_constraint_bytes = plan.network.feature_map_bytes(
            element_bytes
        )
    try:
        return partition_network(
            plan.network,
            survivors,
            transfer_constraint_bytes=transfer_constraint_bytes,
            context=context,
        )
    finally:
        _flush_context(context)


def handover_cycles(plan, reference_hz: Optional[float] = None) -> float:
    """Virtual-clock cost of staging the new plan's weights.

    Every surviving device loads its stage's weights from host DRAM in
    parallel, so the handover is bounded by the slowest load:
    ``max(stage weight bytes / device bandwidth)``, expressed in cycles
    of ``reference_hz`` (the fleet's reference clock by default).
    """
    from repro.serve.runtime import weight_load_cycles

    if reference_hz is None:
        reference_hz = plan.fleet.reference_frequency_hz
    return max(
        (weight_load_cycles(p.strategy, reference_hz) for p in plan.placements),
        default=0.0,
    )


def replan_cycles(policy, frequency_hz: float) -> float:
    """The policy's re-plan latency on the virtual clock."""
    if math.isinf(policy.replan_latency_s):
        raise ReproError("replan latency must be finite")
    return policy.replan_latency_s * frequency_hz
