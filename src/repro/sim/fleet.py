"""Fleet simulation: execute a PartitionPlan stage by stage.

Chains the existing single-device simulator across the fleet: every
stage's functional output (actual feature maps through the streaming
engines) feeds the next stage, with an explicit **transfer span** on the
link between them.  The functional result is therefore identical to
simulating the unpartitioned network — asserted in tests — while the
timeline gains one span per device and one per link, all in seconds so
heterogeneous clocks compose.

The timeline describes one image traversing the pipeline (latency).  In
steady state the fleet overlaps images: one emerges per *pipeline
interval* — the longest span — which is the number the partition DP
minimizes and the serving runtime sustains.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.errors import SimulationError
from repro.nn.functional import init_graph_weights, init_weights
from repro.nn.graph import Graph
from repro.sim.simulator import SimulationResult, simulate_strategy


@dataclass(frozen=True)
class StageSpan:
    """One device's busy window while the image crosses its stage."""

    stage_id: int
    device_name: str
    start_s: float
    end_s: float
    sim: SimulationResult

    @property
    def seconds(self) -> float:
        return self.end_s - self.start_s


@dataclass(frozen=True)
class TransferSpan:
    """The cut tensor's journey across one inter-device link."""

    link_index: int
    tensor_bytes: int
    start_s: float
    end_s: float

    @property
    def seconds(self) -> float:
        return self.end_s - self.start_s


@dataclass
class FleetSimulationResult:
    """Outcome of simulating a partition plan on one input image."""

    output: np.ndarray
    stages: List[StageSpan]
    transfers: List[TransferSpan]

    @property
    def latency_seconds(self) -> float:
        """End-to-end: input enters stage 0, output leaves the tail."""
        return self.stages[-1].end_s

    @property
    def pipeline_interval_seconds(self) -> float:
        """Steady-state initiation interval: the longest span."""
        spans = [span.seconds for span in self.stages]
        spans.extend(span.seconds for span in self.transfers)
        return max(spans)

    @property
    def throughput_images_per_s(self) -> float:
        return 1.0 / self.pipeline_interval_seconds

    def report(self) -> str:
        lines = [
            f"fleet simulation: {self.latency_seconds * 1e3:.2f} ms latency, "
            f"{self.pipeline_interval_seconds * 1e3:.2f} ms pipeline interval "
            f"({self.throughput_images_per_s:.1f} img/s steady state)"
        ]
        for stage in self.stages:
            lines.append(
                f"  stage {stage.stage_id} on {stage.device_name}: "
                f"{stage.start_s * 1e3:.2f} -> {stage.end_s * 1e3:.2f} ms "
                f"({stage.sim.latency_cycles:,.0f} device cycles)"
            )
            for transfer in self.transfers:
                if transfer.link_index == stage.stage_id:
                    lines.append(
                        f"  link  {transfer.link_index}: "
                        f"{transfer.tensor_bytes / 1024:.0f} KB, "
                        f"{transfer.start_s * 1e3:.2f} -> "
                        f"{transfer.end_s * 1e3:.2f} ms"
                    )
        return "\n".join(lines)


def simulate_partition(
    plan,
    data: Optional[np.ndarray] = None,
    weights: Optional[dict] = None,
    seed: int = 0,
    faults=None,
) -> FleetSimulationResult:
    """Run one image through a :class:`~repro.partition.plan.PartitionPlan`.

    Args:
        plan: The partition plan to execute.
        data: Input blob; a seeded random input otherwise.
        weights: Parameters for the *full* model (stage slices keep
            the original layer/node names, so one dict serves every
            stage); seeded random weights otherwise.
        seed: Controls the generated input and weights, exactly like
            :meth:`repro.toolflow.CompileResult.simulate`.
        faults: Optional :class:`repro.faults.FaultSpec` (or its string
            form) degrading the timeline: the image stalls through
            crash/down windows, compute stretches under brownouts, and
            transfers stretch under link degradation or stall through
            partitions.  Probabilistic (transient) faults are a serving
            concern and are ignored here — one image's functional pass
            either completes or, if a fault never lifts, raises
            :class:`~repro.errors.SimulationError`.  The functional
            output is untouched either way.
    """
    network = plan.network
    rng = np.random.default_rng(seed)
    if data is None:
        data = rng.normal(0, 0.5, network.input_spec.shape)
    if weights is None:
        init = init_graph_weights if isinstance(network, Graph) else init_weights
        weights = init(network, rng)

    injector = None
    if faults is not None:
        from repro.faults import FaultInjector, FaultSpec

        spec = FaultSpec.parse(faults) if isinstance(faults, str) else faults
        if not spec.empty:
            injector = FaultInjector(
                spec,
                replicas=1,
                links=len(plan.transfers),
                stages=len(plan.placements),
            )
    reference_hz = plan.fleet.reference_frequency_hz

    current = np.asarray(data, dtype=float)
    clock_s = 0.0
    stages: List[StageSpan] = []
    transfers: List[TransferSpan] = []
    for placement, transfer in _stage_transfer_pairs(plan):
        device = placement.device
        sim = simulate_strategy(placement.strategy, current, weights)
        start_s = clock_s
        seconds = device.cycles_to_seconds(sim.latency_cycles)
        if injector is not None:
            # The virtual clock of the fault schedule runs in the
            # fleet's reference cycles; convert at the boundary.
            start_cycle = injector.available_from(0, start_s * reference_hz)
            if np.isinf(start_cycle):
                raise SimulationError(
                    f"stage {placement.stage_id} never recovers under the "
                    f"fault schedule (permanent crash); the image cannot "
                    f"traverse the pipeline"
                )
            start_s = start_cycle / reference_hz
            seconds *= injector.service_scale(0, start_cycle)
        end_s = start_s + seconds
        stages.append(
            StageSpan(
                stage_id=placement.stage_id,
                device_name=device.name,
                start_s=start_s,
                end_s=end_s,
                sim=sim,
            )
        )
        clock_s = end_s
        current = sim.output
        if transfer is not None:
            seconds = transfer.seconds
            start_s = clock_s
            if injector is not None:
                index = transfer.link_index
                begin_cycle = injector.link_available_from(
                    index, start_s * reference_hz
                )
                if np.isinf(begin_cycle):
                    raise SimulationError(
                        f"link {index} never recovers under the fault "
                        f"schedule (permanent partition); the image cannot "
                        f"traverse the pipeline"
                    )
                start_s = begin_cycle / reference_hz
                seconds *= injector.link_scale(index, begin_cycle)
            transfers.append(
                TransferSpan(
                    link_index=transfer.link_index,
                    tensor_bytes=transfer.tensor_bytes,
                    start_s=start_s,
                    end_s=start_s + seconds,
                )
            )
            clock_s = start_s + seconds
    expected = network.output_shape
    if tuple(current.shape) != tuple(expected):
        raise SimulationError(
            f"fleet simulation produced shape {current.shape}, "
            f"network output is {expected}"
        )
    return FleetSimulationResult(
        output=current, stages=stages, transfers=transfers
    )


def _stage_transfer_pairs(plan) -> List[Tuple[object, Optional[object]]]:
    """Each placement with the transfer that follows it (None for the tail)."""
    pairs = []
    for index, placement in enumerate(plan.placements):
        transfer = (
            plan.transfers[index] if index < len(plan.transfers) else None
        )
        pairs.append((placement, transfer))
    return pairs
