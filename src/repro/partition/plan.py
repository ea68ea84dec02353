"""PartitionPlan: the artifact a multi-FPGA partition search produces.

A plan assigns a contiguous range of one model's top-level **units** to
every used fleet device, plus the inter-device transfers crossing each
cut.  A chain network's units are its layers, and each range carries
the full single-device :class:`~repro.optimizer.strategy.Strategy` the
existing DP chose for it.  A DAG's units are its top-level nodes and
whole fork-join blocks (:func:`model_units`), and each range carries a
:class:`~repro.optimizer.graph_dp.GraphStrategy`.  It is to the
partition layer what ``Strategy`` is to the single-device optimizer: the
hand-off between search, simulation, serving and the saved artifact,
which all take either kind of stage strategy.

Timing is expressed in **seconds**, not cycles: a heterogeneous fleet
has no single clock, so stage latencies convert through each device's
frequency and link transfers through link bandwidth.  In steady state a
pipelined fleet emits one image per *bottleneck interval* — the slowest
stage or link — while a single image still pays the sum of every stage
and transfer end to end.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.check.artifacts import (
    fleet_digest,
    load_envelope,
    network_digest,
    require,
    require_index,
    save_artifact,
)
from repro.errors import ArtifactSchemaError, ArtifactVersionError, PartitionError
from repro.nn.graph import Graph, sp_leaf_names
from repro.nn.network import Network
from repro.optimizer.graph_dp import GraphStrategy
from repro.optimizer.serialize import strategy_from_dict, strategy_to_dict
from repro.optimizer.strategy import Strategy
from repro.partition.fleet import DeviceFleet, Link
from repro.perf.cost import CostModel, SearchTelemetry

PLAN_SCHEMA_VERSION = 1

#: Artifact kind recorded in the envelope.
PLAN_ARTIFACT_KIND = "partition_plan"


def model_units(model: Union[Network, Graph]) -> List[Tuple]:
    """The model's cut-atomic units, each a tuple of node infos.

    A chain's units are its layers.  A DAG's units are the blocks of
    its top-level series-parallel decomposition: a single node, or a
    whole fork-join block — cutting inside one would put the fork tensor
    on two boards.  Infos are in execution order, so a unit's last info
    (a block's join) produces the tensor crossing a cut after it.
    """
    if isinstance(model, Graph):
        return [
            tuple(model.node(name) for name in sp_leaf_names(block))
            for block in model.decompose().blocks
        ]
    return [(info,) for info in model]


@dataclass(frozen=True)
class StagePlacement:
    """One pipeline stage: a unit range bound to one fleet device."""

    stage_id: int
    device_index: int  # position in the fleet (== stage_id for used prefix)
    start: int  # first unit index in the full model
    stop: int  # one past the last unit index
    strategy: Union[Strategy, GraphStrategy]

    @property
    def device(self):
        return self.strategy.device

    @property
    def latency_seconds(self) -> float:
        """Per-image service time of this stage."""
        return self.strategy.latency_seconds()

    @property
    def nodes(self) -> Tuple[str, ...]:
        """Model layers/nodes this stage executes."""
        return tuple(self.strategy.node_names())


@dataclass(frozen=True)
class StageTransfer:
    """The cut tensor moving between two adjacent stages."""

    link_index: int  # stages link_index -> link_index + 1
    link: Link
    tensor_bytes: int

    @property
    def seconds(self) -> float:
        return self.link.transfer_seconds(self.tensor_bytes)


class PartitionPlan:
    """A complete mapping of one model onto a device fleet.

    Stages cover the model's units contiguously and run as a pipeline:
    stage ``s`` feeds stage ``s + 1`` through ``transfers[s]``.  A plan
    over a single device has no transfers and is exactly the
    single-device strategy.  ``network`` is the chain
    :class:`Network` or the DAG :class:`Graph` that was split.
    """

    def __init__(
        self,
        network: Union[Network, Graph],
        fleet: DeviceFleet,
        placements: Sequence[StagePlacement],
        transfers: Sequence[StageTransfer],
        telemetry: Optional[SearchTelemetry] = None,
        baseline_latency_seconds: Optional[float] = None,
    ):
        if not placements:
            raise PartitionError("a partition plan needs at least one stage")
        if len(transfers) != len(placements) - 1:
            raise PartitionError(
                f"{len(placements)} stages need {len(placements) - 1} "
                f"transfers, got {len(transfers)}"
            )
        units = model_units(network)
        expected = 0
        for placement in placements:
            if placement.start != expected:
                raise PartitionError(
                    f"stages must tile the network contiguously; stage "
                    f"{placement.stage_id} starts at {placement.start}, "
                    f"expected {expected}"
                )
            expected = placement.stop
        if expected != len(units):
            raise PartitionError(
                f"stages cover {expected} units, {network.name!r} has "
                f"{len(units)}"
            )
        self.network = network
        self.units = units
        self.fleet = fleet
        self.placements = list(placements)
        self.transfers = list(transfers)
        #: Telemetry of the search that produced this plan (None for
        #: hand-assembled or deserialized plans).
        self.telemetry = telemetry
        #: Latency of the best *single-device* strategy on the fleet's
        #: first device, for speedup reporting (None when infeasible
        #: there, e.g. the model only fits when split).
        self.baseline_latency_seconds = baseline_latency_seconds

    # -- aggregate metrics ---------------------------------------------------

    @property
    def num_stages(self) -> int:
        return len(self.placements)

    @property
    def stage_seconds(self) -> List[float]:
        return [p.latency_seconds for p in self.placements]

    @property
    def transfer_seconds(self) -> List[float]:
        return [t.seconds for t in self.transfers]

    @property
    def bottleneck_seconds(self) -> float:
        """Steady-state pipeline interval: the slowest stage or link."""
        return max(self.stage_seconds + self.transfer_seconds)

    @property
    def latency_seconds(self) -> float:
        """End-to-end latency of one image through the whole pipeline."""
        return sum(self.stage_seconds) + sum(self.transfer_seconds)

    @property
    def throughput_images_per_s(self) -> float:
        """Steady-state pipelined throughput (one image per bottleneck)."""
        return 1.0 / self.bottleneck_seconds

    @property
    def total_ops(self) -> int:
        return sum(p.strategy.total_ops for p in self.placements)

    def effective_gops(self) -> float:
        """Fleet-level effective performance at steady state."""
        return self.total_ops / self.bottleneck_seconds / 1e9

    def pipelined_speedup(self) -> Optional[float]:
        """Steady-state speedup over the single-device baseline."""
        if self.baseline_latency_seconds is None:
            return None
        return self.baseline_latency_seconds / self.bottleneck_seconds

    # -- hooks into the rest of the stack ------------------------------------

    def simulate(
        self,
        data: Optional[np.ndarray] = None,
        weights: Optional[dict] = None,
        seed: int = 0,
        faults=None,
    ):
        """Run the cycle-approximate simulator stage by stage.

        Returns a :class:`repro.sim.fleet.FleetSimulationResult` whose
        functional output matches the unpartitioned network's and whose
        timeline carries per-device and per-link spans.  ``faults``
        (a :class:`repro.faults.FaultSpec` or its string form) degrades
        the timeline deterministically — crashed stages stall through
        their down windows, brownouts stretch compute, link faults
        stretch or sever transfers.
        """
        from repro.sim.fleet import simulate_partition

        return simulate_partition(
            self,
            data=data,
            weights=weights,
            seed=seed,
            faults=faults,
        )

    def serve(
        self,
        pipelines: int = 1,
        policy: str = "least_loaded",
        max_batch: int = 8,
        max_wait_cycles: Optional[float] = None,
        faults=None,
        fault_seed: int = 0,
        retry=None,
        max_queue: Optional[int] = None,
        slo_cycles: Optional[float] = None,
        resilience=None,
        replan_context=None,
        verify: bool = True,
    ):
        """Stand up a simulated pipelined serving fleet for this plan.

        Returns a :class:`repro.serve.pipeline.PipelineFleetScheduler`;
        its metrics flow through the same ``ServingMetrics`` machinery
        as single-device fleets, on the fleet's reference clock.  Pass
        ``faults`` / ``fault_seed`` / ``retry`` / ``max_queue`` /
        ``slo_cycles`` for deterministic chaos runs (see
        :mod:`repro.faults`); ``pipelines > 1`` gives crashed batches a
        spare pipeline to fail over to.  ``resilience`` attaches the
        :mod:`repro.resilience` control plane — on confirmed death of a
        stage's device the fleet re-partitions the network over the
        survivors (pass ``replan_context`` so the re-plan hits a warm
        cost cache).
        ``verify`` (default on) runs the plan invariant
        validators at admission, rejecting a stale or inconsistent plan
        with a :class:`~repro.errors.VerificationError` before it serves
        traffic; serving behaviour is identical either way.
        """
        from repro.serve.pipeline import PipelineFleetScheduler

        if verify:
            from repro.check.invariants import verify_plan

            verify_plan(self).raise_if_failed()
        return PipelineFleetScheduler(
            self,
            pipelines=pipelines,
            policy=policy,
            max_batch=max_batch,
            max_wait_cycles=max_wait_cycles,
            faults=faults,
            fault_seed=fault_seed,
            retry=retry,
            max_queue=max_queue,
            slo_cycles=slo_cycles,
            resilience=resilience,
            replan_context=replan_context,
        )

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-serializable description (devices recorded by name)."""
        return {
            "schema_version": PLAN_SCHEMA_VERSION,
            "network": self.network.name,
            "fleet": {
                "devices": [d.name for d in self.fleet.devices],
                "links": [
                    {
                        "bandwidth_bytes_per_s": link.bandwidth_bytes_per_s,
                        "latency_s": link.latency_s,
                    }
                    for link in self.fleet.links
                ],
            },
            "bottleneck_seconds": self.bottleneck_seconds,
            "latency_seconds": self.latency_seconds,
            "baseline_latency_seconds": self.baseline_latency_seconds,
            "stages": [
                {
                    "stage_id": p.stage_id,
                    "device_index": p.device_index,
                    "range": [p.start, p.stop],
                    "strategy": strategy_to_dict(p.strategy),
                }
                for p in self.placements
            ],
            "transfers": [
                {"link_index": t.link_index, "tensor_bytes": t.tensor_bytes}
                for t in self.transfers
            ],
        }

    def digests(self) -> dict:
        """Envelope digests binding this plan to its network and fleet."""
        return {
            "network": network_digest(self.network),
            "fleet": fleet_digest(self.fleet),
        }

    def save(self, path: Union[str, Path]) -> Path:
        """Atomically write the plan artifact (envelope + payload JSON)."""
        return save_artifact(
            path, PLAN_ARTIFACT_KIND, self.to_dict(), digests=self.digests()
        )

    def report(self) -> str:
        """Per-stage table plus the pipeline-level numbers."""
        lines = [
            f"Partition of {self.network.name} across {self.fleet.name}: "
            f"{self.num_stages} stage(s), "
            f"bottleneck {self.bottleneck_seconds * 1e3:.2f} ms "
            f"({self.throughput_images_per_s:.1f} img/s pipelined), "
            f"end-to-end latency {self.latency_seconds * 1e3:.2f} ms, "
            f"{self.effective_gops():.1f} effective GOPS"
        ]
        header = (
            f"{'stage':>5} {'device':<10} {'layers':<18} {'groups':>6} "
            f"{'latency ms':>11} {'share':>6}"
        )
        lines.append(header)
        lines.append("-" * len(header))
        bottleneck = self.bottleneck_seconds
        for p in self.placements:
            first = self.units[p.start][0].name
            last = self.units[p.stop - 1][-1].name
            span = first if first == last else f"{first}..{last}"
            groups = (
                p.strategy.segments
                if isinstance(p.strategy, GraphStrategy)
                else p.strategy.designs
            )
            lines.append(
                f"{p.stage_id:>5} {p.device.name:<10} {span:<18} "
                f"{len(groups):>6} "
                f"{p.latency_seconds * 1e3:>11.2f} "
                f"{p.latency_seconds / bottleneck * 100:>5.0f}%"
            )
            if p.stage_id < len(self.transfers):
                t = self.transfers[p.stage_id]
                lines.append(
                    f"{'':>5} {'-> link':<10} "
                    f"{t.tensor_bytes / 1024:.0f} KB cut tensor"
                    f"{'':<4} {'':>6} {t.seconds * 1e3:>11.3f} "
                    f"{t.seconds / bottleneck * 100:>5.0f}%"
                )
        speedup = self.pipelined_speedup()
        if speedup is not None and self.num_stages > 1:
            lines.append(
                f"single-device baseline on {self.fleet.devices[0].name}: "
                f"{self.baseline_latency_seconds * 1e3:.2f} ms/img "
                f"-> pipelined speedup {speedup:.2f}x"
            )
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"PartitionPlan(network={self.network.name!r}, "
            f"stages={self.num_stages}, "
            f"bottleneck={self.bottleneck_seconds * 1e3:.2f}ms)"
        )


def plan_from_dict(
    payload: dict,
    network: Union[Network, Graph],
    fleet: Optional[DeviceFleet] = None,
    context: Optional[CostModel] = None,
    path: str = "$",
) -> PartitionPlan:
    """Rebuild a plan by re-evaluating every stage strategy.

    Args:
        payload: A dict produced by :meth:`PartitionPlan.to_dict`.
        network: The accelerated model the plan was built for: the
            chain :class:`Network` or the DAG :class:`Graph`.
        fleet: Target fleet; defaults to the recorded catalog devices
            and link parameters.
        context: Shared evaluation layer for the re-evaluation drift
            check (see :mod:`repro.optimizer.serialize`).
        path: JSON path prefix for error reporting.

    Raises:
        ArtifactError: On schema/value damage or stage/network drift,
            with an error code and the JSON path of the offending field.
    """
    version = require(payload, "schema_version", int, path)
    if version != PLAN_SCHEMA_VERSION:
        raise ArtifactVersionError(
            "E_VERSION",
            f"{path}.schema_version",
            f"unsupported partition schema version {version!r} "
            f"(expected {PLAN_SCHEMA_VERSION})",
        )
    if fleet is None:
        recorded = require(payload, "fleet", dict, path)
        fleet_path = f"{path}.fleet"
        names = require(recorded, "devices", list, fleet_path)
        if not names or not all(isinstance(n, str) for n in names):
            raise ArtifactSchemaError(
                "E_FIELD_VALUE",
                f"{fleet_path}.devices",
                f"expected a non-empty list of device names, found {names!r}",
            )
        base = DeviceFleet.from_spec(names)
        links = []
        for index, entry in enumerate(
            require(recorded, "links", list, fleet_path)
        ):
            link_path = f"{fleet_path}.links[{index}]"
            links.append(
                Link(
                    bandwidth_bytes_per_s=require(
                        entry, "bandwidth_bytes_per_s", (int, float), link_path
                    ),
                    latency_s=require(
                        entry, "latency_s", (int, float), link_path
                    ),
                )
            )
        fleet = DeviceFleet(base.devices, links)
    units = len(model_units(network))
    placements = []
    for index, entry in enumerate(require(payload, "stages", list, path)):
        stage_path = f"{path}.stages[{index}]"
        span = require(entry, "range", list, stage_path)
        if (
            len(span) != 2
            or not all(isinstance(v, int) for v in span)
            or not 0 <= span[0] < span[1] <= units
        ):
            raise ArtifactSchemaError(
                "E_FIELD_VALUE",
                f"{stage_path}.range",
                f"expected [start, stop] within the {units}-unit "
                f"model, found {span!r}",
            )
        start, stop = span
        device_index = require_index(
            entry, "device_index", len(fleet.devices), "device", stage_path
        )
        strategy = strategy_from_dict(
            require(entry, "strategy", dict, stage_path),
            network,
            fleet.devices[device_index],
            context=context,
            path=f"{stage_path}.strategy",
            units=(start, stop),
        )
        placements.append(
            StagePlacement(
                stage_id=require(entry, "stage_id", int, stage_path),
                device_index=device_index,
                start=start,
                stop=stop,
                strategy=strategy,
            )
        )
    transfers = []
    for index, entry in enumerate(require(payload, "transfers", list, path)):
        transfer_path = f"{path}.transfers[{index}]"
        link_index = require_index(
            entry, "link_index", len(fleet.links), "link", transfer_path
        )
        transfers.append(
            StageTransfer(
                link_index=link_index,
                link=fleet.links[link_index],
                tensor_bytes=require(
                    entry, "tensor_bytes", int, transfer_path
                ),
            )
        )
    return PartitionPlan(
        network,
        fleet,
        placements,
        transfers,
        baseline_latency_seconds=payload.get("baseline_latency_seconds"),
    )


def load_plan(
    path: Union[str, Path],
    network: Union[Network, Graph],
    fleet: Optional[DeviceFleet] = None,
    context: Optional[CostModel] = None,
) -> PartitionPlan:
    """Read a plan artifact and rebuild the PartitionPlan.

    Accepts both envelope files and pre-envelope bare payloads.  When
    the envelope carries network/fleet digests they are checked against
    the caller's objects before any re-evaluation.
    """
    envelope = load_envelope(path, expected_kind=PLAN_ARTIFACT_KIND)
    envelope.expect_digest("network", network_digest(network), "network")
    if fleet is not None:
        envelope.expect_digest("fleet", fleet_digest(fleet), "fleet")
    return plan_from_dict(
        envelope.payload, network, fleet, context=context, path="$.payload"
    )
