"""Cut-point DP: split a model across a fleet to maximize pipeline rate.

The single-device DP (Algorithm 1) minimizes the *latency* of one board;
a fleet runs stages concurrently, so the number that matters is the
pipeline's steady-state interval — the slowest stage or link.  The
partition search therefore minimizes the **bottleneck**:

    B[d][i] = min over cut k of max( B[d-1][k],
                                     transfer(cut tensor at k over link d-1->d),
                                     stage(k, i, device d) )

over the model's top-level units (:func:`~repro.partition.plan.model_units`):
a chain network's layers, or a DAG's nodes and whole fork-join blocks —
the only sound DAG cuts, since cutting inside a parallel region would
put the fork tensor on two boards.  ``stage(k, i, device)`` is the
latency of the *existing* single-device DP on units ``[k, i)``: every
candidate range is a Pareto-frontier query against one search per
distinct device — a :class:`~repro.optimizer.dp.FrontierOptimizer` for
a chain, a :class:`~repro.optimizer.graph_dp.GraphOptimizer` for a DAG
(which answers a unit range by combining range queries on its leaf
runs' chain searches with per-block frontiers computed once) — all of
them sharing one signature-keyed :class:`~repro.perf.cost.EvalContext`.
A chain query carries the stage's transfer budget, so only the ranges a
stage plan within it can use are searched; the ``fusion[i][j]`` table
and the sub-range frontiers are shared by every stage query on one
device, so partitioning costs little more than searching each distinct
device's usable ranges once.  The cut tensor is the output of the unit
before the cut (a block's join).

Ties on the bottleneck break toward lower end-to-end latency, then
toward fewer devices, so a 1-device fleet (or a fleet whose extra boards
cannot help) degenerates to exactly the single-device strategy.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple, Union

from repro.errors import PartitionError
from repro.hardware.device import FPGADevice
from repro.nn.graph import Graph
from repro.nn.network import Network
from repro.optimizer.dp import FrontierOptimizer, _Plan
from repro.optimizer.graph_dp import GraphOptimizer, _GPlan
from repro.partition.fleet import DeviceFleet
from repro.partition.plan import (
    PartitionPlan,
    StagePlacement,
    StageTransfer,
    model_units,
)
from repro.perf.cost import CostModel, EvalContext

#: One stage search per distinct device: its ``frontier(start, stop)``
#: answers unit ranges, its ``materialize`` builds the stage strategy.
Search = Union[FrontierOptimizer, GraphOptimizer]
StagePlan = Union[_Plan, _GPlan]

_INF = float("inf")


class CutOptimizer:
    """Partition search over one model and one device fleet.

    Args:
        network: The (accelerated-prefix) chain :class:`Network` or
            (accelerated) DAG :class:`Graph` to split.
        fleet: Devices in pipeline order plus the links between them.
        transfer_constraint_bytes: Optional per-stage DRAM feature-map
            budget (the paper's T, applied to each board separately);
            defaults to each stage's unfused traffic — effectively
            unconstrained, matching ``compile_model``'s default.
        context: Shared evaluation layer; one context serves every
            device in the fleet (device identity is part of its key).
    """

    def __init__(
        self,
        network: Union[Network, Graph],
        fleet: DeviceFleet,
        transfer_constraint_bytes: Optional[int] = None,
        context: Optional[CostModel] = None,
    ):
        if len(network) == 0:
            raise PartitionError("cannot partition an empty network")
        self.network = network
        self.units = model_units(network)
        self.fleet = fleet
        self.transfer_constraint_bytes = transfer_constraint_bytes
        self.context: CostModel = context if context is not None else EvalContext()
        # One search per *distinct* device model: a homogeneous N-board
        # fleet shares a single search.
        self._optimizers: Dict[FPGADevice, Search] = {}
        self._stage_cache: Dict[
            Tuple[FPGADevice, int, int], Optional[StagePlan]
        ] = {}

    @property
    def telemetry(self):
        return self.context.stats

    def _optimizer_for(self, device: FPGADevice) -> Search:
        optimizer = self._optimizers.get(device)
        if optimizer is None:
            # The one chain/DAG branch: the search decides whether a
            # stage materializes into a Strategy over its layer slice or
            # a GraphStrategy over its unit range's subgraph.
            search = (
                GraphOptimizer
                if isinstance(self.network, Graph)
                else FrontierOptimizer
            )
            optimizer = search(self.network, device, context=self.context)
            self._optimizers[device] = optimizer
        return optimizer

    def _stage_budget(self, device: FPGADevice, start: int, stop: int) -> int:
        """Feature-map transfer budget of one stage's board."""
        if self.transfer_constraint_bytes is not None:
            return self.transfer_constraint_bytes
        total = 0
        for unit in self.units[start:stop]:
            for info in unit:
                total += (info.input_size + info.output_size) * (
                    device.element_bytes
                )
        return total

    def stage_plan(
        self, device: FPGADevice, start: int, stop: int
    ) -> Optional[StagePlan]:
        """Best single-device plan for units ``[start, stop)``.

        None when the range is infeasible on the device (resources or
        the per-stage transfer budget).
        """
        key = (device, start, stop)
        if key in self._stage_cache:
            return self._stage_cache[key]
        budget = self._stage_budget(device, start, stop)
        feasible = self._optimizer_for(device).frontier(start, stop, budget)
        plan = (
            min(feasible, key=lambda p: p.latency_cycles) if feasible else None
        )
        self._stage_cache[key] = plan
        self.context.stats.partition_stage_queries += 1
        return plan

    def _stage_seconds(
        self, device: FPGADevice, plan: Optional[StagePlan]
    ) -> float:
        if plan is None:
            return _INF
        return device.cycles_to_seconds(plan.latency_cycles)

    def _cut_tensor_bytes(self, cut: int, sender: FPGADevice) -> int:
        """Bytes of the feature map crossing a cut after unit ``cut - 1``."""
        return self.units[cut - 1][-1].output_size * sender.element_bytes

    def solve(self) -> PartitionPlan:
        """Run the cut DP and materialize the best plan.

        Raises:
            PartitionError: When no assignment fits the fleet at all.
        """
        n = len(self.units)
        devices = self.fleet.devices
        num_devices = len(devices)

        # value[d][i]: lexicographic (bottleneck_s, total_latency_s) of
        # the best pipeline running units [0, i) on devices 0..d, with
        # device d's stage non-empty and ending at i.
        value: List[Dict[int, Tuple[float, float]]] = [
            {} for _ in range(num_devices)
        ]
        back: List[Dict[int, int]] = [{} for _ in range(num_devices)]

        for i in range(1, n + 1):
            plan = self.stage_plan(devices[0], 0, i)
            seconds = self._stage_seconds(devices[0], plan)
            if seconds < _INF:
                value[0][i] = (seconds, seconds)

        for d in range(1, num_devices):
            device = devices[d]
            link = self.fleet.links[d - 1]
            sender = devices[d - 1]
            for i in range(d + 1, n + 1):
                best: Optional[Tuple[float, float]] = None
                best_cut = -1
                for cut in range(d, i):
                    upstream = value[d - 1].get(cut)
                    if upstream is None:
                        continue
                    transfer = link.transfer_seconds(
                        self._cut_tensor_bytes(cut, sender)
                    )
                    stage = self._stage_seconds(
                        device, self.stage_plan(device, cut, i)
                    )
                    if stage == _INF:
                        continue
                    self.context.stats.partition_cuts_considered += 1
                    candidate = (
                        max(upstream[0], transfer, stage),
                        upstream[1] + transfer + stage,
                    )
                    if best is None or candidate < best:
                        best = candidate
                        best_cut = cut
                if best is not None:
                    value[d][i] = best
                    back[d][i] = best_cut

        # Pick the best stage count: lexicographic (bottleneck, total
        # latency), ties toward fewer devices (ascending d keeps the
        # first — and the 1-device degenerate case — on equal values).
        chosen_d = -1
        chosen: Optional[Tuple[float, float]] = None
        for d in range(num_devices):
            candidate = value[d].get(n)
            if candidate is None:
                continue
            if chosen is None or candidate < chosen:
                chosen = candidate
                chosen_d = d
        if chosen is None:
            raise PartitionError(
                f"no feasible partition of {self.network.name!r} "
                f"({n} units) onto fleet {self.fleet.name}"
            )

        # Backtrack the cut points.
        cuts: List[int] = []
        i = n
        for d in range(chosen_d, 0, -1):
            cut = back[d][i]
            cuts.append(cut)
            i = cut
        cuts.reverse()
        boundaries = [0] + cuts + [n]
        return self._materialize(boundaries)

    def _materialize(self, boundaries: List[int]) -> PartitionPlan:
        """Build the PartitionPlan (with full stage strategies)."""
        n = len(self.units)
        placements: List[StagePlacement] = []
        transfers: List[StageTransfer] = []
        for stage_id in range(len(boundaries) - 1):
            start, stop = boundaries[stage_id], boundaries[stage_id + 1]
            device = self.fleet.devices[stage_id]
            plan = self.stage_plan(device, start, stop)
            if plan is None:
                raise PartitionError(
                    f"stage [{start}:{stop}] became infeasible on materialize"
                )
            strategy = self._optimizer_for(device).materialize(plan)
            strategy.validate(self._stage_budget(device, start, stop))
            placements.append(
                StagePlacement(
                    stage_id=stage_id,
                    device_index=stage_id,
                    start=start,
                    stop=stop,
                    strategy=strategy,
                )
            )
            if stop < n:
                transfers.append(
                    StageTransfer(
                        link_index=stage_id,
                        link=self.fleet.links[stage_id],
                        tensor_bytes=self._cut_tensor_bytes(stop, device),
                    )
                )
        baseline = self.stage_plan(self.fleet.devices[0], 0, n)
        return PartitionPlan(
            self.network,
            self.fleet,
            placements,
            transfers,
            telemetry=self.telemetry,
            baseline_latency_seconds=(
                None
                if baseline is None
                else self.fleet.devices[0].cycles_to_seconds(
                    baseline.latency_cycles
                )
            ),
        )


def partition_network(
    network: Union[Network, Graph],
    fleet: DeviceFleet,
    transfer_constraint_bytes: Optional[int] = None,
    context: Optional[CostModel] = None,
) -> PartitionPlan:
    """Split ``network`` across ``fleet``, minimizing the pipeline bottleneck.

    The multi-device analogue of :func:`repro.optimizer.dp.optimize`
    (and, given a DAG :class:`Graph`, of
    :func:`repro.optimizer.graph_dp.optimize_graph`); see
    :class:`CutOptimizer` for the knobs.
    """
    optimizer = CutOptimizer(
        network,
        fleet,
        transfer_constraint_bytes=transfer_constraint_bytes,
        context=context,
    )
    return optimizer.solve()
