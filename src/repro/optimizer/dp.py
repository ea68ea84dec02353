"""Algorithm 1: dynamic programming over (layer range, transfer budget).

``L(i, j, t)`` is the minimal latency of layers ``i..j`` given feature-map
transfer budget ``t``: either fuse the whole range (cost ``fusion[i][j]``
from Algorithm 2, needing transfer ``min_t[i][j]``), or split at some
``k`` with a budget split ``x`` (paper's recursion).  The paper quantizes
``t`` in 10 KB units and bounds fusion depth at 8 layers.

:func:`optimize` solves it exactly as a Pareto-frontier DP: for every
range keep the non-dominated (transfer, latency) partitions, and answer
a query by a frontier lookup.  Like the paper's ``t ≥ min_t[i][j]``
test, a query's budget gates ``fusion[i][j]``: a range is searched only
when some plan within the budget can use it, which a transfer table
built without any search decides.  The tests cross-check it against
the literal triple-loop recurrence and the exhaustive oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import OptimizationError
from repro.hardware.device import FPGADevice
from repro.nn.network import Network
from repro.optimizer.branch_and_bound import GroupSearch, conv_depth
from repro.optimizer.strategy import Strategy
from repro.perf.cost import CostModel, EvalContext
from repro.perf.implement import Algorithm

#: The paper's transfer-budget quantum: "we define the unit of transfer
#: constraint as 10 KB".
TRANSFER_UNIT_BYTES = 10 * 1024

_INF = float("inf")


def transfer_units(transfer_bytes: int, unit: int = TRANSFER_UNIT_BYTES) -> int:
    """Bytes -> whole transfer units (rounded up)."""
    if transfer_bytes < 0:
        raise OptimizationError("transfer must be non-negative")
    return math.ceil(transfer_bytes / unit)


@dataclass(frozen=True)
class _Plan:
    """A partition of a layer range with its cost."""

    transfer_bytes: int
    latency_cycles: int
    groups: Tuple[Tuple[int, int], ...]


def _prune(plans: List[_Plan]) -> List[_Plan]:
    """Keep only non-dominated (transfer, latency) points."""
    plans.sort(key=lambda p: (p.transfer_bytes, p.latency_cycles))
    kept: List[_Plan] = []
    best_latency = _INF
    for plan in plans:
        if plan.latency_cycles < best_latency:
            kept.append(plan)
            best_latency = plan.latency_cycles
    return kept


def _transfer_tables(
    network: Network, device: FPGADevice
) -> Tuple[List[List[int]], List[List[int]], List[int]]:
    """Transfer bounds of every range ``[i, j)``, without any search.

    ``transfer[i][j]`` is the range's feature-map transfer fused: its
    boundary tensors, the paper's ``min_t`` and what every design's
    ``feature_transfer_bytes`` reports.  ``least[i][j]`` is the least
    transfer of any split of the range into groups within the fusion
    depth, so no plan of the range transfers less.  No plan transfers
    more than the range unfused, ``unfused[j] - unfused[i]``.
    """
    n = len(network)
    element = device.element_bytes
    infos = network.infos
    transfer = [[0] * (n + 1) for _ in range(n + 1)]
    least = [[0] * (n + 1) for _ in range(n + 1)]
    unfused = [0] * (n + 1)
    for i, info in enumerate(infos):
        unfused[i + 1] = unfused[i] + (info.input_size + info.output_size) * element
    for i in range(n - 1, -1, -1):
        head = infos[i].input_size * element
        reach = i + 1
        while (
            reach < n
            and conv_depth(network, i, reach + 1) <= device.max_fusion_depth
        ):
            reach += 1
        for j in range(i + 1, n + 1):
            transfer[i][j] = head + infos[j - 1].output_size * element
            least[i][j] = min(
                transfer[i][k] + least[k][j]
                for k in range(i + 1, min(j, reach) + 1)
            )
    return transfer, least, unfused


class FrontierOptimizer:
    """Exact (transfer, latency) Pareto frontiers for every layer range."""

    def __init__(
        self,
        network: Network,
        device: FPGADevice,
        algorithms: Optional[Tuple[Algorithm, ...]] = None,
        explore_tile_sizes: bool = False,
        context: Optional[CostModel] = None,
    ):
        """Args:
            algorithms / explore_tile_sizes: Forwarded to the
                :class:`~repro.optimizer.branch_and_bound.GroupSearch`.
            context: Shared signature-keyed evaluation layer (created
                privately when omitted); pass one to share
                ``implement()`` results and telemetry across sweeps.
        """
        if len(network) == 0:
            raise OptimizationError("cannot optimize an empty network")
        self.network = network
        self.device = device
        self.context: CostModel = context if context is not None else EvalContext()
        self.search = GroupSearch(
            network,
            device,
            algorithms=algorithms,
            explore_tile_sizes=explore_tile_sizes,
            context=self.context,
        )
        # Each range's frontier with the budget it was built for.
        self._frontiers: Dict[Tuple[int, int], Tuple[float, List[_Plan]]] = {}
        self._transfer, self._least, self._unfused = _transfer_tables(
            network, device
        )

    @property
    def telemetry(self):
        """Search telemetry accumulated in the shared context."""
        return self.context.stats

    def frontier(
        self, start: int, stop: int, budget: Optional[int] = None
    ) -> List[_Plan]:
        """Non-dominated plans for layers ``[start, stop)``.

        With a ``budget``, exactly the unbudgeted frontier's plans whose
        transfer is at most ``budget``, in the same order; only the
        ranges such a plan can use are searched.
        """
        return self._frontier(start, stop, _INF if budget is None else budget)

    def _frontier(self, start: int, stop: int, budget: float) -> List[_Plan]:
        if budget >= self._unfused[stop] - self._unfused[start]:
            # No plan of the range exceeds it: build and cache the whole
            # frontier, which every later budget can filter.
            budget = _INF
        key = (start, stop)
        cached = self._frontiers.get(key)
        if cached is not None and cached[0] >= budget:
            plans = cached[1]
            if not plans or plans[-1].transfer_bytes <= budget:
                return plans
            return [plan for plan in plans if plan.transfer_bytes <= budget]
        plans: List[_Plan] = []
        if self._transfer[start][stop] <= budget:
            design = self.search.fusion(start, stop)
            if design is not None:
                plans.append(
                    _Plan(
                        transfer_bytes=design.feature_transfer_bytes,
                        latency_cycles=design.latency_cycles,
                        groups=((start, stop),),
                    )
                )
        least = self._least
        for split in range(start + 1, stop):
            # Every plan of a side costs at least its least transfer, so
            # a side may spend only what the other side leaves.
            if least[start][split] + least[split][stop] > budget:
                continue
            lefts = self._frontier(start, split, budget - least[split][stop])
            rights = self._frontier(split, stop, budget - least[start][split])
            for left in lefts:
                room = budget - left.transfer_bytes
                for right in rights:
                    if right.transfer_bytes > room:
                        break
                    plans.append(
                        _Plan(
                            transfer_bytes=left.transfer_bytes + right.transfer_bytes,
                            latency_cycles=left.latency_cycles
                            + right.latency_cycles,
                            groups=left.groups + right.groups,
                        )
                    )
        pruned = _prune(plans)
        self._frontiers[key] = (budget, pruned)
        return pruned

    def best_plan(self, transfer_constraint_bytes: int) -> _Plan:
        """Cheapest plan whose feature-map transfer fits the constraint."""
        n = len(self.network)
        feasible = self.frontier(0, n, transfer_constraint_bytes)
        if not feasible:
            minimum = min(
                (p.transfer_bytes for p in self.frontier(0, n)), default=None
            )
            hint = (
                f"; the minimum achievable is {minimum} bytes"
                if minimum is not None
                else "; no feasible design fits the device at all"
            )
            raise OptimizationError(
                f"no strategy fits transfer constraint "
                f"{transfer_constraint_bytes} bytes{hint}"
            )
        return min(feasible, key=lambda p: p.latency_cycles)

    def materialize(self, plan: _Plan) -> Strategy:
        """Turn a plan into a full Strategy with group designs.

        A plan from a sub-range query ``frontier(start, stop)`` becomes
        a strategy over ``network.slice(start, stop)``.
        """
        designs = []
        for start, stop in plan.groups:
            design = self.search.fusion(start, stop)
            if design is None:
                raise OptimizationError(
                    f"group [{start}:{stop}] became infeasible on materialize"
                )
            designs.append(design)
        first, last = plan.groups[0][0], plan.groups[-1][1]
        network = (
            self.network
            if first == 0 and last == len(self.network)
            else self.network.slice(first, last)
        )
        return Strategy(
            network,
            self.device,
            [(s - first, e - first) for s, e in plan.groups],
            designs,
            telemetry=self.telemetry,
        )


def _flush_context(context: Optional[CostModel]) -> None:
    """Persist any store-backed context's fresh group searches."""
    flush = getattr(context, "flush_store", None)
    if flush is not None:
        flush()


def optimize(
    network: Network,
    device: FPGADevice,
    transfer_constraint_bytes: int,
    explore_tile_sizes: bool = False,
    context: Optional[CostModel] = None,
) -> Strategy:
    """Problem 1: minimal-latency strategy under a transfer constraint.

    Args:
        explore_tile_sizes: Also search Winograd tile sizes (extension;
            the paper uses uniform F(4x4, 3x3)).
        context: Shared :class:`~repro.perf.cost.EvalContext`; pass one
            to reuse ``implement()`` results and finished
            ``fusion[i][j]`` searches across calls (e.g. a DSE sweep)
            and to collect telemetry externally.  A context built with
            a persistent ``store`` warms the search from it and is
            flushed to it on return; the strategy is bit-identical to a
            store-less run.
    """
    optimizer = FrontierOptimizer(
        network, device, explore_tile_sizes=explore_tile_sizes,
        context=context,
    )
    plan = optimizer.best_plan(transfer_constraint_bytes)
    strategy = optimizer.materialize(plan)
    strategy.validate(transfer_constraint_bytes)
    _flush_context(context)
    return strategy


def optimize_many(
    network: Network,
    device: FPGADevice,
    transfer_constraints_bytes: Sequence[int],
    explore_tile_sizes: bool = False,
    context: Optional[CostModel] = None,
) -> List[Strategy]:
    """:func:`optimize` per constraint, all on one shared context.

    The context's group memo hands every later constraint the
    ``fusion[i][j]`` searches an earlier one finished, so each range is
    searched once across the whole list, as Algorithm 1 reads one
    offline ``fusion`` table at every budget; this is how the Figure 5
    sweep is produced.
    """
    if context is None:
        context = EvalContext()
    return [
        optimize(
            network, device, constraint,
            explore_tile_sizes=explore_tile_sizes, context=context,
        )
        for constraint in transfer_constraints_bytes
    ]


def minimum_transfer_bytes(
    network: Network,
    device: FPGADevice,
    context: Optional[CostModel] = None,
) -> int:
    """Smallest feature-map transfer any feasible strategy achieves."""
    optimizer = FrontierOptimizer(network, device, context=context)
    frontier = optimizer.frontier(0, len(network))
    if not frontier:
        raise OptimizationError("no feasible design fits the device")
    return min(plan.transfer_bytes for plan in frontier)


def transfer_latency_frontier(
    network: Network,
    device: FPGADevice,
    context: Optional[CostModel] = None,
) -> List[Tuple[int, int]]:
    """The exact (transfer bytes, latency cycles) trade-off curve."""
    optimizer = FrontierOptimizer(network, device, context=context)
    return [
        (plan.transfer_bytes, plan.latency_cycles)
        for plan in optimizer.frontier(0, len(network))
    ]
