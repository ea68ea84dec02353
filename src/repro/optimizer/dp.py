"""Algorithm 1: dynamic programming over (layer range, transfer budget).

``L(i, j, t)`` is the minimal latency of layers ``i..j`` given feature-map
transfer budget ``t``: either fuse the whole range (cost ``fusion[i][j]``
from Algorithm 2, needing transfer ``min_t[i][j]``), or split at some
``k`` with a budget split ``x`` (paper's recursion).  The paper quantizes
``t`` in 10 KB units and bounds fusion depth at 8 layers.

Two equivalent solvers are provided:

* :func:`optimize_tabular` — the literal triple-loop recurrence of the
  paper's Algorithm 1, O(N^3 T^2) over quantized budgets, with the
  ``k_mark`` / ``t_mark`` backtracking tables.  Faithful, but the unit
  count T can make it slow for multi-MB budgets in Python.
* :func:`optimize` — an exact Pareto-frontier reformulation: for every
  range keep the set of non-dominated (transfer, latency) partitions;
  answering a query is a frontier lookup.  Produces the same optimum
  (the tests cross-check the two) and runs in milliseconds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import OptimizationError
from repro.arch.fusion import group_min_transfer_bytes
from repro.hardware.device import FPGADevice
from repro.nn.network import Network
from repro.optimizer.branch_and_bound import GroupSearch
from repro.optimizer.strategy import Strategy
from repro.perf.cost import CostModel, EvalContext

#: The paper's transfer-budget quantum: "we define the unit of transfer
#: constraint as 10 KB".
TRANSFER_UNIT_BYTES = 10 * 1024

_INF = float("inf")


def transfer_units(transfer_bytes: int, unit: int = TRANSFER_UNIT_BYTES) -> int:
    """Bytes -> whole transfer units (rounded up)."""
    if transfer_bytes < 0:
        raise OptimizationError("transfer must be non-negative")
    return math.ceil(transfer_bytes / unit)


# ---------------------------------------------------------------------------
# Pareto-frontier solver (default)
# ---------------------------------------------------------------------------


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


class FrontierOptimizer:
    """Exact (transfer, latency) Pareto frontiers for every layer range."""

    def __init__(
        self,
        network: Network,
        device: FPGADevice,
        algorithm_filter=None,
        explore_tile_sizes: bool = False,
        context: Optional[CostModel] = None,
        workers: Optional[int] = None,
    ):
        """Args:
            context: Shared signature-keyed evaluation layer (created
                privately when omitted); pass one to share
                ``implement()`` results and telemetry across sweeps.
            workers: When > 1, the independent ``fusion[i][j]`` group
                searches are precomputed by a thread pool before the
                first frontier query (safe: the context is the only
                shared state).  The chosen strategies are identical to
                the sequential search.
        """
        if len(network) == 0:
            raise OptimizationError("cannot optimize an empty network")
        self.network = network
        self.device = device
        self.context: CostModel = context if context is not None else EvalContext()
        self.workers = workers
        self.search = GroupSearch(
            network,
            device,
            algorithm_filter=algorithm_filter,
            explore_tile_sizes=explore_tile_sizes,
            context=self.context,
        )
        self._frontiers: Dict[Tuple[int, int], List[_Plan]] = {}
        self._prewarmed = False

    @property
    def telemetry(self):
        """Search telemetry accumulated in the shared context."""
        return self.context.stats

    def frontier(self, start: int, stop: int) -> List[_Plan]:
        """Non-dominated plans for layers ``[start, stop)``."""
        if self.workers is not None and self.workers > 1 and not self._prewarmed:
            self._prewarmed = True
            self.search.precompute(workers=self.workers)
        key = (start, stop)
        cached = self._frontiers.get(key)
        if cached is not None:
            return cached
        plans: List[_Plan] = []
        design = self.search.fusion(start, stop)
        if design is not None:
            plans.append(
                _Plan(
                    transfer_bytes=design.feature_transfer_bytes,
                    latency_cycles=design.latency_cycles,
                    groups=((start, stop),),
                )
            )
        for split in range(start + 1, stop):
            for left in self.frontier(start, split):
                for right in self.frontier(split, stop):
                    plans.append(
                        _Plan(
                            transfer_bytes=left.transfer_bytes + right.transfer_bytes,
                            latency_cycles=left.latency_cycles
                            + right.latency_cycles,
                            groups=left.groups + right.groups,
                        )
                    )
        pruned = _prune(plans)
        self._frontiers[key] = pruned
        return pruned

    def best_plan(self, transfer_constraint_bytes: int) -> _Plan:
        """Cheapest plan whose feature-map transfer fits the constraint."""
        feasible = [
            plan
            for plan in self.frontier(0, len(self.network))
            if plan.transfer_bytes <= transfer_constraint_bytes
        ]
        if not feasible:
            minimum = min(
                (p.transfer_bytes for p in self.frontier(0, len(self.network))),
                default=None,
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
    """Persist any store-backed context's fresh evaluations."""
    flush = getattr(context, "flush_store", None)
    if flush is not None:
        flush()


def optimize(
    network: Network,
    device: FPGADevice,
    transfer_constraint_bytes: int,
    explore_tile_sizes: bool = False,
    context: Optional[CostModel] = None,
    workers: Optional[int] = None,
) -> Strategy:
    """Problem 1: minimal-latency strategy under a transfer constraint.

    Args:
        explore_tile_sizes: Also search Winograd tile sizes (extension;
            the paper uses uniform F(4x4, 3x3)).
        context: Shared :class:`~repro.perf.cost.EvalContext`; pass one
            to reuse ``implement()`` results across calls (e.g. a DSE
            sweep) and to collect telemetry externally.  A context built
            with a persistent ``store`` warms the search from it and is
            flushed to it on return; the strategy is bit-identical to a
            store-less run.
        workers: Precompute the independent ``fusion[i][j]`` searches
            with a thread pool of this size (strategy-preserving).
    """
    return optimize_many(
        network, device, [transfer_constraint_bytes],
        explore_tile_sizes=explore_tile_sizes, context=context,
        workers=workers,
    )[0]


def optimize_many(
    network: Network,
    device: FPGADevice,
    transfer_constraints_bytes: Sequence[int],
    explore_tile_sizes: bool = False,
    context: Optional[CostModel] = None,
    workers: Optional[int] = None,
) -> List[Strategy]:
    """Optimize under several transfer constraints, sharing the search.

    Equivalent to calling :func:`optimize` per constraint, but amortizes
    the Algorithm-2 ``fusion[i][j]`` table and the signature-keyed
    evaluation cache across all of them; this is how the Figure 5 sweep
    is produced.
    """
    optimizer = FrontierOptimizer(
        network, device, explore_tile_sizes=explore_tile_sizes,
        context=context, workers=workers,
    )
    strategies = []
    for constraint in transfer_constraints_bytes:
        plan = optimizer.best_plan(constraint)
        strategy = optimizer.materialize(plan)
        strategy.validate(constraint)
        strategies.append(strategy)
    _flush_context(context)
    return strategies


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


# ---------------------------------------------------------------------------
# Literal tabular Algorithm 1
# ---------------------------------------------------------------------------


def optimize_tabular(
    network: Network,
    device: FPGADevice,
    transfer_constraint_bytes: int,
    unit_bytes: int = TRANSFER_UNIT_BYTES,
    context: Optional[CostModel] = None,
) -> Strategy:
    """The paper's Algorithm 1, verbatim structure.

    Builds ``L[i][j][t]`` bottom-up over quantized transfer budgets with
    ``k_mark``/``t_mark`` backtracking, then materializes the strategy
    and regenerates each group's implementation details (Algorithm 1,
    lines 22-24).  Complexity O(N^3 T^2): keep ``unit_bytes`` coarse or
    budgets small; :func:`optimize` is the fast equivalent.
    """
    n = len(network)
    if n == 0:
        raise OptimizationError("cannot optimize an empty network")
    t_units = transfer_units(transfer_constraint_bytes, unit_bytes) + 1
    search = GroupSearch(network, device, context=context)

    # fusion[i][j] and min_t[i][j] (inclusive j), as in the paper.
    fusion: List[List[Optional[float]]] = [[None] * n for _ in range(n)]
    min_t: List[List[int]] = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            design = search.fusion(i, j + 1)
            fusion[i][j] = design.latency_cycles if design is not None else None
            min_t[i][j] = transfer_units(
                group_min_transfer_bytes(network, i, j + 1, device.element_bytes),
                unit_bytes,
            )

    # L[i][j][t], k_mark, t_mark.  j outer ascending, i descending, as in
    # the paper's loop nest.
    L = [[[_INF] * t_units for _ in range(n)] for _ in range(n)]
    k_mark = [[[-1] * t_units for _ in range(n)] for _ in range(n)]
    t_mark = [[[-1] * t_units for _ in range(n)] for _ in range(n)]
    for j in range(n):
        for i in range(j, -1, -1):
            for t in range(t_units):
                if t < min_t[i][j]:
                    continue  # L stays infinity
                fused = fusion[i][j]
                min_latency = fused if fused is not None else _INF
                k_flag, t_flag = j, t
                for k in range(i, j):
                    # Both halves must at least afford their minimal
                    # transfers (paper line 11).
                    if t < min_t[i][k] + min_t[k + 1][j]:
                        continue
                    for x in range(min_t[i][k], t - min_t[k + 1][j] + 1):
                        candidate = L[i][k][x] + L[k + 1][j][t - x]
                        if candidate < min_latency:
                            min_latency = candidate
                            k_flag, t_flag = k, x
                L[i][j][t] = min_latency
                k_mark[i][j][t] = k_flag
                t_mark[i][j][t] = t_flag

    final = L[0][n - 1][t_units - 1]
    if final == _INF:
        raise OptimizationError(
            f"no strategy fits transfer constraint {transfer_constraint_bytes} "
            f"bytes on {device.name}"
        )

    # Backtrack the fused structure (Algorithm 1, line 22).
    boundaries: List[Tuple[int, int]] = []

    def backtrack(i: int, j: int, t: int) -> None:
        k = k_mark[i][j][t]
        if k == j:
            boundaries.append((i, j + 1))
            return
        x = t_mark[i][j][t]
        backtrack(i, k, x)
        backtrack(k + 1, j, t - x)

    backtrack(0, n - 1, t_units - 1)
    boundaries.sort()
    designs = []
    for start, stop in boundaries:
        design = search.fusion(start, stop)
        if design is None:
            raise OptimizationError("backtracked group is infeasible")
        designs.append(design)
    return Strategy(
        network, device, boundaries, designs,
        telemetry=search.context.stats,
    )
