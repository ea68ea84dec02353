"""Test oracles for the strategy search.

* :func:`exhaustive_optimize` — brute force for small networks: every
  contiguous grouping and, within each group, every combination of
  per-layer algorithm and parallelism, evaluating exactly the same cost
  model as the real optimizer.  Exponential — usable only on networks of
  a handful of layers — but it certifies that Algorithm 1 + Algorithm 2
  return the true optimum (the tests rely on this).
* :func:`optimize_tabular` — the paper's Algorithm 1 as its literal
  triple-loop recurrence over quantized transfer budgets, with the
  ``k_mark`` / ``t_mark`` backtracking tables; the tests check that the
  Pareto-frontier DP (:func:`repro.optimizer.dp.optimize`) agrees.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Tuple

from repro.errors import OptimizationError
from repro.arch.fusion import enumerate_groupings, group_min_transfer_bytes
from repro.hardware.device import FPGADevice
from repro.nn.network import Network
from repro.perf.cost import CostModel, EvalContext
from repro.perf.group import GroupDesign, compose_group
from repro.perf.implement import (
    Algorithm,
    WINOGRAD_M,
    candidate_algorithms,
    candidate_parallelisms,
    candidate_weight_modes,
    candidate_winograd_tiles,
)
from repro.optimizer.branch_and_bound import GroupSearch
from repro.optimizer.dp import TRANSFER_UNIT_BYTES, transfer_units
from repro.optimizer.strategy import Strategy

_INF = float("inf")


def _group_options(
    network: Network,
    start: int,
    stop: int,
    device: FPGADevice,
    explore_tile_sizes: bool = False,
    context: Optional[CostModel] = None,
):
    """Every feasible implementation tuple for one fused group."""
    cost = context if context is not None else EvalContext()
    per_layer = []
    for index in range(start, stop):
        info = network[index]
        layer_options = []
        for algo in candidate_algorithms(info):
            if algo == Algorithm.WINOGRAD:
                tiles = candidate_winograd_tiles(info, explore_tile_sizes)
            else:
                tiles = [WINOGRAD_M]
            for m in tiles:
                for mode in candidate_weight_modes(info, algo, device, m):
                    for p in candidate_parallelisms(info, algo, device):
                        layer_options.append(
                            cost.implement(
                                info, algo, p, device,
                                weight_mode=mode, winograd_m=m,
                            )
                        )
        per_layer.append(layer_options)
    for combo in itertools.product(*per_layer):
        design = compose_group(combo, device)
        if design.resources.fits(device.resources):
            yield design


def best_group_design(
    network: Network,
    start: int,
    stop: int,
    device: FPGADevice,
    explore_tile_sizes: bool = False,
    context: Optional[CostModel] = None,
):
    """Exhaustive equivalent of Algorithm 2's fusion[start][stop-1]."""
    best = None
    for design in _group_options(
        network, start, stop, device, explore_tile_sizes, context
    ):
        if best is None or design.latency_cycles < best.latency_cycles:
            best = design
    return best


def exhaustive_optimize(
    network: Network,
    device: FPGADevice,
    transfer_constraint_bytes: int,
    context: Optional[CostModel] = None,
) -> Strategy:
    """Exhaustive equivalent of the full optimizer (Problem 1).

    Args:
        context: Shared evaluation layer; one is created (and shared
            across all enumerated groupings) when omitted.
    """
    n = len(network)
    if n == 0:
        raise OptimizationError("cannot optimize an empty network")
    cost = context if context is not None else EvalContext()
    # Each range's brute-force design, found once per call: a range
    # recurs in many groupings.  Local to the call, so the oracle shares
    # nothing with the search it certifies.
    group_designs: Dict[Tuple[int, int], Optional[GroupDesign]] = {}
    best_latency = None
    best: Optional[Tuple[List[Tuple[int, int]], list]] = None
    for grouping in enumerate_groupings(n, device.max_fusion_depth):
        designs = []
        feasible = True
        transfer = 0
        latency = 0
        for start, stop in grouping:
            if (start, stop) not in group_designs:
                group_designs[start, stop] = best_group_design(
                    network, start, stop, device, context=cost
                )
            design = group_designs[start, stop]
            if design is None:
                feasible = False
                break
            designs.append(design)
            transfer += design.feature_transfer_bytes
            latency += design.latency_cycles
        if not feasible or transfer > transfer_constraint_bytes:
            continue
        if best_latency is None or latency < best_latency:
            best_latency = latency
            best = (grouping, designs)
    if best is None:
        raise OptimizationError(
            f"no strategy fits transfer constraint {transfer_constraint_bytes}"
        )
    grouping, designs = best
    return Strategy(network, device, grouping, designs)


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
    budgets small; :func:`repro.optimizer.dp.optimize` is the fast
    equivalent, and the tests cross-check the two.
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
