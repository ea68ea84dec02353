"""Brute-force oracle for the strategy search.

:func:`exhaustive_optimize` (and :func:`exhaustive_optimize_many` for
several budgets at once) tries every contiguous grouping and, within
each group, every combination of per-layer algorithm and parallelism,
evaluating exactly the same cost model as the real optimizer.
Exponential — usable only on networks of a handful of layers — but it
certifies that Algorithm 1 + Algorithm 2 return the true optimum (the
tests and ``repro doctor --deep`` rely on this).
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import OptimizationError
from repro.arch.fusion import enumerate_groupings
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
    """Exhaustive equivalent of the full optimizer (Problem 1)."""
    return exhaustive_optimize_many(
        network, device, [transfer_constraint_bytes], context=context
    )[0]


def exhaustive_optimize_many(
    network: Network,
    device: FPGADevice,
    transfer_constraints_bytes: Sequence[int],
    context: Optional[CostModel] = None,
) -> List[Strategy]:
    """Exhaustive equivalent of :func:`repro.optimizer.dp.optimize_many`:
    every grouping and every range's brute-force design are enumerated
    once, since neither depends on the budget.

    Args:
        context: Shared evaluation layer; one is created (and shared
            across all enumerated groupings) when omitted.
    """
    n = len(network)
    if n == 0:
        raise OptimizationError("cannot optimize an empty network")
    cost = context if context is not None else EvalContext()
    # Each range's brute-force design, found once: a range recurs in many
    # groupings.  Local to the call, so the oracle shares nothing with
    # the search it certifies.
    group_designs: Dict[Tuple[int, int], Optional[GroupDesign]] = {}
    plans = []  # (transfer, latency, grouping, designs) of feasible groupings
    for grouping in enumerate_groupings(n, device.max_fusion_depth):
        designs = []
        for start, stop in grouping:
            if (start, stop) not in group_designs:
                group_designs[start, stop] = best_group_design(
                    network, start, stop, device, context=cost
                )
            designs.append(group_designs[start, stop])
            if designs[-1] is None:
                break
        else:
            plans.append((
                sum(d.feature_transfer_bytes for d in designs),
                sum(d.latency_cycles for d in designs),
                grouping,
                designs,
            ))
    strategies = []
    for constraint in transfer_constraints_bytes:
        # The first fastest grouping in enumeration order.
        fits = [plan for plan in plans if plan[0] <= constraint]
        if not fits:
            raise OptimizationError(
                f"no strategy fits transfer constraint {constraint}"
            )
        _, _, grouping, designs = min(fits, key=lambda plan: plan[1])
        strategies.append(Strategy(network, device, grouping, designs))
    return strategies
