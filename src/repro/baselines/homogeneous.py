"""Homogeneous-design and unfused ablation baselines.

The paper's motivation (Section 2.2) is that "homogeneous design using
either conventional or Winograd algorithm will only exhaust one dimension
of resource".  These baselines quantify that:

* :func:`homogeneous_optimize` — the full fusion DP but with every conv
  layer pinned to one algorithm (layers the algorithm cannot serve, e.g.
  Winograd on a stride-4 conv, fall back to their only legal engine);
* :func:`unfused_optimize` — every layer is its own group (the classic
  layer-by-layer accelerator), quantifying what fusion alone buys.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.errors import OptimizationError
from repro.hardware.device import FPGADevice
from repro.nn.network import Network
from repro.optimizer.branch_and_bound import GroupSearch
from repro.optimizer.dp import FrontierOptimizer
from repro.optimizer.strategy import Strategy
from repro.perf.cost import CostModel
from repro.perf.implement import Algorithm


def homogeneous_optimize(
    network: Network,
    device: FPGADevice,
    transfer_constraint_bytes: int,
    algorithm: Algorithm,
    context: Optional[CostModel] = None,
) -> Strategy:
    """Optimal fusion strategy with a single convolution algorithm.

    Conv layers that cannot legally use ``algorithm`` (Winograd needs
    stride 1) keep their full menu — matching how a homogeneous-Winograd
    accelerator still needs a conventional engine for such layers — and
    so do pool and LRN layers.  The pinned set is part of the group
    memo's key, so a shared ``context`` recalls a repeated baseline's
    searches.
    """
    if algorithm not in (Algorithm.CONVENTIONAL, Algorithm.WINOGRAD):
        raise OptimizationError(f"{algorithm} is not a convolution algorithm")
    optimizer = FrontierOptimizer(
        network, device, algorithms=(algorithm,), context=context,
    )
    plan = optimizer.best_plan(transfer_constraint_bytes)
    strategy = optimizer.materialize(plan)
    strategy.validate(transfer_constraint_bytes)
    return strategy


def unfused_optimize(
    network: Network,
    device: FPGADevice,
    context: Optional[CostModel] = None,
) -> Strategy:
    """Best layer-by-layer design: every layer forms its own group.

    This is the paper's "without fusion architecture" reference — for
    the VGG prefix it needs the full (tens of MB) feature-map transfer
    but gives every layer the whole device.
    """
    search = GroupSearch(network, device, context=context)
    boundaries: List[Tuple[int, int]] = []
    designs = []
    for index in range(len(network)):
        design = search.fusion(index, index + 1)
        if design is None:
            raise OptimizationError(
                f"layer {network[index].name!r} does not fit {device.name} alone"
            )
        boundaries.append((index, index + 1))
        designs.append(design)
    return Strategy(
        network, device, boundaries, designs,
        telemetry=search.context.stats,
    )
