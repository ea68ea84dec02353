"""The paper's optimal strategy search (Section 5).

Given an N-layer CNN, a device resource vector R and a feature-map
transfer constraint T, find the strategy S = {<group, algorithm,
parallelism>} minimizing end-to-end latency:

* :mod:`repro.optimizer.strategy` — the strategy IR and reports;
* :mod:`repro.optimizer.branch_and_bound` — Algorithm 2, the depth-first
  branch-and-bound that evaluates ``fusion[i][j]`` (best fused design of
  a layer range under R, balancing the inter-layer pipeline);
* :mod:`repro.optimizer.dp` — Algorithm 1, the dynamic program over
  (layer range, transfer budget), as an exact Pareto-frontier
  formulation whose budget gates which ``fusion[i][j]`` are searched;
* :mod:`repro.optimizer.exhaustive` — the brute-force oracle that
  certifies optimality on small networks;
* :mod:`repro.optimizer.graph_dp` — the branch-aware lift of the whole
  stack onto the DAG IR: series-parallel decomposition drives the same
  DP/B&B machinery per branch, joins are priced for transfer, and chain
  graphs degenerate bit-identically to :func:`~repro.optimizer.dp.optimize`.

All of them evaluate design points through the shared signature-keyed
evaluation layer (:mod:`repro.perf.cost`): pass one
:class:`~repro.perf.cost.EvalContext` to share ``implement()`` results
and search telemetry across groups, constraint sweeps and devices.
"""

from repro.optimizer.strategy import LayerChoice, Strategy
from repro.optimizer.branch_and_bound import GroupSearch, fuse_group
from repro.optimizer.dp import (
    TRANSFER_UNIT_BYTES,
    FrontierOptimizer,
    optimize,
    optimize_many,
)
from repro.optimizer.graph_dp import (
    ChainSegment,
    FusedParallelSegment,
    GraphOptimizer,
    GraphStrategy,
    ParallelSegment,
    optimize_graph,
)
from repro.optimizer.serialize import load_strategy, save_strategy
from repro.perf.cost import CostModel, EvalContext, SearchTelemetry

__all__ = [
    "ChainSegment",
    "CostModel",
    "EvalContext",
    "FrontierOptimizer",
    "FusedParallelSegment",
    "GraphOptimizer",
    "GraphStrategy",
    "GroupSearch",
    "LayerChoice",
    "ParallelSegment",
    "SearchTelemetry",
    "Strategy",
    "TRANSFER_UNIT_BYTES",
    "fuse_group",
    "load_strategy",
    "optimize",
    "optimize_graph",
    "optimize_many",
    "save_strategy",
]
