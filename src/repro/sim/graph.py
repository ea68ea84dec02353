"""Execution of branch-aware graph strategies on the simulator.

Walks a :class:`~repro.optimizer.graph_dp.GraphStrategy` segment by
segment, reusing the chain simulator wholesale:

* a **chain** segment runs through :func:`~repro.sim.simulator.
  simulate_strategy` on its sub-network — functional rows through the
  streaming engines plus the row-level timing recurrence;
* a **split parallel** segment simulates each branch recursively on the
  fork tensor (an identity skip passes it through untouched), combines
  the branch outputs with the join's reference math, and pays the
  join's priced DRAM latency (zero for a concat);
* a **fused parallel** segment streams each branch's rows through its
  own engine chain off the shared fork tensor; branch pipelines run
  concurrently, so the segment's time is the slowest branch's trace
  (cross-branch DRAM contention is already inside the segment's
  analytic latency, which tests compare against).

The serving side mirrors this: :func:`build_graph_service_model`
concatenates per-segment :class:`~repro.sim.simulator.GroupServiceModel`
entries — chain groups verbatim, eltwise joins as bandwidth-only pseudo
groups, fused blocks as single groups — into the same
:class:`~repro.sim.simulator.ServiceModel` the schedulers consume, so a
graph strategy drops into the serving stack unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.errors import SimulationError
from repro.nn.functional import forward_join, init_graph_weights
from repro.optimizer.graph_dp import (
    ChainSegment,
    GraphStrategy,
    ParallelSegment,
    chain_network,
)
from repro.sim.simulator import (
    GroupServiceModel,
    ServiceModel,
    _group_forward,
    _group_timing,
    simulate_strategy,
)
from repro.sim.trace import GroupTrace


@dataclass(frozen=True)
class SegmentTrace:
    """Timing span of one top-level segment of a graph strategy."""

    kind: str  #: "chain" | "parallel" | "fused"
    label: str
    start_cycle: float
    end_cycle: float
    group_traces: Tuple[GroupTrace, ...] = ()

    @property
    def cycles(self) -> float:
        return self.end_cycle - self.start_cycle


@dataclass
class GraphSimulationResult:
    """Outcome of simulating a graph strategy on one input image."""

    output: np.ndarray
    latency_cycles: float
    segment_traces: List[SegmentTrace]

    def latency_seconds(self, frequency_hz: float) -> float:
        return self.latency_cycles / frequency_hz

    def report(self) -> str:
        lines = [f"simulated latency: {self.latency_cycles:,.0f} cycles"]
        for trace in self.segment_traces:
            lines.append(
                f"  [{trace.kind}] {trace.label}: "
                f"{trace.cycles:,.0f} cycles"
            )
        return "\n".join(lines)


def _simulate(
    strategy: GraphStrategy,
    data: np.ndarray,
    weights: Dict[str, Dict[str, np.ndarray]],
    quantize,
    clock: float,
    label: str,
    traces: List[SegmentTrace],
) -> Tuple[np.ndarray, float]:
    """Run one (possibly nested) graph strategy; returns (output, clock)."""
    graph = strategy.graph
    current = data
    for index, segment in enumerate(strategy.segments):
        start = clock
        prefix = f"{label}{index}" if label else f"{index}"
        if isinstance(segment, ChainSegment):
            result = simulate_strategy(
                segment.strategy, current, weights=weights, quantize=quantize
            )
            current = result.output
            clock += result.latency_cycles
            traces.append(
                SegmentTrace(
                    kind="chain",
                    label=f"{prefix}:{segment.nodes[0]}..{segment.nodes[-1]}",
                    start_cycle=start,
                    end_cycle=clock,
                    group_traces=tuple(result.group_traces),
                )
            )
        elif isinstance(segment, ParallelSegment):
            fork_blob = current
            outputs = []
            for b, branch in enumerate(segment.branches):
                if not branch.segments:  # identity skip
                    outputs.append(fork_blob)
                    continue
                out, clock = _simulate(
                    branch,
                    fork_blob,
                    weights,
                    quantize,
                    clock,
                    f"{prefix}.b{b}.",
                    traces,
                )
                outputs.append(out)
            current = forward_join(graph.node(segment.join).layer, outputs)
            if quantize is not None:
                current = quantize.quantize(current)
            clock += segment.join_latency_cycles
            traces.append(
                SegmentTrace(
                    kind="parallel",
                    label=f"{prefix}:join {segment.join} ({segment.join_kind})",
                    start_cycle=start,
                    end_cycle=clock,
                )
            )
        else:
            fork_blob = current
            outputs = []
            branch_end = clock
            group_traces: List[GroupTrace] = []
            for b, nodes in enumerate(segment.branch_nodes):
                if not nodes:  # identity skip
                    outputs.append(fork_blob)
                    continue
                impls = list(segment.branch_implementations[b])
                infos = list(chain_network(graph, nodes).infos)
                outputs.append(
                    _group_forward(infos, impls, fork_blob, weights, quantize)
                )
                trace = _group_timing(b, infos, impls, strategy.device, clock)
                group_traces.append(trace)
                branch_end = max(branch_end, trace.end_cycle)
            current = forward_join(graph.node(segment.join).layer, outputs)
            if quantize is not None:
                current = quantize.quantize(current)
            clock = branch_end
            traces.append(
                SegmentTrace(
                    kind="fused",
                    label=f"{prefix}:join {segment.join} ({segment.join_kind})",
                    start_cycle=start,
                    end_cycle=clock,
                    group_traces=tuple(group_traces),
                )
            )
    return current, clock


def simulate_graph_strategy(
    strategy: GraphStrategy,
    data: np.ndarray,
    weights: Optional[Dict[str, Dict[str, np.ndarray]]] = None,
    quantize=None,
    rng: Optional[np.random.Generator] = None,
) -> GraphSimulationResult:
    """Execute a graph strategy on an input image.

    The DAG sibling of :func:`~repro.sim.simulator.simulate_strategy`:
    same weight/quantization semantics, with the functional output
    matching :func:`repro.nn.functional.forward_graph` on the same
    weights (asserted in tests).
    """
    graph = strategy.graph
    if tuple(data.shape) != graph.input_spec.shape:
        raise SimulationError(
            f"input shape {data.shape} != graph input {graph.input_spec.shape}"
        )
    if weights is None:
        weights = init_graph_weights(graph, rng)
    if quantize is not None:
        from repro.algorithms.fixed_point import quantize_model_weights

        weights = quantize_model_weights(weights, quantize)
        data = quantize.quantize(np.asarray(data, dtype=float))

    traces: List[SegmentTrace] = []
    output, clock = _simulate(
        strategy, np.asarray(data, dtype=float), weights, quantize, 0.0, "", traces
    )
    return GraphSimulationResult(
        output=output, latency_cycles=clock, segment_traces=traces
    )


def _collect_service_groups(
    strategy: GraphStrategy, groups: List[GroupServiceModel]
) -> None:
    from repro.sim.simulator import build_service_model

    for segment in strategy.segments:
        if isinstance(segment, ChainSegment):
            for group in build_service_model(segment.strategy).groups:
                groups.append(
                    GroupServiceModel(
                        group_id=len(groups),
                        preload_cycles=group.preload_cycles,
                        first_image_cycles=group.first_image_cycles,
                        steady_interval_cycles=group.steady_interval_cycles,
                    )
                )
        elif isinstance(segment, ParallelSegment):
            for branch in segment.branches:
                _collect_service_groups(branch, groups)
            if segment.join_latency_cycles > 0:
                # An eltwise join is a bandwidth-only stage: no weights
                # to preload, no pipeline to fill, one DRAM round trip
                # per image.
                groups.append(
                    GroupServiceModel(
                        group_id=len(groups),
                        preload_cycles=0.0,
                        first_image_cycles=float(segment.join_latency_cycles),
                        steady_interval_cycles=float(
                            segment.join_latency_cycles
                        ),
                    )
                )
        else:
            steady = max(segment.compute_cycles, segment.transfer_cycles)
            groups.append(
                GroupServiceModel(
                    group_id=len(groups),
                    preload_cycles=0.0,
                    first_image_cycles=float(segment.latency_cycles),
                    steady_interval_cycles=float(
                        min(steady, segment.latency_cycles)
                    ),
                )
            )


def build_graph_service_model(strategy: GraphStrategy) -> ServiceModel:
    """Derive the batched service-time model of a graph strategy.

    Returns the same :class:`~repro.sim.simulator.ServiceModel` type the
    chain path produces, so replicas, schedulers and the serving metrics
    consume graph strategies without change.
    """
    groups: List[GroupServiceModel] = []
    _collect_service_groups(strategy, groups)
    return ServiceModel(groups=tuple(groups))
