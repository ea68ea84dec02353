"""Branch-aware optimization over the series-parallel decomposition.

Lifts the paper's fusion/transfer machinery from layer chains onto the
DAG IR (:mod:`repro.nn.graph`).  The graph is factored into its
series-parallel tree; then:

* maximal runs of series nodes become chain sub-networks and run through
  the *unchanged* Pareto-frontier DP
  (:class:`~repro.optimizer.dp.FrontierOptimizer`) — a linear graph is
  one such run, so chain networks degenerate bit-identically to the
  chain optimizer (asserted in tests);
* every parallel block contributes a frontier of its own, built from two
  candidate families:

  - **split** — each branch is optimized independently (recursively) and
    the branches execute one after another on the single device;
    transfers and latencies add, and the join is priced for transfer: a
    concat is free (channel-major layout makes it pure address
    aliasing), an eltwise join pays a DRAM round trip over its inputs
    and output;
  - **fused** — the whole fork-join region runs as one on-chip group:
    each branch keeps its best single-group design (Algorithm 2 per
    branch), branch pipelines run concurrently (compute is the max,
    resources add), and only the fork tensor and the join output touch
    DRAM — the macro-layer module engine's traffic shape, but with
    per-branch algorithm/parallelism choices (e.g. Winograd on a 3x3
    branch) the macro engine cannot express;

* series composition is the usual frontier cross-product with Pareto
  pruning, exact for the additive (transfer, latency) objective.

All cost evaluation flows through one shared
:class:`~repro.perf.cost.EvalContext`; its keys are graph-position
independent (layer signature + input shape only), so the persistent cost
store built by chain compiles warms graph compiles and vice versa.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple, Union

from repro.errors import OptimizationError, ResourceError
from repro.hardware.device import FPGADevice
from repro.hardware.resources import ResourceVector
from repro.nn.graph import Graph, SPLeaf, SPParallel, SPSeries, sp_leaf_names
from repro.nn.layers import ConcatLayer, InputSpec
from repro.nn.network import Network
from repro.optimizer.branch_and_bound import GroupSearch
from repro.optimizer.dp import FrontierOptimizer, _flush_context, _prune
from repro.optimizer.strategy import Strategy
from repro.perf.cost import CostModel, EvalContext, SearchTelemetry
from repro.perf.group import GroupDesign, fifo_overhead

_INF = float("inf")


# ---------------------------------------------------------------------------
# Strategy segments
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChainSegment:
    """A series run of nodes optimized by the unchanged chain DP."""

    nodes: Tuple[str, ...]
    strategy: Strategy

    kind = "chain"

    @property
    def latency_cycles(self) -> int:
        return self.strategy.latency_cycles

    @property
    def feature_transfer_bytes(self) -> int:
        return self.strategy.feature_transfer_bytes

    @property
    def weight_transfer_bytes(self) -> int:
        return self.strategy.weight_transfer_bytes

    @property
    def total_ops(self) -> int:
        return self.strategy.total_ops

    @property
    def peak_resources(self) -> ResourceVector:
        return self.strategy.peak_resources

    def node_names(self) -> List[str]:
        return list(self.nodes)


@dataclass(frozen=True)
class ParallelSegment:
    """A fork-join block in split mode: branches run one after another.

    Each branch carries its own (recursive) :class:`GraphStrategy`; an
    identity skip is a branch with zero segments.  The join's transfer
    cost rides on the segment: zero for a concat, a DRAM round trip for
    an eltwise combine.
    """

    fork: Optional[str]
    join: str
    join_kind: str  #: "concat" or "eltwise"
    branches: Tuple["GraphStrategy", ...]
    join_transfer_bytes: int
    join_latency_cycles: int
    join_ops: int

    kind = "parallel"

    @property
    def latency_cycles(self) -> int:
        return (
            sum(b.latency_cycles for b in self.branches)
            + self.join_latency_cycles
        )

    @property
    def feature_transfer_bytes(self) -> int:
        return (
            sum(b.feature_transfer_bytes for b in self.branches)
            + self.join_transfer_bytes
        )

    @property
    def weight_transfer_bytes(self) -> int:
        return sum(b.weight_transfer_bytes for b in self.branches)

    @property
    def total_ops(self) -> int:
        return sum(b.total_ops for b in self.branches) + self.join_ops

    @property
    def peak_resources(self) -> ResourceVector:
        # Branches execute sequentially: the device is reconfigured (or
        # time-shared) between them, so the peak is the max, not the sum.
        peak = ResourceVector()
        for branch in self.branches:
            peak = _resource_max(peak, branch.peak_resources)
        return peak

    def node_names(self) -> List[str]:
        names: List[str] = []
        for branch in self.branches:
            names.extend(branch.node_names())
        names.append(self.join)
        return names


@dataclass(frozen=True)
class FusedParallelSegment:
    """A fork-join block fused into one on-chip group.

    Branch pipelines run concurrently off one streamed copy of the fork
    tensor; only the fork tensor and the join output cross DRAM.
    ``branch_implementations`` holds each branch's engines (empty tuple
    for an identity skip).
    """

    fork: Optional[str]
    join: str
    join_kind: str
    branch_nodes: Tuple[Tuple[str, ...], ...]
    branch_implementations: Tuple[Tuple, ...]
    resources: ResourceVector
    compute_cycles: int
    transfer_cycles: int
    fill_cycles: int
    latency_cycles: int
    feature_transfer_bytes: int
    weight_transfer_bytes: int
    ops: int

    kind = "fused"

    @property
    def total_ops(self) -> int:
        return self.ops

    @property
    def peak_resources(self) -> ResourceVector:
        return self.resources

    @property
    def bottleneck(self) -> str:
        """Named like :attr:`GroupDesign.bottleneck`."""
        return "compute" if self.compute_cycles >= self.transfer_cycles else "bandwidth"

    def node_names(self) -> List[str]:
        names: List[str] = []
        for nodes in self.branch_nodes:
            names.extend(nodes)
        names.append(self.join)
        return names


Segment = Union[ChainSegment, ParallelSegment, FusedParallelSegment]


def _resource_max(a: ResourceVector, b: ResourceVector) -> ResourceVector:
    return ResourceVector(
        bram18k=max(a.bram18k, b.bram18k),
        dsp=max(a.dsp, b.dsp),
        ff=max(a.ff, b.ff),
        lut=max(a.lut, b.lut),
    )


# ---------------------------------------------------------------------------
# GraphStrategy
# ---------------------------------------------------------------------------


class GraphStrategy:
    """A complete branch-aware assignment for one graph on one device.

    The DAG sibling of :class:`~repro.optimizer.strategy.Strategy`:
    top-level segments execute in series, so latencies and DRAM traffic
    add; each segment must fit the device on its own.
    """

    def __init__(
        self,
        graph: Graph,
        device: FPGADevice,
        segments: Sequence[Segment],
        telemetry: Optional[SearchTelemetry] = None,
    ):
        if not segments and len(graph) > 0:
            raise OptimizationError("a graph strategy needs at least one segment")
        self.graph = graph
        self.device = device
        self.segments: List[Segment] = list(segments)
        self.telemetry = telemetry

    # -- aggregate metrics ----------------------------------------------------

    @property
    def latency_cycles(self) -> int:
        return sum(segment.latency_cycles for segment in self.segments)

    def latency_seconds(self) -> float:
        return self.device.cycles_to_seconds(self.latency_cycles)

    @property
    def feature_transfer_bytes(self) -> int:
        return sum(s.feature_transfer_bytes for s in self.segments)

    @property
    def weight_transfer_bytes(self) -> int:
        return sum(s.weight_transfer_bytes for s in self.segments)

    @property
    def total_ops(self) -> int:
        return sum(s.total_ops for s in self.segments)

    def effective_gops(self) -> float:
        seconds = self.latency_seconds()
        return self.total_ops / seconds / 1e9 if seconds > 0 else 0.0

    @property
    def peak_resources(self) -> ResourceVector:
        peak = ResourceVector()
        for segment in self.segments:
            peak = _resource_max(peak, segment.peak_resources)
        return peak

    def node_names(self) -> List[str]:
        """Every graph node this strategy covers, in execution order."""
        names: List[str] = []
        for segment in self.segments:
            names.extend(segment.node_names())
        return names

    def validate(self, transfer_constraint_bytes: Optional[int] = None) -> None:
        """Check device fit per segment and the optional transfer bound."""
        for segment in self.segments:
            if isinstance(segment, ChainSegment):
                segment.strategy.validate()
            elif isinstance(segment, ParallelSegment):
                for branch in segment.branches:
                    branch.validate()
            elif not segment.resources.fits(self.device.resources):
                raise ResourceError(
                    f"fused block at {segment.join!r} needs "
                    f"{segment.resources}, device {self.device.name} "
                    f"provides {self.device.resources}"
                )
        if (
            transfer_constraint_bytes is not None
            and self.feature_transfer_bytes > transfer_constraint_bytes
        ):
            raise OptimizationError(
                f"graph strategy transfers {self.feature_transfer_bytes} "
                f"feature-map bytes, constraint is {transfer_constraint_bytes}"
            )

    def to_dict(self) -> dict:
        """The strategy payload: every segment's engines (see
        :func:`repro.optimizer.serialize.strategy_to_dict`)."""
        from repro.optimizer.serialize import strategy_to_dict

        return strategy_to_dict(self)

    # -- reporting ------------------------------------------------------------

    def _segment_lines(self, indent: str = "") -> List[str]:
        lines: List[str] = []
        for stage, segment in enumerate(self.segments):
            if isinstance(segment, ChainSegment):
                lines.append(
                    f"{indent}stage {stage} [chain] "
                    f"{segment.nodes[0]}..{segment.nodes[-1]}: "
                    f"{len(segment.strategy.designs)} group(s), "
                    f"{segment.latency_cycles:,} cycles"
                )
                for design in segment.strategy.designs:
                    for impl in design.implementations:
                        lines.append(
                            f"{indent}  {impl.layer_name:<20} "
                            f"{impl.algorithm.value:<12} p={impl.parallelism}"
                        )
            elif isinstance(segment, ParallelSegment):
                lines.append(
                    f"{indent}stage {stage} [parallel/split] "
                    f"fork={segment.fork or 'input'} "
                    f"join={segment.join} ({segment.join_kind}, "
                    f"{len(segment.branches)} branches): "
                    f"{segment.latency_cycles:,} cycles"
                )
                for b, branch in enumerate(segment.branches):
                    if not branch.segments:
                        lines.append(f"{indent}  branch {b}: identity skip")
                        continue
                    lines.append(
                        f"{indent}  branch {b}: "
                        f"{branch.latency_cycles:,} cycles"
                    )
                    lines.extend(branch._segment_lines(indent + "    "))
            else:
                lines.append(
                    f"{indent}stage {stage} [parallel/fused] "
                    f"fork={segment.fork or 'input'} "
                    f"join={segment.join} ({segment.join_kind}, "
                    f"{len(segment.branch_nodes)} branches): "
                    f"{segment.latency_cycles:,} cycles, "
                    f"{segment.bottleneck}-bound"
                )
                for b, impls in enumerate(segment.branch_implementations):
                    if not impls:
                        lines.append(f"{indent}  branch {b}: identity skip")
                        continue
                    for impl in impls:
                        lines.append(
                            f"{indent}  b{b} {impl.layer_name:<18} "
                            f"{impl.algorithm.value:<12} p={impl.parallelism}"
                        )
        return lines

    def report(self) -> str:
        """Branch structure, per-layer choices and aggregate numbers."""
        lines = [
            f"Graph strategy for {self.graph.name!r} on {self.device.name}: "
            f"{len(self.segments)} stage(s), "
            f"latency {self.latency_cycles:,} cycles "
            f"({self.latency_seconds() * 1e3:.2f} ms), "
            f"{self.effective_gops():.1f} effective GOPS"
        ]
        lines.extend(self._segment_lines())
        lines.append(
            f"feature-map transfer: {self.feature_transfer_bytes / 2**20:.2f} "
            f"MB, weight transfer: {self.weight_transfer_bytes / 2**20:.2f} MB"
        )
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"GraphStrategy(stages={len(self.segments)}, "
            f"latency={self.latency_cycles}, "
            f"transfer={self.feature_transfer_bytes})"
        )


# ---------------------------------------------------------------------------
# Shared construction: what the search builds and a loaded strategy rebuilds
# ---------------------------------------------------------------------------


def series_parts(
    series: SPSeries, start: int = 0, stop: Optional[int] = None
) -> Iterator[Union[SPParallel, Tuple[Tuple[str, ...], int, int]]]:
    """The blocks ``[start, stop)`` of ``series`` as the search prices
    them: each parallel block alone, each maximal run of leaves as
    ``(run, a, b)`` — all its node names, of which ``run[a:b]`` lie in
    the range."""
    blocks = series.blocks
    stop = len(blocks) if stop is None else stop
    index = start
    while index < stop:
        block = blocks[index]
        if isinstance(block, SPParallel):
            yield block
            index += 1
            continue
        first = last = index
        while first > 0 and isinstance(blocks[first - 1], SPLeaf):
            first -= 1
        while last < len(blocks) and isinstance(blocks[last], SPLeaf):
            last += 1
        end = min(last, stop)
        yield (
            tuple(leaf.node for leaf in blocks[first:last]),
            index - first,
            end - first,
        )
        index = end


def chain_network(graph: Graph, names: Sequence[str]) -> Network:
    """The sub-Network of a series run of nodes."""
    if len(names) == len(graph) and graph.is_chain:
        # Whole-graph run: keep the graph's own name so the chain
        # degeneracy is exact (network identity included).
        return graph.to_network()
    first = graph.node(names[0])
    spec = InputSpec(*first.input_shapes[0])
    layers = [graph.node(name).layer for name in names]
    return Network(f"{graph.name}[{names[0]}..{names[-1]}]", spec, layers)


def branch_graph(graph: Graph, block: SPParallel, index: int) -> Graph:
    """Branch ``index`` of ``block`` as a graph fed by the fork tensor
    (no nodes for an identity skip)."""
    fork_ref = block.fork if block.fork is not None else graph.input_name
    spec = InputSpec(*graph.producer_shape(fork_ref))
    branch = block.branches[index]
    if not branch.blocks:
        return Graph(f"{graph.name}/identity", spec, [], input_name=fork_ref)
    return graph.subgraph(
        sp_leaf_names(branch),
        name=f"{graph.name}/{fork_ref}..{block.join}#{index}",
        input_name=fork_ref,
        input_spec=spec,
    )


def stage_graph(graph: Graph, blocks: Sequence, start: int, stop: int) -> Graph:
    """The subgraph of top-level ``blocks[start:stop]``, fed by the
    tensor crossing into block ``start`` (the graph itself when the
    range is every block)."""
    if (start, stop) == (0, len(blocks)):
        return graph
    names = [name for block in blocks[start:stop] for name in sp_leaf_names(block)]
    input_name = (
        graph.input_name if start == 0 else sp_leaf_names(blocks[start - 1])[-1]
    )
    return graph.subgraph(
        names,
        name=f"{graph.name}[u{start}:u{stop}]",
        input_name=input_name,
        input_spec=InputSpec(*graph.producer_shape(input_name)),
    )


def join_cost(
    graph: Graph, join_name: str, device: FPGADevice
) -> Tuple[str, int, int, int]:
    """(kind, transfer_bytes, latency_cycles, ops) of a split-mode join."""
    info = graph.node(join_name)
    if isinstance(info.layer, ConcatLayer):
        # Channel-major layout: branches already stored adjacent
        # channel ranges; the concat is pure address aliasing.
        return "concat", 0, 0, 0
    transfer = (info.input_size + info.output_size) * device.element_bytes
    latency = math.ceil(transfer / device.bytes_per_cycle)
    return "eltwise", transfer, latency, info.ops


def fuse_branches(
    graph: Graph,
    fork: Optional[str],
    join: str,
    branch_nodes: Sequence[Tuple[str, ...]],
    designs: Sequence[Optional[GroupDesign]],
    device: FPGADevice,
) -> FusedParallelSegment:
    """The fork-join block at ``join`` run as one on-chip group.

    ``designs[b]`` is branch ``b``'s single-group design (None for an
    identity skip).  Branch pipelines run concurrently off one streamed
    copy of the fork tensor: compute and fill are the slowest branch's,
    resources and weight traffic add, and only the fork tensor and the
    join output cross DRAM.  The result may not fit the device.
    """
    fork_shape = graph.producer_shape(fork if fork is not None else graph.input_name)
    feature_bytes = (
        math.prod(fork_shape) + graph.node(join).output_size
    ) * device.element_bytes
    join_kind, _, _, join_ops = join_cost(graph, join, device)
    real = [d for d in designs if d is not None]
    # Fork fan-out and join fan-in FIFO channels on top of the branches'
    # internal ones (already inside each design).
    resources = ResourceVector.total(d.resources for d in real) + fifo_overhead(
        2 * len(designs) + 1
    )
    compute = max(d.compute_cycles for d in real)
    fill = max(d.fill_cycles for d in real)
    weight_bytes = sum(d.weight_transfer_bytes for d in real)
    transfer_cycles = math.ceil(
        (feature_bytes + weight_bytes) / device.bytes_per_cycle
    )
    return FusedParallelSegment(
        fork=fork,
        join=join,
        join_kind=join_kind,
        branch_nodes=tuple(branch_nodes),
        branch_implementations=tuple(
            () if d is None else d.implementations for d in designs
        ),
        resources=resources,
        compute_cycles=compute,
        transfer_cycles=transfer_cycles,
        fill_cycles=fill,
        latency_cycles=max(compute, transfer_cycles) + fill,
        feature_transfer_bytes=feature_bytes,
        weight_transfer_bytes=weight_bytes,
        ops=sum(d.ops for d in real) + join_ops,
    )


# ---------------------------------------------------------------------------
# Frontier search
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _GPlan:
    """A (transfer, latency) point plus the builders that materialize it."""

    transfer_bytes: int
    latency_cycles: int
    builders: Tuple[Callable[[], Segment], ...]
    #: Top-level blocks ``[start, stop)`` a :meth:`GraphOptimizer.frontier`
    #: plan covers (None inside the search).
    span: Optional[Tuple[int, int]] = None


#: The plan of an identity skip: nothing to run, nothing to pay.
_IDENTITY = _GPlan(transfer_bytes=0, latency_cycles=0, builders=())


class GraphOptimizer:
    """Exact (transfer, latency) frontiers over a series-parallel graph.

    Mirrors :class:`~repro.optimizer.dp.FrontierOptimizer`'s surface for
    graphs: one shared evaluation context, a frontier query over a range
    of top-level blocks (the partitioner's units), a best-plan lookup
    under the paper's T, and materialization into a
    :class:`GraphStrategy`.
    """

    def __init__(
        self,
        graph: Graph,
        device: FPGADevice,
        context: Optional[CostModel] = None,
    ):
        if len(graph) == 0:
            raise OptimizationError("cannot optimize an empty graph")
        self.graph = graph
        self.device = device
        self.context: CostModel = context if context is not None else EvalContext()
        self._tree = graph.decompose()
        self._frontiers: Dict[Tuple[int, int], List[_GPlan]] = {}
        self._chain_runs: Dict[Tuple[str, ...], FrontierOptimizer] = {}
        self._blocks: Dict[str, List[_GPlan]] = {}

    @property
    def telemetry(self):
        return self.context.stats

    # -- chain runs -----------------------------------------------------------

    def _run_optimizer(
        self, graph: Graph, names: Tuple[str, ...]
    ) -> FrontierOptimizer:
        cached = self._chain_runs.get(names)
        if cached is None:
            cached = FrontierOptimizer(
                chain_network(graph, names),
                self.device,
                context=self.context,
            )
            self._chain_runs[names] = cached
        return cached

    def _chain_frontier(
        self, graph: Graph, names: Tuple[str, ...], start: int, stop: int
    ) -> List[_GPlan]:
        """Frontier of ``names[start:stop]``: a range query on the run's
        one chain search."""
        optimizer = self._run_optimizer(graph, names)
        members = names[start:stop]
        plans = []
        for plan in optimizer.frontier(start, stop):
            plans.append(
                _GPlan(
                    transfer_bytes=plan.transfer_bytes,
                    latency_cycles=plan.latency_cycles,
                    builders=(
                        lambda p=plan, o=optimizer, n=members: ChainSegment(
                            nodes=n, strategy=o.materialize(p)
                        ),
                    ),
                )
            )
        return plans

    # -- series / parallel composition ---------------------------------------

    @staticmethod
    def _combine(
        left: List[_GPlan], right: List[_GPlan]
    ) -> List[_GPlan]:
        """Cross-product of two series frontiers, Pareto-pruned."""
        combined = [
            _GPlan(
                transfer_bytes=a.transfer_bytes + b.transfer_bytes,
                latency_cycles=a.latency_cycles + b.latency_cycles,
                builders=a.builders + b.builders,
            )
            for a in left
            for b in right
        ]
        return _prune(combined)

    def _series_frontier(
        self,
        graph: Graph,
        series: SPSeries,
        start: int = 0,
        stop: Optional[int] = None,
    ) -> List[_GPlan]:
        """Frontier of the blocks ``[start, stop)`` of ``series``.

        Each maximal run of leaves is one chain search, queried on the
        part of the run inside the range; each parallel block
        contributes its frontier, computed once.
        """
        frontier: Optional[List[_GPlan]] = None
        for part in series_parts(series, start, stop):
            if isinstance(part, SPParallel):
                front = self._parallel_frontier(graph, part)
            else:
                front = self._chain_frontier(graph, *part)
            frontier = (
                front if frontier is None else self._combine(frontier, front)
            )
        return frontier if frontier is not None else []

    def _parallel_frontier(
        self, graph: Graph, block: SPParallel
    ) -> List[_GPlan]:
        cached = self._blocks.get(block.join)
        if cached is not None:
            return cached
        join_kind, join_transfer, join_latency, join_ops = join_cost(
            graph, block.join, self.device
        )
        subgraphs = [
            branch_graph(graph, block, index)
            for index in range(len(block.branches))
        ]
        branch_fronts = [
            self._series_frontier(sub, branch) if branch.blocks else [_IDENTITY]
            for sub, branch in zip(subgraphs, block.branches)
        ]

        # Split mode: cross-product of branch frontiers (additive both
        # ways — branches share the device sequentially), join priced in.
        split: List[_GPlan] = [_IDENTITY]
        for front in branch_fronts:
            split = [
                _GPlan(
                    transfer_bytes=a.transfer_bytes + b.transfer_bytes,
                    latency_cycles=a.latency_cycles + b.latency_cycles,
                    builders=a.builders + (b.builders,),  # nested per branch
                )
                for a in split
                for b in front
            ]
            split = _prune(split)

        def split_builder(plan: _GPlan) -> Callable[[], Segment]:
            def build() -> Segment:
                return ParallelSegment(
                    fork=block.fork,
                    join=block.join,
                    join_kind=join_kind,
                    branches=tuple(
                        GraphStrategy(sub, self.device, [b() for b in builders])
                        for sub, builders in zip(subgraphs, plan.builders)
                    ),
                    join_transfer_bytes=join_transfer,
                    join_latency_cycles=join_latency,
                    join_ops=join_ops,
                )

            return build

        plans = [
            _GPlan(
                transfer_bytes=p.transfer_bytes + join_transfer,
                latency_cycles=p.latency_cycles + join_latency,
                builders=(split_builder(p),),
            )
            for p in split
        ]

        fused = self._fused_candidate(graph, block, subgraphs)
        if fused is not None:
            plans.append(fused)
        pruned = self._blocks[block.join] = _prune(plans)
        return pruned

    def _fused_candidate(
        self, graph: Graph, block: SPParallel, subgraphs: List[Graph]
    ) -> Optional[_GPlan]:
        """One whole-block on-chip design, when every branch is a chain."""
        designs: List[Optional[GroupDesign]] = []
        for sub in subgraphs:
            if len(sub) == 0:
                designs.append(None)
                continue
            if not sub.is_chain:
                return None  # nested forks: split mode only
            network = sub.to_network()
            design = GroupSearch(network, self.device, context=self.context).fusion(
                0, len(network)
            )
            if design is None:
                return None
            designs.append(design)
        segment = fuse_branches(
            graph, block.fork, block.join,
            [sub.topo_order for sub in subgraphs], designs, self.device,
        )
        if not segment.resources.fits(self.device.resources):
            return None
        return _GPlan(
            transfer_bytes=segment.feature_transfer_bytes,
            latency_cycles=segment.latency_cycles,
            builders=(lambda: segment,),
        )

    # -- queries --------------------------------------------------------------

    def frontier(
        self,
        start: int = 0,
        stop: Optional[int] = None,
        budget: Optional[int] = None,
    ) -> List[_GPlan]:
        """Non-dominated (transfer, latency) plans for the top-level
        blocks ``[start, stop)`` of the decomposition (default: the
        whole graph), only those within ``budget`` when one is given.

        The search itself is unbounded; ``budget`` filters its result.
        """
        key = (start, len(self._tree.blocks) if stop is None else stop)
        cached = self._frontiers.get(key)
        if cached is None:
            cached = [
                replace(plan, span=key)
                for plan in self._series_frontier(self.graph, self._tree, *key)
            ]
            self._frontiers[key] = cached
        if budget is None:
            return cached
        return [plan for plan in cached if plan.transfer_bytes <= budget]

    def best_plan(self, transfer_constraint_bytes: int) -> _GPlan:
        """Cheapest plan whose feature-map transfer fits the constraint."""
        frontier = self.frontier()
        feasible = [
            p for p in frontier if p.transfer_bytes <= transfer_constraint_bytes
        ]
        if not feasible:
            minimum = min(
                (p.transfer_bytes for p in frontier), default=None
            )
            hint = (
                f"; the minimum achievable is {minimum} bytes"
                if minimum is not None
                else "; no feasible design fits the device at all"
            )
            raise OptimizationError(
                f"no graph strategy fits transfer constraint "
                f"{transfer_constraint_bytes} bytes{hint}"
            )
        return min(feasible, key=lambda p: p.latency_cycles)

    def materialize(self, plan: _GPlan) -> GraphStrategy:
        """Turn a plan into a full GraphStrategy with segment designs.

        A plan from ``frontier(start, stop)`` covers the subgraph of
        those top-level blocks, fed by the tensor crossing into block
        ``start``.
        """
        graph = stage_graph(self.graph, self._tree.blocks, *plan.span)
        return GraphStrategy(
            graph,
            self.device,
            [builder() for builder in plan.builders],
            telemetry=self.telemetry,
        )


def optimize_graph(
    graph: Graph,
    device: FPGADevice,
    transfer_constraint_bytes: int,
    context: Optional[CostModel] = None,
) -> GraphStrategy:
    """Minimal-latency branch-aware strategy under a transfer constraint.

    The DAG sibling of :func:`repro.optimizer.dp.optimize` — the same
    knobs less the chain-only tile-size search, and bit-identical output
    on chain graphs (the whole graph is then one series run through the
    unchanged chain DP).
    """
    optimizer = GraphOptimizer(graph, device, context=context)
    plan = optimizer.best_plan(transfer_constraint_bytes)
    strategy = optimizer.materialize(plan)
    strategy.validate(transfer_constraint_bytes)
    _flush_context(context)
    return strategy
