"""Algorithm 2: depth-first branch-and-bound for ``fusion[i][j]``.

Finds the best implementation of layers ``i..j`` fused as one group under
the device resource constraint R: per layer, choose an algorithm and a
hardware parallelism; the group's cost is its inter-layer-pipelined
latency (the slowest stage plus fills and shared DRAM transfer).

The search mirrors the paper's pseudo-code: depth-first over layers,
parallelism iterated from max to min so that once a layer's own stage
latency exceeds the incumbent the remaining (slower) candidates can be
cut (paper lines 16-17), ``implement()`` results memoized across the
whole search ("unvisited[cnt][algo][p]") — and, through the shared
:class:`~repro.perf.cost.EvalContext`, across *searches*: the cache is
keyed by layer signature, so VGG's shape-identical conv layers share
entries, and one context can serve a whole ``optimize_many`` sweep or a
device-variant DSE.  The context also remembers the engines every
completed search chose, by :class:`~repro.perf.cost.GroupKey`: a range
whose layer signatures match one already searched — here, in another
search or, via the persistent store, in another process — is composed
from those engines by :func:`compose_group`, not searched, and a layer
whose every range is recalled never asks the cost model at all.
Admissible bounds are added on top of the
paper's: a latency lower bound from the best-possible remaining stages,
a resource lower bound from the cheapest remaining engines, and two
resource-aware floors from a multiple-choice knapsack over each layer
suffix — the least summed fill (and fill plus weight transfer) of any
completion that fits the DSPs left free.
"""

from __future__ import annotations

import math
import time
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, replace
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.errors import OptimizationError
from repro.hardware.device import FPGADevice
from repro.hardware.resources import ResourceVector
from repro.nn.layers import ConvLayer
from repro.nn.network import LayerInfo, Network
from repro.perf.cost import CostModel, EvalContext, GroupChoices, GroupKey
from repro.perf.group import compose_group, fifo_overhead, GroupDesign
from repro.perf.implement import (
    Algorithm,
    Implementation,
    WeightMode,
    candidate_algorithms,
    candidate_parallelisms,
    candidate_weight_modes,
    candidate_winograd_tiles,
    WINOGRAD_M,
)
from repro.perf.record import query_of


#: One resolved candidate: (compute cycles, fill cycles, DRAM weight
#: bytes, BRAM18K, DSP, FF, LUT, and the Implementation ``implement()``
#: returned).
_Row = Tuple[int, int, int, int, int, int, int, Implementation]

#: :meth:`GroupSearch._recall` found nothing it can use.
_MISS = object()


#: Resource-aware floors of one layer suffix, as a step function of the
#: DSPs left free: ``(dsps, fills, transfers)``.  With ``free`` in
#: ``[dsps[j], dsps[j + 1])``, every completion of the suffix that fits
#: in ``free`` DSPs has at least ``fills[j]`` summed fill cycles and at
#: least ``transfers[j]`` summed fill plus weight-transfer cycles.  Fewer
#: than ``dsps[0]`` free DSPs fit no completion at all.
Floors = Tuple[array, array, array]

#: The floors of an empty suffix: nothing left to place, nothing to pay.
NO_LAYERS: Floors = (array("q", [0]), array("q", [0]), array("q", [0]))

#: Dense-table sentinel for "no completion fits this many DSPs".
_INFEASIBLE = 2**62


def _dense(floors: Floors, size: int) -> Tuple[np.ndarray, np.ndarray]:
    """Expand step-function floors to one entry per free-DSP count."""
    fill = np.full(size, _INFEASIBLE, dtype=np.int64)
    transfer = np.full(size, _INFEASIBLE, dtype=np.int64)
    dsps, fills, transfers = floors
    if dsps:
        widths = np.diff(np.append(np.frombuffer(dsps, dtype=np.int64), size))
        fill[dsps[0]:] = np.repeat(np.frombuffer(fills, dtype=np.int64), widths)
        transfer[dsps[0]:] = np.repeat(
            np.frombuffer(transfers, dtype=np.int64), widths
        )
    return fill, transfer


def extend_floors(
    suffix: Floors, costs: Iterable[Tuple[int, int, int]], max_dsp: int
) -> Floors:
    """One knapsack step: put a layer in front of a suffix's floors.

    Args:
        suffix: Floors of the layers after this one.
        costs: The layer's candidates as ``(dsp, fill, fill + weight
            transfer cycles)``; exactly one is chosen.
        max_dsp: Largest free-DSP count the floors need to answer.

    Returns:
        The floors of this layer plus the suffix, exact for the
        DSP-only relaxation (every other resource is ignored), so they
        are lower bounds on every completion that fits the device.
    """
    size = max_dsp + 1
    below_fill, below_transfer = _dense(suffix, size)
    fill = np.full(size, _INFEASIBLE, dtype=np.int64)
    transfer = np.full(size, _INFEASIBLE, dtype=np.int64)
    # Only candidates that some DSP count prefers over every cheaper one
    # can set an entry.
    best_fill = best_transfer = _INFEASIBLE
    for dsp, row_fill, row_transfer in sorted(set(costs)):
        if dsp > max_dsp:
            break
        if row_fill >= best_fill and row_transfer >= best_transfer:
            continue
        best_fill = min(best_fill, row_fill)
        best_transfer = min(best_transfer, row_transfer)
        width = size - dsp
        np.minimum(fill[dsp:], below_fill[:width] + row_fill, out=fill[dsp:])
        np.minimum(
            transfer[dsp:], below_transfer[:width] + row_transfer,
            out=transfer[dsp:],
        )
    feasible = np.flatnonzero(fill < _INFEASIBLE)
    if not len(feasible):
        return array("q"), array("q"), array("q")
    first = int(feasible[0])
    steps = np.flatnonzero(
        (fill[first + 1:] != fill[first:-1])
        | (transfer[first + 1:] != transfer[first:-1])
    ) + (first + 1)
    keys = np.concatenate(([first], steps))
    return (
        array("q", keys.tolist()),
        array("q", fill[keys].tolist()),
        array("q", transfer[keys].tolist()),
    )


def conv_depth(network: Network, start: int, stop: int) -> int:
    """What the fusion-depth cap counts in ``[start, stop)``.

    Convolution engines only: pool and LRN stages are lightweight and do
    not hold memory ports (the paper's Table 2 lumps them as "other
    layers" inside the single fused AlexNet group).
    """
    return sum(
        1 for i in range(start, stop) if isinstance(network[i].layer, ConvLayer)
    )


class _BudgetExhausted(Exception):
    """Raised inside a search once it visits more than its node budget."""


class _Ladder:
    """One menu option's candidates, resolved in descending parallelism.

    The search-local fast path in front of the context: the inner loop
    re-queries the same few hundred design points many times, so each is
    resolved once into a flat row of plain ints, ``rows[k]`` for the
    k-th parallelism.  Per network, per device — exactly this search's
    scope; cross-layer and cross-search sharing still happens in the
    context, which each unique point hits once.  Beside the rows
    are the columns the search bisects: fill and compute + fill, which
    never decrease as the parallelism descends, and every resource
    negated (resources never grow as it descends).  ``weight`` is the
    option's DRAM weight traffic, the same at every parallelism; None
    until :meth:`GroupSearch._resolve` reads it off the fastest engine.
    ``tests/test_branch_and_bound.py`` checks these ladder invariants.
    """

    __slots__ = (
        "query", "parallelisms", "weight", "rows",
        "fills", "totals", "brams", "dsps", "ffs", "luts",
    )

    def __init__(
        self, query: Tuple[Algorithm, WeightMode, int], parallelisms: List[int]
    ):
        self.query = query
        self.parallelisms = parallelisms
        self.weight: Optional[int] = None
        self.rows: List[_Row] = []
        self.fills: List[int] = []
        self.totals: List[int] = []
        self.brams: List[int] = []
        self.dsps: List[int] = []
        self.ffs: List[int] = []
        self.luts: List[int] = []

    def extend(self, context: CostModel, info: LayerInfo, device: FPGADevice) -> None:
        """Resolve the next parallelism through ``context.implement``."""
        algo, mode, m = self.query
        parallelism = self.parallelisms[len(self.rows)]
        impl = context.implement(
            info, algo, parallelism, device, weight_mode=mode, winograd_m=m
        )
        res = impl.resources
        compute, fill = impl.compute_cycles, impl.fill_cycles
        self.rows.append((
            compute, fill, impl.weight_dram_bytes,
            res.bram18k, res.dsp, res.ff, res.lut, impl,
        ))
        self.fills.append(fill)
        self.totals.append(compute + fill)
        self.brams.append(-res.bram18k)
        self.dsps.append(-res.dsp)
        self.ffs.append(-res.ff)
        self.luts.append(-res.lut)


@dataclass
class _LayerMenu:
    """All candidate implementations of one layer.

    The options come from the cheap candidate lists; the bounds below
    (and each ladder's ``weight``) need ``implement()``, so
    :meth:`GroupSearch._resolve` fills them in when a search first
    needs them and they are None until then.  The ``implement()``
    results themselves live in the shared
    :class:`~repro.perf.cost.EvalContext`, keyed by layer signature, so
    shape-identical layers (and repeated searches) share them.
    """

    info: LayerInfo
    #: one ladder per (algorithm, weight mode, winograd tile m) option
    ladders: List[_Ladder]
    #: whether the search's algorithm set dropped some of this layer's
    #: candidate algorithms
    pinned: bool
    #: fastest achievable compute cycles across all options
    best_compute: Optional[int] = None
    #: cheapest resource vector across all options
    min_resources: Optional[ResourceVector] = None
    #: smallest DRAM weight traffic across algorithms (p-independent)
    min_weight_dram: Optional[int] = None
    #: smallest DSP multiplication count across algorithms (0 for engines
    #: that do not occupy DSPs, e.g. pooling)
    min_dsp_work: Optional[int] = None


class GroupSearch:
    """Reusable Algorithm-2 searcher for one network on one device.

    Lists every layer's menu options once, then answers
    ``fusion[i][j]`` queries with memoization — exactly how Algorithm 1
    consumes Algorithm 2 ("the fusion[i][j] array is generated by
    Algorithm 2 offline").
    """

    def __init__(
        self,
        network: Network,
        device: FPGADevice,
        algorithms: Optional[Tuple[Algorithm, ...]] = None,
        node_budget: int = 250_000,
        explore_tile_sizes: bool = False,
        context: Optional[CostModel] = None,
    ):
        """Args:
            network: The network whose layer ranges will be fused.
            device: Target device (resource constraint R).
            algorithms: Optional algorithm set each layer's menu is cut
                to; a layer none of them serves keeps its full menu
                (pool and LRN engines, Winograd pinned on a strided
                conv).  Used by the homogeneous-design baselines; part
                of the group memo's key.
            node_budget: Per-query cap on search nodes.  The search is
                exact whenever it completes within the budget (always the
                case for the group depths the paper's case studies need);
                past the cap it returns the best incumbent — set to 0 for
                an unbounded, provably exact search.
            explore_tile_sizes: Also search Winograd tile sizes m in
                {2, 4, 6} per layer instead of the paper's uniform m=4.
            context: Shared signature-keyed evaluation layer; a private
                :class:`~repro.perf.cost.EvalContext` is created when
                omitted.  Pass one in to share ``implement()`` results
                (and telemetry) across searches, sweeps, and devices.
        """
        self.network = network
        self.device = device
        self.algorithms = (
            None if algorithms is None else tuple(sorted(set(algorithms)))
        )
        self.node_budget = node_budget
        self.explore_tile_sizes = explore_tile_sizes
        self.context: CostModel = context if context is not None else EvalContext()
        self._menus: List[_LayerMenu] = [
            self._build_menu(network[i]) for i in range(len(network))
        ]
        self._fusion_cache: Dict[Tuple[int, int], Optional[GroupDesign]] = {}
        # Knapsack floors of every layer suffix ``[i, stop)`` a search has
        # needed, shared by all searches ending at ``stop``.
        self._floors: Dict[Tuple[int, int], Floors] = {}
        self.nodes_visited = 0

    def _build_menu(self, info: LayerInfo) -> _LayerMenu:
        """The layer's options, from the candidate lists alone."""
        ladders: List[_Ladder] = []
        candidates = algorithms = candidate_algorithms(info)
        if self.algorithms is not None:
            pinned = [a for a in algorithms if a in self.algorithms]
            algorithms = pinned or algorithms
        for algo in algorithms:
            parallelisms = candidate_parallelisms(info, algo, self.device)
            if algo == Algorithm.WINOGRAD:
                tiles = candidate_winograd_tiles(info, self.explore_tile_sizes)
            else:
                tiles = [WINOGRAD_M]
            for m in tiles:
                for mode in candidate_weight_modes(info, algo, self.device, m):
                    ladders.append(_Ladder((algo, mode, m), parallelisms))
        return _LayerMenu(
            info=info, ladders=ladders, pinned=len(algorithms) < len(candidates)
        )

    def _resolve(self, menu: _LayerMenu) -> None:
        """Fill in a menu's bounds and its ladders' weights, once, from
        each option's fastest and cheapest engine."""
        if menu.best_compute is not None:
            return
        info = menu.info
        best_compute = min_weight = min_dsp_work = None
        min_res: Optional[ResourceVector] = None
        for ladder in menu.ladders:
            algo, mode, m = ladder.query
            parallelisms = ladder.parallelisms
            fastest = self.context.implement(
                info, algo, parallelisms[0], self.device,
                weight_mode=mode, winograd_m=m,
            )
            cheapest = self.context.implement(
                info, algo, parallelisms[-1], self.device,
                weight_mode=mode, winograd_m=m,
            )
            ladder.weight = fastest.weight_dram_bytes
            if best_compute is None or fastest.compute_cycles < best_compute:
                best_compute = fastest.compute_cycles
            if min_weight is None or fastest.weight_dram_bytes < min_weight:
                min_weight = fastest.weight_dram_bytes
            # Admissible per-layer DSP work: (ceil(w/p) - 1) * p < w,
            # so the work-conservation floor can never over-prune.
            if fastest.resources.dsp == 0:
                work = 0
            else:
                work = max(0, fastest.compute_cycles - 1) * parallelisms[0]
            if min_dsp_work is None or work < min_dsp_work:
                min_dsp_work = work
            if min_res is None:
                min_res = cheapest.resources
            else:
                min_res = ResourceVector(
                    bram18k=min(min_res.bram18k, cheapest.resources.bram18k),
                    dsp=min(min_res.dsp, cheapest.resources.dsp),
                    ff=min(min_res.ff, cheapest.resources.ff),
                    lut=min(min_res.lut, cheapest.resources.lut),
                )
        assert best_compute is not None and min_res is not None
        menu.min_resources = min_res
        menu.min_weight_dram = min_weight
        menu.min_dsp_work = min_dsp_work
        menu.best_compute = best_compute

    def _layer_costs(self, index: int) -> List[Tuple[int, int, int]]:
        """Every candidate of one layer as ``(dsp, fill, fill + weight
        transfer cycles)``, resolving the whole menu."""
        menu = self._menus[index]
        bytes_per_cycle = self.device.bytes_per_cycle
        costs = []
        for ladder in menu.ladders:
            while len(ladder.rows) < len(ladder.parallelisms):
                ladder.extend(self.context, menu.info, self.device)
            for _, fill, weight, _, dsp, _, _, _ in ladder.rows:
                # Whole cycles rounded down per layer: the terms then sum
                # to at most the group's exact transfer time at any rate.
                costs.append((dsp, fill, fill + int(weight / bytes_per_cycle)))
        return costs

    def _suffix_floors(self, index: int, stop: int) -> Floors:
        """Knapsack floors of layers ``[index, stop)``, built once.

        Each table extends the one for ``[index + 1, stop)`` by a layer,
        so all the suffixes of one ``stop`` cost one pass over its layers.
        """
        if index == stop:
            return NO_LAYERS
        floors = self._floors.get((index, stop))
        if floors is not None:
            return floors
        built = index
        while built < stop and (built, stop) not in self._floors:
            built += 1
        floors = self._floors.get((built, stop), NO_LAYERS)
        for i in range(built - 1, index - 1, -1):
            floors = extend_floors(
                floors, self._layer_costs(i), self.device.resources.dsp
            )
            self._floors[(i, stop)] = floors
        return floors

    # -- the search -----------------------------------------------------------

    def fusion(self, start: int, stop: int) -> Optional[GroupDesign]:
        """Best design of layers ``[start, stop)`` fused; None if infeasible.

        Infeasible means the group does not fit the device even at
        minimum parallelism everywhere, or exceeds the fusion-depth cap.

        A range the context remembers (:meth:`_recall`) is composed
        from its remembered engines, not searched, and is not counted
        as a search.  A search that runs
        to completion is remembered; one cut short by the node budget is
        not, since its incumbent depends on the budget.
        """
        if not 0 <= start < stop <= len(self.network):
            raise OptimizationError(f"group [{start}:{stop}] out of range")
        key = (start, stop)
        if key in self._fusion_cache:
            return self._fusion_cache[key]
        if conv_depth(self.network, start, stop) > self.device.max_fusion_depth:
            self._fusion_cache[key] = None
            return None
        group_key = self._group_key(start, stop)
        design = self._recall(start, stop, group_key)
        if design is not _MISS:
            self._fusion_cache[key] = design
            return design
        began = time.perf_counter()
        best, nodes, pruned, truncated = self._search(start, stop)
        design = (
            None if best is None
            else compose_group([row[7] for row in best], self.device)
        )
        elapsed = time.perf_counter() - began
        self.nodes_visited += nodes
        self.context.record_search(
            self.network.name, self.device.name, start, stop,
            elapsed, nodes, pruned,
        )
        if not truncated:
            self.context.remember_group(
                group_key, () if design is None else design.implementations
            )
        self._fusion_cache[key] = design
        return design

    def _group_key(self, start: int, stop: int) -> GroupKey:
        """The context's memo key for ``[start, stop)``.

        The algorithm set joins the key only when it cuts some layer's
        menu in the range: otherwise the search is the unpinned one, and
        shares its memo entry.
        """
        menus = self._menus[start:stop]
        return self.context.group_key(
            [menu.info for menu in menus],
            self.device,
            self.explore_tile_sizes,
            self.algorithms if any(m.pinned for m in menus) else None,
        )

    def _recall(self, start: int, stop: int, group_key: GroupKey):
        """Compose a remembered search's design; ``_MISS`` if there is
        none, or if an engine is not on this range's menus.

        Each engine is checked against its layer's options (the
        candidate lists, never ``implement()``), relabelled with this
        range's layer name and composed by :func:`compose_group`,
        exactly as the search composes its winner.
        """
        choices: Optional[GroupChoices] = self.context.recall_group(group_key)
        if choices is None:
            return _MISS
        if not choices:
            return None
        engines = []
        for menu, impl in zip(self._menus[start:stop], choices):
            algo, mode, m, parallelism = query_of(impl)
            if not any(
                ladder.query == (algo, mode, m)
                and parallelism in ladder.parallelisms
                for ladder in menu.ladders
            ):
                return _MISS
            if impl.layer_name != menu.info.name:
                impl = replace(impl, layer_name=menu.info.name)
            engines.append(impl)
        return compose_group(engines, self.device)

    def precompute(self) -> None:
        """Fill the ``fusion[i][j]`` table: every
        ``0 <= start < stop <= len(network)``."""
        n = len(self.network)
        for start in range(n):
            for stop in range(start + 1, n + 1):
                self.fusion(start, stop)

    def _search(
        self, start: int, stop: int
    ) -> Tuple[Optional[List[_Row]], int, int, bool]:
        """Run one fusion search; returns (the winning rows or None, nodes
        visited, cuts, whether the node budget cut it short).

        The DFS works on plain ints: the budget and the used resources
        are four counters, and every candidate is a flat :data:`_Row`.
        ``ResourceVector`` and :func:`compose_group` appear only at the
        boundary — the menus going in and the winning design coming out.
        """
        menus = self._menus[start:stop]
        depth_count = len(menus)
        resources = self.device.resources
        fifo = fifo_overhead(depth_count)
        cap_bram = resources.bram18k - fifo.bram18k
        cap_dsp = resources.dsp - fifo.dsp
        cap_ff = resources.ff - fifo.ff
        cap_lut = resources.lut - fifo.lut
        if min(cap_bram, cap_dsp, cap_ff, cap_lut) < 0:
            return None, 0, 0, False

        for menu in menus:
            self._resolve(menu)
        # Suffix minima for the admissible bounds: fastest possible
        # remaining compute, cheapest remaining resources, smallest
        # remaining weight traffic and DSP work.
        suffix_best_compute = [0] * (depth_count + 1)
        suffix_min_res = [(0, 0, 0, 0)] * (depth_count + 1)
        suffix_min_weight = [0] * (depth_count + 1)
        suffix_dsp_work = [0] * (depth_count + 1)
        for idx in range(depth_count - 1, -1, -1):
            menu = menus[idx]
            suffix_best_compute[idx] = max(
                suffix_best_compute[idx + 1], menu.best_compute
            )
            bram, dsp, ff, lut = suffix_min_res[idx + 1]
            cheapest = menu.min_resources
            suffix_min_res[idx] = (
                bram + cheapest.bram18k,
                dsp + cheapest.dsp,
                ff + cheapest.ff,
                lut + cheapest.lut,
            )
            suffix_min_weight[idx] = (
                suffix_min_weight[idx + 1] + menu.min_weight_dram
            )
            suffix_dsp_work[idx] = suffix_dsp_work[idx + 1] + menu.min_dsp_work

        # Resource-aware floors of what follows each depth: after[d] for
        # the layers past depth d.  Building them resolves every layer's
        # ladders but the first.
        after = [
            self._suffix_floors(start + depth, stop)
            for depth in range(1, depth_count + 1)
        ]

        # Feature-map traffic of the group is independent of any choice.
        feature_bytes = (
            menus[0].info.input_size + menus[-1].info.output_size
        ) * self.device.element_bytes
        # Transfer floors divide by the same float rate as the leaves and
        # compose_group; a float quotient only grows with the bytes, so a
        # ceiling over fewer bytes never overshoots the leaf's.
        bytes_per_cycle = self.device.bytes_per_cycle
        ceil = math.ceil
        node_budget = self.node_budget
        context = self.context
        device = self.device

        nodes = 0
        pruned = 0
        best_latency: Optional[int] = None
        best_rows: Optional[List[_Row]] = None
        chosen: List[_Row] = []

        def first_fit(ladder: _Ladder, bram: int, dsp: int, ff: int, lut: int) -> int:
            """First resolved candidate that fits all four resources left
            (every later one fits too), or the resolved count."""
            resolved = len(ladder.rows)
            return max(
                bisect_left(ladder.brams, bram - cap_bram, 0, resolved),
                bisect_left(ladder.dsps, dsp - cap_dsp, 0, resolved),
                bisect_left(ladder.ffs, ff - cap_ff, 0, resolved),
                bisect_left(ladder.luts, lut - cap_lut, 0, resolved),
            )

        def first_cut(
            ladder: _Ladder, floor: int, transfer: int,
            next_fill: int, next_transfer: int,
        ) -> int:
            """First resolved candidate the incumbent cut rejects (every
            later one is rejected too), or the ladder's length.

            The cut is ``max(floor, compute) + next_fill + fill >=
            incumbent`` or ``transfer + next_transfer + fill >=
            incumbent``, where ``floor`` and ``transfer`` hold the
            option's constant weight traffic: a threshold on the fill
            column and one on the compute + fill column.
            """
            if best_latency is None:
                return len(ladder.parallelisms)
            resolved = len(ladder.rows)
            slack = best_latency - next_fill
            k = min(
                bisect_left(
                    ladder.fills,
                    min(slack - floor, best_latency - transfer - next_transfer),
                    0, resolved,
                ),
                bisect_left(ladder.totals, slack, 0, resolved),
            )
            return k if k < resolved else len(ladder.parallelisms)

        def visit(
            depth: int,
            bram: int,
            dsp: int,
            ff: int,
            lut: int,
            path_max: int,
            fill_sum: int,
            weight_sum: int,
        ) -> None:
            nonlocal nodes, pruned, best_latency, best_rows
            nodes += 1
            if node_budget and nodes > node_budget:
                pruned += 1
                raise _BudgetExhausted()
            if depth == depth_count:
                # compose_group's latency, from the running sums.
                latency = max(
                    path_max,
                    math.ceil((feature_bytes + weight_sum) / bytes_per_cycle),
                ) + fill_sum
                if best_latency is None or latency < best_latency:
                    best_latency = latency
                    best_rows = list(chosen)
                return
            # The latency bounds all run per candidate, in the parent and
            # against the same incumbent (the root has none yet); a node
            # only checks that the cheapest remaining engines still fit.
            min_bram, min_dsp, min_ff, min_lut = suffix_min_res[depth]
            if (
                bram + min_bram > cap_bram
                or dsp + min_dsp > cap_dsp
                or ff + min_ff > cap_ff
                or lut + min_lut > cap_lut
            ):
                pruned += 1
                return
            # Per-candidate bounds, minus the candidate's own terms.
            next_floor = max(path_max, suffix_best_compute[depth + 1])
            next_weight = feature_bytes + weight_sum + suffix_min_weight[depth + 1]
            next_dsp_work = suffix_dsp_work[depth + 1]
            floor_dsps, floor_fills, floor_transfers = after[depth]
            # The floors at every DSP still free bound each candidate's,
            # and stay put as p descends, so they can join the cut.
            # The resource floor above leaves room for the cheapest
            # suffix, so ``most`` is a real step.
            most = bisect_right(floor_dsps, cap_dsp - dsp) - 1
            next_fill = fill_sum + floor_fills[most]
            next_transfer = fill_sum + floor_transfers[most]
            prefix_weight = feature_bytes + weight_sum
            menu = menus[depth]
            for ladder in menu.ladders:
                weight = ladder.weight
                floor = max(
                    next_floor, ceil((next_weight + weight) / bytes_per_cycle)
                )
                # Whole cycles rounded down, like the floors' terms.
                transfer = int((prefix_weight + weight) / bytes_per_cycle)
                rows = ladder.rows
                size = len(ladder.parallelisms)
                # Candidates before ``fit`` overrun a resource; from
                # ``cut`` on, the incumbent cut rejects them (the paper's
                # lines 16-17, strengthened).  Only those in between are
                # tried one by one.
                fit = first_fit(ladder, bram, dsp, ff, lut)
                cut = first_cut(ladder, floor, transfer, next_fill, next_transfer)
                k = min(fit, cut)
                while k < size:
                    if k == len(rows):
                        # A range's first layer resolves its ladder only as
                        # far as the search reaches, the rejected row
                        # included.
                        ladder.extend(context, menu.info, device)
                        fit = first_fit(ladder, bram, dsp, ff, lut)
                        cut = first_cut(
                            ladder, floor, transfer, next_fill, next_transfer
                        )
                        continue
                    if k >= cut:
                        pruned += 1  # one cut for the rest of the ladder
                        break
                    if k < fit:
                        k = fit
                        continue
                    candidate = rows[k]
                    k += 1
                    compute, fill, _, row_bram, row_dsp, row_ff, row_lut, _ = (
                        candidate
                    )
                    new_dsp = dsp + row_dsp
                    if best_latency is not None and next_dsp_work:
                        # Work-conservation floor over the DSPs this
                        # candidate leaves behind (not monotone in p, so
                        # checked per candidate).
                        if (
                            -(-next_dsp_work // max(1, cap_dsp - new_dsp))
                            + next_fill
                            + fill
                            >= best_latency
                        ):
                            pruned += 1
                            continue
                    # Knapsack floors over the DSPs this candidate leaves
                    # free (also not monotone in p).  A node's own entry
                    # would see the same arguments, so checking here
                    # spares the node.
                    j = bisect_right(floor_dsps, cap_dsp - new_dsp)
                    if not j:
                        pruned += 1  # no completion fits the DSPs left
                        continue
                    if best_latency is not None:
                        # Latency >= slowest stage + fills, and >= DRAM
                        # time + fills.
                        new_fill = fill_sum + fill
                        if (
                            max(next_floor, compute) + new_fill
                            + floor_fills[j - 1] >= best_latency
                            or transfer + new_fill + floor_transfers[j - 1]
                            >= best_latency
                        ):
                            pruned += 1
                            continue
                    incumbent = best_latency
                    chosen.append(candidate)
                    visit(
                        depth + 1,
                        bram + row_bram,
                        new_dsp,
                        ff + row_ff,
                        lut + row_lut,
                        compute if compute > path_max else path_max,
                        fill_sum + fill,
                        weight_sum + weight,
                    )
                    chosen.pop()
                    if best_latency != incumbent:
                        cut = first_cut(
                            ladder, floor, transfer, next_fill, next_transfer
                        )

        truncated = False
        try:
            visit(0, 0, 0, 0, 0, 0, 0, 0)
        except _BudgetExhausted:
            truncated = True  # keep the best incumbent found within the budget
        return best_rows, nodes, pruned, truncated


def fuse_group(
    network: Network,
    start: int,
    stop: int,
    device: FPGADevice,
    context: Optional[CostModel] = None,
) -> Optional[GroupDesign]:
    """One-shot ``fusion[start][stop-1]`` (builds a fresh GroupSearch)."""
    return GroupSearch(network, device, context=context).fusion(start, stop)
