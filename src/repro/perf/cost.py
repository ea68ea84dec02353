"""Signature-keyed cost evaluation layer (the shared ``implement()`` front end).

The paper's whole optimizer rests on one primitive — ``implement(cnt,
algo, p)`` — and historically every consumer (Algorithm 2's menus and
search, the DP solvers, the exhaustive oracle, the Alwani baseline, the
serialize drift check) called :func:`repro.perf.implement.implement`
directly with its own ad-hoc cache keyed by layer *index*.  Deep
networks repeat shapes heavily (VGG's conv3_2/3/4, conv4_2/3/4, ... are
pairwise identical), so index-keyed caches re-evaluate the same design
points over and over, and nothing in the system could report what a
search actually did.

This module replaces those ad-hoc caches with one first-class layer:

* :func:`layer_signature` — a hashable identity of everything the cost
  model reads from a layer: its hyper-parameters (kernel/stride/pad/
  channels/...) and resolved input shape, but *not* its name or index.
  Two shape-identical layers share a signature; a strided variant does
  not.
* :class:`CostModel` — the protocol every consumer programs against.
* :class:`EvalContext` — the default implementation: memoizes
  :class:`~repro.perf.implement.Implementation` results keyed by
  ``(signature, algorithm, weight mode, winograd m, parallelism,
  device)``, and each option's parallelism-free
  :class:`~repro.perf.implement.EngineTerms` under the same key less
  the parallelism; it is shareable across fusion groups, constraint
  sweeps (``optimize_many``) and device-variant DSE sweeps (results are
  deterministic regardless of evaluation order).
* :class:`GroupKey` — the identity of one exact ``fusion[i][j]``
  search: the range's layer signatures, the device subset the search
  reads, the tile-size switch and the algorithm set its menus are cut
  to.  :class:`EvalContext` remembers the engines each *completed*
  search chose under this key, in memory and in the persistent store
  (:mod:`repro.dse.store`, which holds nothing else), so a
  signature-identical range — in the same search, another search, or
  another process — is composed from them instead of searched.
* :class:`SearchTelemetry` — counters the context and the searches
  thread through it accumulate: cost-model evaluations, cache hits,
  branch-and-bound nodes visited/pruned, and per-group wall times.
  Surfaced on :class:`~repro.optimizer.strategy.Strategy` and printed
  by ``repro compile --stats``.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass, field, fields, replace
from typing import Dict, Hashable, Optional, Sequence, Tuple

from repro.errors import ArtifactError
from repro.hardware.device import FPGADevice
from repro.nn.network import LayerInfo
from repro.perf.implement import (
    WINOGRAD_M,
    Algorithm,
    EngineTerms,
    Implementation,
    WeightMode,
    engine_terms,
)

try:  # pragma: no cover - Protocol exists on every supported Python
    from typing import Protocol
except ImportError:  # pragma: no cover
    Protocol = object  # type: ignore[assignment]


def device_signature(device: FPGADevice) -> Hashable:
    """Cost-relevant identity of a device.

    ``implement()`` reads only the fabric resources, the datapath word
    size and the DSP-per-MAC ratio — not the clock or the off-chip
    bandwidth (those enter at group composition).  Keying on this subset
    lets bandwidth-scaled DSE variants of one device share evaluation
    entries.
    """
    return (device.resources, device.element_bytes, device.dsp_per_mac)


def layer_signature(info: LayerInfo) -> Hashable:
    """Cost-relevant identity of a layer: hyper-parameters + input shape.

    The layer's name and position are deliberately excluded — the cost
    model never reads them — so shape-identical layers (VGG's repeated
    conv blocks) collapse onto one signature.  "Position" includes graph
    position: a layer costs the same whether it sits in a linear chain
    or inside a branch of the DAG IR, so entries written by chain
    compiles warm graph compiles (and persistent cost-store rows from
    either remain valid for both).  Layers are frozen
    dataclasses, so stripping the name yields a hashable value whose
    equality is exactly "same type, same hyper-parameters".  The output
    shape is derived from the input shape and is therefore not part of
    the key.
    """
    layer = info.layer
    return (type(layer).__name__, _nameless(layer), info.input_shape)


#: What a completed ``fusion[i][j]`` search chose: per member layer, in
#: order, the :class:`Implementation` of its engine, named after the
#: layer of the range that was searched.  Empty when the range fits no
#: design.
GroupChoices = Tuple[Implementation, ...]


@dataclass(frozen=True)
class GroupKey:
    """Identity of one exact ``fusion[i][j]`` search.

    Attributes:
        layers: :func:`layer_signature` of every member, in order.
        device: :func:`device_signature` plus what group composition
            and the depth cap read: bytes per cycle and
            ``max_fusion_depth``.  Bandwidth-scaled variants of one
            device share ``implement()`` entries but not these.
        explore_tile_sizes: Whether the menus offer every Winograd m.
        algorithms: The sorted algorithm set every member's menu is cut
            to (a layer none of them serves keeps its full menu), or
            None for the full menus.  A sorted tuple, not a set: the
            store addresses keys by ``repr``, and a frozenset's order
            depends on the process's hash seed.

    The node budget is deliberately absent: only searches that finish
    are remembered, and a finished search returns the first optimal leaf
    in DFS order whatever its budget or bounds.
    """

    layers: Tuple[Hashable, ...]
    device: Hashable
    explore_tile_sizes: bool
    algorithms: Optional[Tuple[Algorithm, ...]]


@functools.lru_cache(maxsize=4096)
def _nameless(layer):
    """``layer`` with its name blanked, built once per distinct layer: the
    search asks for the same few layers' signatures on every lookup."""
    return replace(layer, name="")


@dataclass
class SearchTelemetry:
    """What a strategy search did, accumulated across everything that
    shared one :class:`EvalContext`.

    Attributes:
        evaluations: Cost-model runs (actual ``implement()``
            executions).
        cache_hits: ``implement()`` queries answered from the in-memory
            signature-keyed cache.
        store_hits: Group records the persistent cost store
            (:mod:`repro.dse.store`) answered — finished searches reused
            across processes.
        nodes_visited: Branch-and-bound nodes expanded (Algorithm 2).
        nodes_pruned: Branch cuts taken by the admissible bounds
            (incumbent cuts, resource floors, work-conservation floors
            and node-budget stops each count once per cut).
        groups_searched: ``fusion[i][j]`` queries actually searched
            (hits on a search's fusion table, and designs recalled by
            :class:`GroupKey`, are not searches).
        wall_time_s: Total wall-clock time spent inside group searches.
        group_wall_times: Per-group wall time, keyed by
            ``(network, device, start, stop)``.
        partition_stage_queries: Distinct (device, layer range) stage
            costs the multi-FPGA cut DP evaluated
            (:mod:`repro.partition.cut`).
        partition_cuts_considered: Cut candidates the partition DP
            scored (feasible upstream x feasible stage combinations).
    """

    evaluations: int = 0
    cache_hits: int = 0
    store_hits: int = 0
    #: 1 when the persistent store was dropped mid-run after an
    #: I/O or lock failure (the context continues memory-only).
    store_degraded: int = 0
    nodes_visited: int = 0
    nodes_pruned: int = 0
    groups_searched: int = 0
    wall_time_s: float = 0.0
    group_wall_times: Dict[Tuple[str, str, int, int], float] = field(
        default_factory=dict
    )
    partition_stage_queries: int = 0
    partition_cuts_considered: int = 0

    @property
    def hit_rate(self) -> float:
        """Fraction of ``implement()`` queries the memory cache answered."""
        total = self.evaluations + self.cache_hits
        return self.cache_hits / total if total else 0.0

    @property
    def store_hit_rate(self) -> float:
        """Of the group lookups that missed memory, the fraction the
        persistent store answered (the rest were searched) — the
        warm-start figure of merit."""
        total = self.store_hits + self.groups_searched
        return self.store_hits / total if total else 0.0

    def to_dict(self) -> dict:
        """JSON-serializable counters (the ``--json --stats`` payload)."""
        return {
            "evaluations": self.evaluations,
            "cache_hits": self.cache_hits,
            "store_hits": self.store_hits,
            "store_degraded": self.store_degraded,
            "hit_rate": self.hit_rate,
            "store_hit_rate": self.store_hit_rate,
            "nodes_visited": self.nodes_visited,
            "nodes_pruned": self.nodes_pruned,
            "groups_searched": self.groups_searched,
            "wall_time_s": self.wall_time_s,
            "partition_stage_queries": self.partition_stage_queries,
            "partition_cuts_considered": self.partition_cuts_considered,
        }

    def since(self, earlier: "SearchTelemetry") -> "SearchTelemetry":
        """The counters added after ``earlier``, a copy of this
        telemetry taken before (per-group wall times are not kept)."""
        return SearchTelemetry(**{
            item.name: getattr(self, item.name) - getattr(earlier, item.name)
            for item in fields(self)
            if item.name != "group_wall_times"
        })

    def summary(self, slowest: int = 5) -> str:
        """Human-readable telemetry block (``repro compile --stats``)."""
        lines = [
            "search telemetry:",
            f"  implement() evaluations: {self.evaluations:,}",
            f"  cache hits:              {self.cache_hits:,} "
            f"({self.hit_rate * 100:.1f}% hit rate)",
        ]
        if self.store_hits:
            lines.append(
                f"  store group hits:        {self.store_hits:,} "
                f"({self.store_hit_rate * 100:.1f}% of groups not in memory)"
            )
        lines += [
            f"  B&B nodes visited:       {self.nodes_visited:,}",
            f"  B&B nodes pruned:        {self.nodes_pruned:,}",
            f"  groups searched:         {self.groups_searched:,}",
            f"  search wall time:        {self.wall_time_s:.3f} s",
        ]
        if self.partition_stage_queries:
            lines.append(
                f"  partition stage costs:   {self.partition_stage_queries:,}"
            )
            lines.append(
                f"  partition cuts scored:   {self.partition_cuts_considered:,}"
            )
        if self.group_wall_times:
            worst = sorted(
                self.group_wall_times.items(), key=lambda kv: -kv[1]
            )[:slowest]
            lines.append(f"  slowest groups (top {len(worst)}):")
            for (network, device, start, stop), seconds in worst:
                lines.append(
                    f"    {network}[{start}:{stop}] on {device}: {seconds:.3f} s"
                )
        return "\n".join(lines)


class CostModel(Protocol):
    """Protocol of the evaluation layer every search consumer uses.

    Anything with this shape can stand in for :class:`EvalContext` —
    e.g. a measurement-backed model, or a timing proxy that forwards to
    one.  A model that keeps no group memo answers every
    :meth:`recall_group` with None.
    """

    stats: SearchTelemetry

    def implement(
        self,
        info: LayerInfo,
        algorithm: Algorithm,
        parallelism: int,
        device: FPGADevice,
        weight_mode: Optional[WeightMode] = None,
        winograd_m: int = WINOGRAD_M,
    ) -> Implementation:
        """Evaluate (or recall) one layer engine design point."""
        ...  # pragma: no cover - protocol stub

    def group_key(
        self,
        infos: Sequence[LayerInfo],
        device: FPGADevice,
        explore_tile_sizes: bool,
        algorithms: Optional[Tuple[Algorithm, ...]],
    ) -> GroupKey:
        """The memo key of a ``fusion[i][j]`` search over ``infos``."""
        ...  # pragma: no cover - protocol stub

    def recall_group(self, key: GroupKey) -> Optional[GroupChoices]:
        """Engines of a completed search under ``key``; None on a miss."""
        ...  # pragma: no cover - protocol stub

    def remember_group(self, key: GroupKey, choices: GroupChoices) -> None:
        """Record the engines a completed search chose."""
        ...  # pragma: no cover - protocol stub

    def record_search(
        self,
        network_name: str,
        device_name: str,
        start: int,
        stop: int,
        seconds: float,
        nodes_visited: int,
        nodes_pruned: int,
    ) -> None:
        """Account one ``fusion[i][j]`` search (wall time, node counts)."""
        ...  # pragma: no cover - protocol stub


class EvalContext:
    """Memoizing :class:`CostModel` shared across searches and sweeps.

    Results are keyed by :func:`layer_signature`, so shape-identical
    layers share entries.

    Args:
        store: Optional persistent tier of finished searches
            (:class:`repro.dse.store.CostStore` or a path to one): a
            group lookup that misses memory consults it, and fresh
            group choices are buffered write-back style until
            :meth:`flush_store`.  ``implement()`` results stay in
            memory.  Because stored engines are pure functions of the
            key, a store-backed context produces bit-identical results
            to a cold one — only faster.

    The context is the *only* state shared between ``fusion[i][j]``
    searches, and since ``implement()`` is a pure function of the key,
    results do not depend on the order in which searches query it.  A
    miss evaluates only the parallelism-dependent half of
    ``implement()``: the option's :class:`EngineTerms` are built once
    per context and kept beside the point cache (they are not counted;
    ``evaluations`` counts points).

    It also remembers the engines of every completed group search by
    :class:`GroupKey` (:meth:`recall_group` / :meth:`remember_group`),
    in two tiers: memory, then the store, written back by
    :meth:`flush_store`.
    """

    def __init__(self, *, store=None):
        if store is not None and not hasattr(store, "put_many"):
            from repro.dse.store import CostStore

            store = CostStore(store)
        self.store = store
        self.stats = SearchTelemetry()
        self._cache: Dict[Hashable, Implementation] = {}
        # Each option's parallelism-free terms: the ``_cache`` key less
        # the parallelism.
        self._terms: Dict[Hashable, EngineTerms] = {}
        self._groups: Dict[GroupKey, GroupChoices] = {}
        # Fresh group choices, until the next flush.
        self._dirty: Dict[GroupKey, GroupChoices] = {}

    def __len__(self) -> int:
        """Number of distinct design points evaluated so far."""
        return len(self._cache)

    def key_for(
        self,
        info: LayerInfo,
        algorithm: Algorithm,
        parallelism: int,
        device: FPGADevice,
        weight_mode: Optional[WeightMode] = None,
        winograd_m: int = WINOGRAD_M,
    ) -> Hashable:
        """The cache key one query resolves to (exposed for tests)."""
        return (
            layer_signature(info),
            algorithm,
            weight_mode,
            winograd_m,
            parallelism,
            device_signature(device),
        )

    def implement(
        self,
        info: LayerInfo,
        algorithm: Algorithm,
        parallelism: int,
        device: FPGADevice,
        weight_mode: Optional[WeightMode] = None,
        winograd_m: int = WINOGRAD_M,
    ) -> Implementation:
        """Drop-in replacement for :func:`repro.perf.implement.implement`."""
        key = self.key_for(
            info, algorithm, parallelism, device, weight_mode, winograd_m
        )
        cached = self._cache.get(key)
        if cached is not None:
            self.stats.cache_hits += 1
            # The cached engine was evaluated for a same-signature
            # layer that may carry a different name; re-label so
            # group composition and reports stay per-layer correct.
            if cached.layer_name != info.name:
                cached = replace(cached, layer_name=info.name)
            return cached
        option = key[:4] + key[5:]  # less the parallelism, key_for's 5th
        terms = self._terms.get(option)
        if terms is None:
            terms = self._terms[option] = engine_terms(
                info, algorithm, device, weight_mode, winograd_m
            )
        impl = terms.at(info.name, parallelism)
        self.stats.evaluations += 1
        self._cache[key] = impl
        return impl

    # -- the group memo -----------------------------------------------------

    def group_key(
        self,
        infos: Sequence[LayerInfo],
        device: FPGADevice,
        explore_tile_sizes: bool,
        algorithms: Optional[Tuple[Algorithm, ...]],
    ) -> GroupKey:
        """The memo key of a search over ``infos``."""
        return GroupKey(
            layers=tuple(layer_signature(info) for info in infos),
            device=(
                device_signature(device),
                device.bytes_per_cycle,
                device.max_fusion_depth,
            ),
            explore_tile_sizes=explore_tile_sizes,
            algorithms=algorithms,
        )

    def recall_group(self, key: GroupKey) -> Optional[GroupChoices]:
        """Engines of a completed search under ``key``; None on a miss.

        An empty tuple is a remembered infeasible range.  Memory first,
        then the store; a store hit is counted in ``store_hits`` and
        promoted into memory.
        """
        choices = self._groups.get(key)
        if choices is not None or self.store is None:
            return choices
        try:
            choices = self.store.get(key)
        except (OSError, ArtifactError) as exc:
            self._degrade_store(exc)
            return None
        if choices is not None:
            self.stats.store_hits += 1
            self._groups[key] = choices
        return choices

    def remember_group(self, key: GroupKey, choices: GroupChoices) -> None:
        """Record the engines a completed search chose (write-back to the
        store)."""
        self._groups[key] = choices
        if self.store is not None:
            self._dirty[key] = choices

    def flush_store(self) -> int:
        """Write back fresh group choices to the store.

        A no-op without a store.  Called automatically at the end of
        :func:`repro.optimizer.dp.optimize` (and friends); safe to call
        repeatedly — each entry is written once.  Returns the number of
        entries written.
        """
        if self.store is None:
            return 0
        dirty, self._dirty = self._dirty, {}
        if not dirty:
            return 0
        try:
            return self.store.put_many(dirty)
        except (OSError, ArtifactError) as exc:
            self._degrade_store(exc)
            return 0

    def _degrade_store(self, exc: Exception) -> None:
        """Drop the persistent tier after an I/O failure; warn once.

        Results are unaffected — the store only accelerates — so a
        broken disk must cost warm starts, never a search.  The event
        is counted in :attr:`SearchTelemetry.store_degraded` so sweeps
        surface it in their telemetry.
        """
        if self.store is None:
            return
        self.store = None
        self._dirty = {}
        self.stats.store_degraded = 1
        warnings.warn(
            f"cost store unavailable ({exc}); continuing without the "
            "persistent cache",
            RuntimeWarning,
            stacklevel=3,
        )

    # -- telemetry hooks used by the searches -------------------------------

    def record_search(
        self,
        network_name: str,
        device_name: str,
        start: int,
        stop: int,
        seconds: float,
        nodes_visited: int,
        nodes_pruned: int,
    ) -> None:
        """Fold one ``fusion[i][j]`` search's counters into the telemetry."""
        stats = self.stats
        stats.groups_searched += 1
        stats.nodes_visited += nodes_visited
        stats.nodes_pruned += nodes_pruned
        stats.wall_time_s += seconds
        stats.group_wall_times[(network_name, device_name, start, stop)] = seconds
