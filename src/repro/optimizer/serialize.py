"""Strategy serialization: save and reload optimized strategies.

A strategy search on a large network can take tens of seconds (Section
7.1); persisting the result lets the code generator and simulator be
re-run without re-searching — the same role the paper's "optimal
strategy" file plays between its optimizer and code generator (Figure 4).

Chain and graph strategies travel in the unified artifact envelope
(:mod:`repro.check.artifacts`); pre-envelope files (bare payloads from
PR <= 4) still load through its legacy migration path.  Loading
re-evaluates each engine through the same cost model (``implement``),
so a reloaded strategy is bit-identical in cost terms — drift raises a
precise :class:`~repro.errors.ArtifactMismatchError`, and any
structural damage an :class:`~repro.errors.ArtifactError` subclass
carrying an error code and the JSON path of the offending field.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional, Tuple, Union

from repro.check.artifacts import (
    E_DEVICE,
    E_DRIFT,
    E_FIELD_VALUE,
    E_NETWORK,
    device_digest,
    load_envelope,
    network_digest,
    require,
    save_artifact,
)
from repro.errors import (
    ArtifactMismatchError,
    ArtifactSchemaError,
    ArtifactVersionError,
    ResourceError,
)
from repro.hardware.device import FPGADevice, get_device
from repro.nn.graph import Graph, SPParallel, SPSeries
from repro.nn.network import Network
from repro.perf.cost import CostModel, EvalContext
from repro.perf.record import engine_to_dict, engines_from_dicts, rebuild
from repro.optimizer.strategy import Strategy

#: Version of the strategy *payload* (the envelope has its own version).
SCHEMA_VERSION = 1

#: Artifact kind recorded in the envelope.
ARTIFACT_KIND = "strategy"


def strategy_to_dict(strategy) -> dict:
    """The JSON-serializable description of a strategy.

    A chain :class:`Strategy` records its groups: each layer range with
    every engine's layer name and ``implement()`` query
    (:mod:`repro.perf.record`).  A
    :class:`~repro.optimizer.graph_dp.GraphStrategy` records its
    segments in execution order: a chain segment's groups in the same
    form, a split fork-join block's branches as nested graph payloads,
    and a fused block's branches as engine lists.
    """
    from repro.optimizer.graph_dp import GraphStrategy

    chain = not isinstance(strategy, GraphStrategy)
    payload = {
        "schema_version": SCHEMA_VERSION,
        **(
            {"network": strategy.network.name} if chain
            else {"kind": "graph_strategy", "graph": strategy.graph.name}
        ),
        "device": strategy.device.name,
        "latency_cycles": strategy.latency_cycles,
        "feature_transfer_bytes": strategy.feature_transfer_bytes,
    }
    if chain:
        payload["groups"] = _groups_to_dict(strategy)
        return payload
    payload["segments"] = []
    for segment in strategy.segments:
        entry = {"kind": segment.kind, "nodes": segment.node_names()}
        if segment.kind == "chain":
            entry["groups"] = _groups_to_dict(segment.strategy)
        elif segment.kind == "parallel":
            entry["branches"] = [strategy_to_dict(b) for b in segment.branches]
        else:
            entry["branches"] = [
                [engine_to_dict(impl) for impl in impls]
                for impls in segment.branch_implementations
            ]
        payload["segments"].append(entry)
    return payload


def _groups_to_dict(strategy: Strategy) -> list:
    return [
        {
            "range": [start, stop],
            "layers": [engine_to_dict(impl) for impl in design.implementations],
        }
        for (start, stop), design in zip(strategy.boundaries, strategy.designs)
    ]


def strategy_digests(strategy) -> dict:
    """Envelope digests binding a strategy to its model and device."""
    model = strategy.graph if hasattr(strategy, "graph") else strategy.network
    return {
        "network": network_digest(model),
        "device": device_digest(strategy.device),
    }


def save_strategy(strategy, path: Union[str, Path]) -> Path:
    """Atomically write a strategy artifact (envelope + payload JSON)."""
    return save_artifact(
        path,
        ARTIFACT_KIND,
        strategy_to_dict(strategy),
        digests=strategy_digests(strategy),
    )


def strategy_from_dict(
    payload: dict,
    network: Union[Network, Graph],
    device: Union[str, FPGADevice, None] = None,
    context: Optional[CostModel] = None,
    path: str = "$",
    units: Optional[Tuple[int, int]] = None,
):
    """Rebuild a strategy by re-evaluating every recorded choice: each
    group through :func:`repro.perf.record.rebuild`, each fused fork-join
    block through :func:`~repro.optimizer.graph_dp.fuse_branches`.

    Args:
        payload: A dict produced by :func:`strategy_to_dict`.
        network: The model the strategy was optimized for: the chain
            :class:`Network` of a chain payload, the :class:`Graph` of a
            graph payload.  Its layer names must match the recorded ones.
        device: Target device; defaults to the recorded catalog name.
        context: Shared evaluation layer for the re-evaluation (the
            drift check); sharing one across many loads amortizes the
            cost-model calls for shape-identical layers.
        path: JSON path prefix for error reporting (a plan's stage
            strategies live at ``$.stages[i].strategy``).
        units: The model units ``[start, stop)`` a partition stage's
            strategy covers (:func:`repro.partition.plan.model_units`);
            default all.

    Raises:
        ArtifactError: On any schema, value, or drift problem, with an
            error code and the JSON path of the offending field.
    """
    _check_version(payload, path)
    if device is None:
        device = require(payload, "device", str, path)
    if isinstance(device, str):
        try:
            device = get_device(device)
        except ResourceError as exc:
            raise ArtifactMismatchError(
                E_DEVICE, f"{path}.device", str(exc)
            ) from None
    cost = context if context is not None else EvalContext()
    if isinstance(network, Graph):
        from repro.optimizer.graph_dp import stage_graph

        tree = network.decompose()
        start, stop = units or (0, len(tree.blocks))
        return _graph_from_dict(
            payload, stage_graph(network, tree.blocks, start, stop),
            network, tree, start, stop, device, cost, path,
        )
    if units is not None and units != (0, len(network)):
        network = network.slice(*units)
    strategy = _chain_from_dict(payload, network, device, cost, path)
    return _checked(payload, strategy, path)


def _check_version(payload: dict, path: str) -> None:
    version = require(payload, "schema_version", int, path)
    if version != SCHEMA_VERSION:
        raise ArtifactVersionError(
            "E_VERSION",
            f"{path}.schema_version",
            f"unsupported strategy schema version {version!r} "
            f"(expected {SCHEMA_VERSION})",
        )


def _checked(payload: dict, strategy, path: str):
    """``strategy``, once its latency matches the recorded one."""
    recorded = payload.get("latency_cycles")
    if recorded is not None and recorded != strategy.latency_cycles:
        raise ArtifactMismatchError(
            E_DRIFT,
            f"{path}.latency_cycles",
            f"reloaded strategy latency {strategy.latency_cycles} != recorded "
            f"{recorded}: cost model or network changed since it was saved",
        )
    return strategy


def _chain_from_dict(
    entry: dict, network: Network, device: FPGADevice, cost: CostModel, path: str
) -> Strategy:
    """The chain strategy of ``entry``'s groups over ``network``."""
    boundaries, designs = [], []
    for index, group in enumerate(require(entry, "groups", list, path)):
        group_path = f"{path}.groups[{index}]"
        span = require(group, "range", list, group_path)
        if (
            len(span) != 2
            or not all(isinstance(v, int) for v in span)
            or not 0 <= span[0] < span[1] <= len(network)
        ):
            raise ArtifactSchemaError(
                E_FIELD_VALUE,
                f"{group_path}.range",
                f"expected [start, stop] within the {len(network)}-layer "
                f"network, found {span!r}",
            )
        infos = network.infos[span[0]:span[1]]
        queries = engines_from_dicts(
            require(group, "layers", list, group_path), infos,
            f"{group_path}.layers",
        )
        boundaries.append(tuple(span))
        designs.append(rebuild(infos, queries, device, cost))
    return Strategy(network, device, boundaries, designs)


def _graph_from_dict(
    payload: dict,
    strategy_graph: Graph,
    graph: Graph,
    series: SPSeries,
    start: int,
    stop: int,
    device: FPGADevice,
    cost: CostModel,
    path: str,
):
    """The graph strategy over ``strategy_graph`` whose segments run
    ``series.blocks[start:stop]`` of ``graph``, walked as the search
    prices them, with every chain network and subgraph built by the
    helper the search uses (so names and shapes match)."""
    from repro.optimizer.graph_dp import (
        ChainSegment,
        GraphStrategy,
        ParallelSegment,
        branch_graph,
        chain_network,
        fuse_branches,
        join_cost,
        series_parts,
    )

    _check_version(payload, path)
    entries = require(payload, "segments", list, path)
    parts = list(series_parts(series, start, stop))
    if len(entries) != len(parts):
        raise ArtifactSchemaError(
            E_FIELD_VALUE, f"{path}.segments",
            f"{strategy_graph.name!r} runs as {len(parts)} segment(s), "
            f"{len(entries)} recorded",
        )
    segments = []
    for position, (entry, part) in enumerate(zip(entries, parts)):
        where = f"{path}.segments[{position}]"
        kind = require(entry, "kind", str, where)
        allowed = ("parallel", "fused") if isinstance(part, SPParallel) else ("chain",)
        if kind not in allowed:
            raise ArtifactMismatchError(
                E_NETWORK, f"{where}.kind",
                f"a {kind!r} segment where the graph runs a "
                f"{' or '.join(allowed)} segment",
            )
        if kind == "chain":
            run, a, b = part
            network = chain_network(graph, run)
            if (a, b) != (0, len(run)):
                network = network.slice(a, b)
            segments.append(ChainSegment(
                run[a:b], _chain_from_dict(entry, network, device, cost, where)
            ))
            continue
        branches = require(entry, "branches", list, where)
        if len(branches) != len(part.branches):
            raise ArtifactSchemaError(
                E_FIELD_VALUE, f"{where}.branches",
                f"the block at {part.join!r} has {len(part.branches)} "
                f"branches, {len(branches)} recorded",
            )
        subgraphs = [branch_graph(graph, part, b) for b in range(len(branches))]
        if kind == "parallel":
            join_kind, transfer, latency, ops = join_cost(graph, part.join, device)
            segments.append(ParallelSegment(
                part.fork, part.join, join_kind,
                tuple(
                    _graph_from_dict(
                        branches[b], sub, sub, series_b, 0,
                        len(series_b.blocks), device, cost,
                        f"{where}.branches[{b}]",
                    )
                    for b, (sub, series_b) in enumerate(
                        zip(subgraphs, part.branches)
                    )
                ),
                transfer, latency, ops,
            ))
            continue
        designs = []
        for b, sub in enumerate(subgraphs):
            if not sub.is_chain:
                raise ArtifactMismatchError(
                    E_NETWORK, f"{where}.branches[{b}]",
                    f"branch {b} of the block at {part.join!r} forks again, "
                    "so the block cannot run fused",
                )
            infos = sub.to_network().infos if len(sub) else ()
            queries = engines_from_dicts(branches[b], infos, f"{where}.branches[{b}]")
            designs.append(rebuild(infos, queries, device, cost) if infos else None)
        segments.append(fuse_branches(
            graph, part.fork, part.join,
            [sub.topo_order for sub in subgraphs], designs, device,
        ))
    return _checked(payload, GraphStrategy(strategy_graph, device, segments), path)


def load_strategy(
    path: Union[str, Path],
    network: Union[Network, Graph],
    device: Union[str, FPGADevice, None] = None,
    context: Optional[CostModel] = None,
):
    """Read a strategy artifact and rebuild the strategy.

    Accepts both current envelope files and pre-envelope bare payloads
    (which migrate transparently).  When the envelope carries a network
    digest it is checked against ``network`` before any re-evaluation.
    """
    envelope = load_envelope(path, expected_kind=ARTIFACT_KIND)
    envelope.expect_digest("network", network_digest(network), "network")
    if isinstance(device, FPGADevice):
        envelope.expect_digest("device", device_digest(device), "device")
    return strategy_from_dict(
        envelope.payload, network, device, context=context, path="$.payload"
    )


__all__ = [
    "ARTIFACT_KIND",
    "SCHEMA_VERSION",
    "load_strategy",
    "save_strategy",
    "strategy_digests",
    "strategy_from_dict",
    "strategy_to_dict",
]
