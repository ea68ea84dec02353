"""Strategy serialization: save and reload optimized strategies.

A strategy search on a large network can take tens of seconds (Section
7.1); persisting the result lets the code generator and simulator be
re-run without re-searching — the same role the paper's "optimal
strategy" file plays between its optimizer and code generator (Figure 4).

Strategies travel in the unified artifact envelope
(:mod:`repro.check.artifacts`): a versioned, checksummed wrapper around
the payload dict :func:`strategy_to_dict` produces, written atomically.
Pre-envelope files (bare payloads from PR <= 4) still load through the
envelope's legacy migration path.  Loading re-evaluates each engine
through the same cost model (``implement``), so a reloaded strategy is
bit-identical in cost terms — drift raises a precise
:class:`~repro.errors.ArtifactMismatchError`, and any structural damage
raises an :class:`~repro.errors.ArtifactError` subclass carrying an
error code and the JSON path of the offending field.
"""

from __future__ import annotations

from pathlib import Path
from typing import List, Optional, Tuple, Union

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
from repro.nn.network import Network
from repro.perf.cost import CostModel, EvalContext
from repro.perf.group import compose_group
from repro.perf.implement import Algorithm, WeightMode, WINOGRAD_M
from repro.optimizer.strategy import Strategy

#: Version of the strategy *payload* (the envelope has its own version).
SCHEMA_VERSION = 1

#: Artifact kind recorded in the envelope.
ARTIFACT_KIND = "strategy"


def strategy_to_dict(strategy: Strategy) -> dict:
    """The JSON-serializable description of a strategy.

    A :class:`~repro.optimizer.graph_dp.GraphStrategy` describes itself
    (:meth:`~repro.optimizer.graph_dp.GraphStrategy.to_dict`); only
    chain payloads load back through :func:`strategy_from_dict`.
    """
    from repro.optimizer.graph_dp import GraphStrategy

    if isinstance(strategy, GraphStrategy):
        return strategy.to_dict()
    return {
        "schema_version": SCHEMA_VERSION,
        "network": strategy.network.name,
        "device": strategy.device.name,
        "latency_cycles": strategy.latency_cycles,
        "feature_transfer_bytes": strategy.feature_transfer_bytes,
        "groups": [
            {
                "range": [start, stop],
                "layers": [
                    {
                        "name": impl.layer_name,
                        "algorithm": impl.algorithm.value,
                        "parallelism": impl.parallelism,
                        "weight_mode": impl.weight_mode.value
                        if impl.weight_mode is not None
                        else WeightMode.RESIDENT.value,
                        "winograd_m": impl.winograd_m or WINOGRAD_M,
                    }
                    for impl in design.implementations
                ],
            }
            for (start, stop), design in zip(strategy.boundaries, strategy.designs)
        ],
    }


def strategy_digests(strategy: Strategy) -> dict:
    """Envelope digests binding a strategy to its network and device."""
    return {
        "network": network_digest(strategy.network),
        "device": device_digest(strategy.device),
    }


def save_strategy(strategy: Strategy, path: Union[str, Path]) -> Path:
    """Atomically write a strategy artifact (envelope + payload JSON)."""
    return save_artifact(
        path,
        ARTIFACT_KIND,
        strategy_to_dict(strategy),
        digests=strategy_digests(strategy),
    )


def _parse_enum(entry, key: str, enum_cls, path: str):
    """Read an enum-valued payload field with a precise error."""
    raw = require(entry, key, str, path)
    try:
        return enum_cls(raw)
    except ValueError:
        options = ", ".join(member.value for member in enum_cls)
        raise ArtifactSchemaError(
            E_FIELD_VALUE,
            f"{path}.{key}",
            f"{raw!r} is not one of: {options}",
        ) from None


def strategy_from_dict(
    payload: dict,
    network: Network,
    device: Union[str, FPGADevice, None] = None,
    context: Optional[CostModel] = None,
    path: str = "$",
) -> Strategy:
    """Rebuild a strategy by re-evaluating every recorded choice.

    Args:
        payload: A dict produced by :func:`strategy_to_dict`.
        network: The network the strategy was optimized for (must match
            the recorded layer names).
        device: Target device; defaults to the recorded catalog name.
        context: Shared evaluation layer for the re-evaluation (the
            drift check); sharing one across many loads amortizes the
            cost-model calls for shape-identical layers.
        path: JSON path prefix for error reporting (a plan's stage
            strategies live at ``$.stages[i].strategy``).

    Raises:
        ArtifactError: On any schema, value, or drift problem, with an
            error code and the JSON path of the offending field.
    """
    version = require(payload, "schema_version", int, path)
    if version != SCHEMA_VERSION:
        raise ArtifactVersionError(
            "E_VERSION",
            f"{path}.schema_version",
            f"unsupported strategy schema version {version!r} "
            f"(expected {SCHEMA_VERSION})",
        )
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

    boundaries: List[Tuple[int, int]] = []
    designs = []
    groups = require(payload, "groups", list, path)
    for group_index, group in enumerate(groups):
        group_path = f"{path}.groups[{group_index}]"
        span = require(group, "range", list, group_path)
        if len(span) != 2 or not all(isinstance(v, int) for v in span):
            raise ArtifactSchemaError(
                E_FIELD_VALUE,
                f"{group_path}.range",
                f"expected [start, stop] integers, found {span!r}",
            )
        start, stop = span
        if not 0 <= start < stop <= len(network):
            raise ArtifactSchemaError(
                E_FIELD_VALUE,
                f"{group_path}.range",
                f"[{start}, {stop}] out of range for a "
                f"{len(network)}-layer network",
            )
        boundaries.append((start, stop))
        layers = require(group, "layers", list, group_path)
        if len(layers) != stop - start:
            raise ArtifactSchemaError(
                E_FIELD_VALUE,
                f"{group_path}.layers",
                f"group covers {stop - start} layers but records "
                f"{len(layers)}",
            )
        impls = []
        for offset, entry in enumerate(layers):
            layer_path = f"{group_path}.layers[{offset}]"
            index = start + offset
            info = network[index]
            name = require(entry, "name", str, layer_path)
            if info.name != name:
                raise ArtifactMismatchError(
                    E_NETWORK,
                    f"{layer_path}.name",
                    f"layer {index} is {info.name!r} in the network but "
                    f"{name!r} in the strategy file",
                )
            algorithm = _parse_enum(entry, "algorithm", Algorithm, layer_path)
            weight_mode = (
                _parse_enum(entry, "weight_mode", WeightMode, layer_path)
                if "weight_mode" in entry
                else WeightMode.RESIDENT
            )
            winograd_m = (
                require(entry, "winograd_m", int, layer_path)
                if "winograd_m" in entry
                else WINOGRAD_M
            )
            impls.append(
                cost.implement(
                    info,
                    algorithm,
                    require(entry, "parallelism", int, layer_path),
                    device,
                    weight_mode=weight_mode,
                    winograd_m=winograd_m,
                )
            )
        designs.append(compose_group(impls, device))
    strategy = Strategy(network, device, boundaries, designs)
    recorded = payload.get("latency_cycles")
    if recorded is not None and recorded != strategy.latency_cycles:
        raise ArtifactMismatchError(
            E_DRIFT,
            f"{path}.latency_cycles",
            f"reloaded strategy latency {strategy.latency_cycles} != recorded "
            f"{recorded}: cost model or network changed since it was saved",
        )
    return strategy


def load_strategy(
    path: Union[str, Path],
    network: Network,
    device: Union[str, FPGADevice, None] = None,
    context: Optional[CostModel] = None,
) -> Strategy:
    """Read a strategy artifact and rebuild the Strategy.

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


def read_strategy_payload(path: Union[str, Path]) -> dict:
    """Validated payload dict of a strategy artifact (no re-evaluation)."""
    return load_envelope(path, expected_kind=ARTIFACT_KIND).payload


__all__ = [
    "ARTIFACT_KIND",
    "SCHEMA_VERSION",
    "load_strategy",
    "read_strategy_payload",
    "save_strategy",
    "strategy_digests",
    "strategy_from_dict",
    "strategy_to_dict",
]
