"""The engine record: what a saved design keeps of an engine.

The paper keeps one ``<group, algorithm, parallelism>`` triple per layer
(Definition 1) and regenerates the group designs from them (Algorithm 1,
lines 22-24).  Here the record is each engine's exact ``implement()``
query ``(algorithm, weight mode, winograd m, parallelism)``: strategy
and plan artifacts keep that and nothing derived, and :func:`rebuild`
turns a range's queries back into its
:class:`~repro.perf.group.GroupDesign`, the way Algorithm 2 builds the
winner it found.  The group memo and the cost store's group records
keep the engines themselves (:class:`~repro.perf.cost.GroupChoices`);
:func:`query_of` is how a recall checks one against a layer's menu.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.check.artifacts import (
    E_FIELD_TYPE, E_FIELD_VALUE, E_NETWORK, require, require_enum,
)
from repro.errors import ArtifactMismatchError, ArtifactSchemaError
from repro.hardware.device import FPGADevice
from repro.perf.cost import CostModel
from repro.perf.group import GroupDesign, compose_group
from repro.perf.implement import Algorithm, Implementation, WeightMode, WINOGRAD_M

#: One engine's ``implement()`` query.
Query = Tuple[Algorithm, WeightMode, int, int]


def query_of(impl: Implementation) -> Query:
    """The query that reproduces ``impl``: an engine reports a field it
    ignores as empty (a pooling engine has no weight mode and m=0), the
    query carries what the search passes for it."""
    return (
        impl.algorithm,
        impl.weight_mode or WeightMode.RESIDENT,
        impl.winograd_m or WINOGRAD_M,
        impl.parallelism,
    )


def engine_to_dict(impl: Implementation) -> dict:
    """JSON form of an engine's query, with its layer name."""
    algorithm, weight_mode, m, parallelism = query_of(impl)
    return {
        "name": impl.layer_name,
        "algorithm": algorithm.value,
        "parallelism": parallelism,
        "weight_mode": weight_mode.value,
        "winograd_m": m,
    }


def query_from_dict(entry, path: str) -> Query:
    """Read one query, raising typed errors on damage.  An absent weight
    mode or m reads as what ``implement()`` used before strategy files
    recorded them."""
    parallelism = require(entry, "parallelism", int, path)
    if parallelism < 1:
        raise ArtifactSchemaError(
            E_FIELD_VALUE, f"{path}.parallelism",
            f"parallelism {parallelism} is not positive",
        )
    return (
        require_enum(entry, "algorithm", Algorithm, path),
        WeightMode.RESIDENT if "weight_mode" not in entry
        else require_enum(entry, "weight_mode", WeightMode, path),
        WINOGRAD_M if "winograd_m" not in entry
        else require(entry, "winograd_m", int, path),
        parallelism,
    )


def engines_from_dicts(entries, infos: Sequence, path: str) -> List[Query]:
    """Queries of an artifact's engines for ``infos``, whose layer names
    they must record (``E_NETWORK`` otherwise)."""
    if not isinstance(entries, list) or len(entries) != len(infos):
        raise ArtifactSchemaError(
            E_FIELD_TYPE if not isinstance(entries, list) else E_FIELD_VALUE,
            path, f"expected {len(infos)} engines, found {entries!r:.80}",
        )
    for offset, (entry, info) in enumerate(zip(entries, infos)):
        name = require(entry, "name", str, f"{path}[{offset}]")
        if name != info.name:
            raise ArtifactMismatchError(
                E_NETWORK, f"{path}[{offset}].name",
                f"layer {offset} is {info.name!r} in the model but "
                f"{name!r} in the artifact",
            )
    return [
        query_from_dict(entry, f"{path}[{offset}]")
        for offset, entry in enumerate(entries)
    ]


def rebuild(
    infos: Sequence, queries: Sequence[Query], device: FPGADevice,
    context: CostModel,
) -> GroupDesign:
    """The fused design of ``infos`` whose engines answer ``queries``:
    every engine re-evaluated through ``implement()``, never read back."""
    return compose_group(
        [
            context.implement(info, algo, p, device, weight_mode=mode, winograd_m=m)
            for info, (algo, mode, m, p) in zip(infos, queries)
        ],
        device,
    )
