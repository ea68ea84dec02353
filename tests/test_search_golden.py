"""Golden digests of Algorithm 2's branch-and-bound searches.

Each scenario fills a :class:`GroupSearch`'s ``fusion[i][j]`` table and
hashes, for every search it ran, the layer range, the nodes visited, the
cuts taken, the group latency and every layer's
``(algorithm, weight_mode, winograd_m, parallelism)``.  Node and prune
counts pin the visit order and the bounds, not only the optimum, so a
rewrite of the search loop must keep both bit-identical.  The AlexNet
scenario uses a node budget small enough to truncate its deepest
searches, which pins the incumbent a truncated search returns.

A second map, :data:`DESIGN_GOLDEN`, hashes the designs alone: range,
latency and per-layer choices, without nodes or cuts, and with a
truncated search reduced to a marker.  A change to the bounds moves
:data:`GOLDEN` but must leave :data:`DESIGN_GOLDEN` as it is: every
search that completes returns the first optimal leaf in DFS order,
whatever it prunes on the way.

Regenerate only for a deliberate behaviour change::

    PYTHONPATH=src python tests/test_search_golden.py
"""

from __future__ import annotations

import functools
import hashlib
import json

import pytest

from repro.hardware.device import get_device
from repro.nn import models
from repro.optimizer.branch_and_bound import GroupSearch
from repro.perf.cost import EvalContext
from repro.perf.implement import Algorithm

GOLDEN = {
    "vgg_fused_prefix_zc706": "66f2bd2ca02164bd38da6c9e0e30ddfe2ba71f664d191a2e613ac0ab6a682dab",
    "alexnet_prefix8_zc706_truncated": "7f5e97ebe5b375812f98f90d59c9650c6b6501b0a93e2c70252e75068f337ee8",
    "tiny_cnn_testchip_tiles": "a53bb37fb3aa8a1bc62759cccef62a4e2ab2233b01bf27b4a2551d5f6ae87548",
    "tiny_cnn_testchip_conventional": "47255a75628f603b1ec7a92ad5cebcc4a4449acd352838d3a35618bd4b96f7af",
}

DESIGN_GOLDEN = {
    "vgg_fused_prefix_zc706": "45df1964568447458f0bccc8c54172c66ad5726ed344a9938feac98d5dd9a4c5",
    "alexnet_prefix8_zc706_truncated": "ecd02a016e710835c39b36b3761275b42810c0aad1cd4c417140d39a0f3469db",
    "alexnet_prefix8_zc706": "fa46018118dd0bd071a79f9a8ff3000caf6121506ff703719692a07e07a8c694",
    "tiny_cnn_testchip_tiles": "964bf9a0bb9ffdc6fcaad10f0d58e0b08ddd0b23520259676366d586d32aa43b",
    "tiny_cnn_testchip_conventional": "d73785f9e006d998074bb0a5366951efa83406a103000dea2ba456aba97264aa",
}

#: Node budget of the truncating AlexNet scenario: small enough that the
#: [0:8] and [1:8] searches (2,392 and 1,166 nodes unbudgeted) stop short.
TRUNCATING_BUDGET = 1_000


class _RecordingContext(EvalContext):
    """EvalContext that also keeps each search's node and cut counts."""

    def __init__(self):
        super().__init__()
        self.searches = {}

    def record_search(self, network_name, device_name, start, stop,
                      seconds, nodes_visited, nodes_pruned):
        super().record_search(network_name, device_name, start, stop,
                              seconds, nodes_visited, nodes_pruned)
        self.searches[(start, stop)] = (nodes_visited, nodes_pruned)


def _searches(network, device_name, **kwargs) -> list:
    """Run one scenario: per search ``(start, stop, nodes, pruned,
    truncated, latency, layers)``, in range order."""
    context = _RecordingContext()
    search = GroupSearch(network, get_device(device_name), context=context, **kwargs)
    search.precompute()
    budget = search.node_budget
    records = []
    for (start, stop), (nodes, pruned) in sorted(context.searches.items()):
        truncated = bool(budget) and nodes > budget
        design = search.fusion(start, stop)
        if design is None:
            records.append((start, stop, nodes, pruned, truncated, None, None))
            continue
        layers = [
            [
                impl.algorithm.value,
                None if impl.weight_mode is None else impl.weight_mode.value,
                impl.winograd_m,
                impl.parallelism,
            ]
            for impl in design.implementations
        ]
        records.append(
            (start, stop, nodes, pruned, truncated, design.latency_cycles, layers)
        )
    return records


def _hash(rows) -> str:
    text = json.dumps(rows, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def search_digest(records) -> str:
    """Digest of every search's range, counts and design."""
    return _hash([
        [start, stop, nodes, pruned, latency, layers]
        for start, stop, nodes, pruned, _, latency, layers in records
    ])


def design_digest(records) -> str:
    """Digest of every search's range and design, without counts.

    A truncated search returns whatever incumbent its budget reached,
    so it is pinned only as truncated.
    """
    return _hash([
        [start, stop, "truncated"] if truncated else [start, stop, latency, layers]
        for start, stop, _, _, truncated, latency, layers in records
    ])


@functools.lru_cache(maxsize=None)
def vgg_fused_prefix_zc706():
    return _searches(models.vgg_fused_prefix(), "zc706")


@functools.lru_cache(maxsize=None)
def alexnet_prefix8_zc706_truncated():
    # The budget cuts the two deepest searches short, so the budget path
    # and its incumbent are pinned.
    return _searches(
        models.alexnet().prefix(8), "zc706", node_budget=TRUNCATING_BUDGET
    )


@functools.lru_cache(maxsize=None)
def alexnet_prefix8_zc706():
    return _searches(models.alexnet().prefix(8), "zc706")


@functools.lru_cache(maxsize=None)
def tiny_cnn_testchip_tiles():
    return _searches(models.tiny_cnn(), "testchip", explore_tile_sizes=True)


@functools.lru_cache(maxsize=None)
def tiny_cnn_testchip_conventional():
    return _searches(
        models.tiny_cnn(),
        "testchip",
        algorithms=(Algorithm.CONVENTIONAL,),
    )


SCENARIOS = {
    fn.__name__: fn
    for fn in (
        vgg_fused_prefix_zc706,
        alexnet_prefix8_zc706_truncated,
        alexnet_prefix8_zc706,
        tiny_cnn_testchip_tiles,
        tiny_cnn_testchip_conventional,
    )
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_digest(name):
    assert search_digest(SCENARIOS[name]()) == GOLDEN[name], (
        f"search scenario {name!r} changed behaviour"
    )


@pytest.mark.parametrize("name", sorted(DESIGN_GOLDEN))
def test_design_digest(name):
    assert design_digest(SCENARIOS[name]()) == DESIGN_GOLDEN[name], (
        f"search scenario {name!r} changed a design"
    )


def test_budget_truncates_the_deepest_alexnet_searches():
    truncated = [
        (start, stop)
        for start, stop, _, _, was_truncated, _, _ in alexnet_prefix8_zc706_truncated()
        if was_truncated
    ]
    assert truncated == [(0, 8), (1, 8)]


def test_googlenet_graph_compile_counts(capsys):
    """The native GoogLeNet graph runs 106 small chain-run searches, whose
    first layers resolve their ladders only as far as the search
    reaches: ``repro compile googlenet_graph --device zc706 --stats
    --json`` pins its latency and every search count."""
    from repro.cli import main

    argv = ["compile", "googlenet_graph", "--device", "zc706", "--stats", "--json"]
    assert main(argv) == 0
    result = json.loads(capsys.readouterr().out)
    counts = {key: result["telemetry"][key] for key in (
        "groups_searched", "nodes_visited", "nodes_pruned",
        "evaluations", "cache_hits",
    )}
    assert result["latency_cycles"] == 1_837_238
    assert counts == {
        "groups_searched": 106,
        "nodes_visited": 1_222,
        "nodes_pruned": 4_484,
        "evaluations": 2_512,
        "cache_hits": 349,
    }


if __name__ == "__main__":
    print("GOLDEN = {")
    for scenario in GOLDEN:
        print(f'    "{scenario}": "{search_digest(SCENARIOS[scenario]())}",')
    print("}\n\nDESIGN_GOLDEN = {")
    for scenario in SCENARIOS:
        print(f'    "{scenario}": "{design_digest(SCENARIOS[scenario]())}",')
    print("}")
