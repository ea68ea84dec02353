"""Golden digests of Algorithm 2's branch-and-bound searches.

Each scenario fills a :class:`GroupSearch`'s ``fusion[i][j]`` table and
hashes, for every search it ran, the layer range, the nodes visited, the
cuts taken, the group latency and every layer's
``(algorithm, weight_mode, winograd_m, parallelism)``.  Node and prune
counts pin the visit order and the bounds, not only the optimum, so a
rewrite of the search loop must keep both bit-identical.  The AlexNet
scenario uses a node budget small enough to truncate its deepest
searches, which pins the incumbent a truncated search returns.

Regenerate only for a deliberate behaviour change::

    PYTHONPATH=src python tests/test_search_golden.py
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.hardware.device import get_device
from repro.nn import models
from repro.optimizer.branch_and_bound import GroupSearch
from repro.perf.cost import EvalContext
from repro.perf.implement import Algorithm

GOLDEN = {
    "vgg_fused_prefix_zc706": "0cb7e39b107f0aff1b3515e84865dcb910822f74ef94fb0d742e665eca063364",
    "alexnet_prefix8_zc706_truncated": "453ccde74b17601da26cda56dfb3b281f445496f79f8d75dc54649bb10b4f725",
    "tiny_cnn_testchip_tiles": "a20232ffdfb2eccb3f72fd1572e4edfd9b4fdeff9b7dac1ef0d89f5b3b03ec3c",
    "tiny_cnn_testchip_conventional": "e4f3c8d89c9626c61237cc225db844aaf3c9492d4c6b8dfe1e77d67338f7b9af",
}


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


def _search_digest(network, device_name, **kwargs) -> str:
    context = _RecordingContext()
    search = GroupSearch(network, get_device(device_name), context=context, **kwargs)
    search.precompute()
    rows = []
    for (start, stop), (nodes, pruned) in sorted(context.searches.items()):
        design = search.fusion(start, stop)
        if design is None:
            rows.append([start, stop, nodes, pruned, None, None])
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
        rows.append([start, stop, nodes, pruned, design.latency_cycles, layers])
    text = json.dumps(rows, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def vgg_fused_prefix_zc706():
    return _search_digest(models.vgg_fused_prefix(), "zc706")


def alexnet_prefix8_zc706_truncated():
    # 5,000 nodes cuts the two deepest searches short (they need ~72k
    # and ~9k), so the budget path and its incumbent are pinned.
    return _search_digest(models.alexnet().prefix(8), "zc706", node_budget=5_000)


def tiny_cnn_testchip_tiles():
    return _search_digest(models.tiny_cnn(), "testchip", explore_tile_sizes=True)


def tiny_cnn_testchip_conventional():
    return _search_digest(
        models.tiny_cnn(),
        "testchip",
        algorithm_filter=lambda info, algo: algo != Algorithm.WINOGRAD,
    )


SCENARIOS = {
    fn.__name__: fn
    for fn in (
        vgg_fused_prefix_zc706,
        alexnet_prefix8_zc706_truncated,
        tiny_cnn_testchip_tiles,
        tiny_cnn_testchip_conventional,
    )
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_digest(name):
    assert SCENARIOS[name]() == GOLDEN[name], (
        f"search scenario {name!r} changed behaviour"
    )


if __name__ == "__main__":
    for scenario, func in SCENARIOS.items():
        print(f'    "{scenario}": "{func()}",')
