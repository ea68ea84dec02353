"""What signature-keyed evaluation sharing buys on a deep network.

VGG-E's 21 accelerated layers collapse onto 14 distinct layer
signatures (conv3_2/3/4, conv4_2/3/4, conv5_1/2/3/4 and the pools
repeat shapes), so keying the ``implement()`` cache by signature
instead of layer index answers the repeats from cache.  This benchmark
runs the Figure 5 ``optimize_many`` sweep twice over one

* *index-keyed* context (``IndexKeyedContext`` from the tests — the
  legacy per-layer caching, with no group memo), then
* *signature-keyed* context (the default),

checks the chosen strategies are identical (the refactor is
strategy-preserving), and records the evaluation counts and wall time.
"""

import time

import pytest

from repro.nn import models
from repro.optimizer.dp import optimize_many
from repro.perf.cost import EvalContext, layer_signature
from tests.test_cost_model import IndexKeyedContext

from conftest import FIG5_CONSTRAINTS_MB, MB, write_result


def _run_sweep(network, device, context):
    began = time.perf_counter()
    strategies = optimize_many(
        network,
        device,
        [mb * MB for mb in FIG5_CONSTRAINTS_MB],
        context=context,
    )
    return strategies, time.perf_counter() - began


@pytest.mark.heavy
def test_signature_cache_reduces_evaluations(zc706):
    network = models.vgg19().accelerated_prefix()

    index_keyed = IndexKeyedContext()
    before, before_s = _run_sweep(network, zc706, index_keyed)

    signature_keyed = EvalContext()
    after, after_s = _run_sweep(network, zc706, signature_keyed)

    assert [s.latency_cycles for s in before] == [
        s.latency_cycles for s in after
    ]
    assert [
        [(c.layer_name, c.group_id, c.algorithm, c.parallelism) for c in s.choices()]
        for s in before
    ] == [
        [(c.layer_name, c.group_id, c.algorithm, c.parallelism) for c in s.choices()]
        for s in after
    ]

    evals_before = index_keyed.stats.evaluations
    evals_after = signature_keyed.stats.evaluations
    reduction = 1 - evals_after / evals_before
    unique = len({layer_signature(network[i]) for i in range(len(network))})

    lines = [
        f"optimize_many sweep of {network.name} on {zc706.name} "
        f"({', '.join(f'{mb}MB' for mb in FIG5_CONSTRAINTS_MB)}):",
        f"  layers: {len(network)} ({unique} distinct signatures)",
        f"  index-keyed cache (legacy):  {evals_before:>5} implement() "
        f"evaluations, {before_s:6.1f} s",
        f"  signature-keyed cache:       {evals_after:>5} implement() "
        f"evaluations, {after_s:6.1f} s",
        f"  evaluation reduction: {reduction * 100:.1f}% "
        "(identical strategies)",
    ]
    write_result("optimizer_cache.txt", "\n".join(lines))

    assert reduction >= 0.30
