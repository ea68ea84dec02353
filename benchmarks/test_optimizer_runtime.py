"""Section 7.1 claim: "our algorithm returns the optimal solutions
within seconds" for both case studies.

Benchmarks the full Algorithm 1 + Algorithm 2 pipeline (cold caches) on
the VGG-E prefix and AlexNet, plus the amortized per-constraint cost of
the Figure 5 sweep where the fusion table is shared.
"""

import pytest

from repro.optimizer.dp import FrontierOptimizer, optimize, optimize_many

from conftest import ALEXNET_CONSTRAINT, FIG5_CONSTRAINTS_MB, MB, write_result


def test_vgg_optimizer_runtime(benchmark, vgg_prefix, zc706):
    strategy = benchmark.pedantic(
        optimize,
        args=(vgg_prefix, zc706, 2 * MB),
        rounds=2,
        iterations=1,
    )
    assert strategy.latency_cycles > 0
    seconds = benchmark.stats.stats.mean
    write_result(
        "runtime_vgg.txt",
        f"VGG-E prefix optimizer runtime: {seconds:.2f} s (paper: 'within seconds')",
    )
    assert seconds < 60


def test_vgg_sweep_amortized(benchmark, vgg_prefix, zc706):
    strategies = benchmark.pedantic(
        optimize_many,
        args=(vgg_prefix, zc706, [mb * MB for mb in FIG5_CONSTRAINTS_MB]),
        rounds=1,
        iterations=1,
    )
    assert len(strategies) == len(FIG5_CONSTRAINTS_MB)
    seconds = benchmark.stats.stats.mean
    write_result(
        "runtime_vgg_sweep.txt",
        f"Figure 5 five-constraint sweep: {seconds:.2f} s total "
        f"({seconds / len(FIG5_CONSTRAINTS_MB):.2f} s per constraint)",
    )


@pytest.mark.heavy
def test_alexnet_optimizer_runtime(benchmark, alexnet, zc706):
    strategy = benchmark.pedantic(
        optimize,
        args=(alexnet, zc706, ALEXNET_CONSTRAINT),
        rounds=1,
        iterations=1,
    )
    assert len(strategy.designs) == 1
    seconds = benchmark.stats.stats.mean
    write_result(
        "runtime_alexnet.txt",
        f"AlexNet optimizer runtime: {seconds:.2f} s "
        "(every fusion search finishes under the node budget)",
    )
    assert seconds < 120
