"""Framework generality: "a comprehensive solution that can map a great
diversity of CNNs onto FPGAs" (paper Section 3).

Runs the full tool-flow over the whole model zoo beyond the two case
studies — ZFNet, NiN (1x1-heavy), and the GoogLeNet prefix with modules
as layers — and reports the strategy each network gets on the ZC706.
"""

from repro.nn import models
from repro.optimizer.dp import optimize
from repro.perf.implement import Algorithm
from repro.reporting import format_table

from conftest import MB, write_result


def run_zoo(zc706):
    # Prefixes keep the bench short.
    results = {}
    for name, network in (
        ("zfnet_prefix6", models.zfnet().prefix(6, name="zfnet_prefix6")),
        ("nin_prefix8", models.nin().prefix(8, name="nin_prefix8")),
        ("googlenet_prefix2", models.googlenet_prefix(2)),
    ):
        budget = network.feature_map_bytes()
        results[name] = (network, optimize(network, zc706, budget))
    return results


def test_generality(benchmark, zc706):
    results = benchmark.pedantic(run_zoo, args=(zc706,), rounds=1, iterations=1)

    rows = []
    for name, (network, strategy) in results.items():
        winograd = sum(
            1 for c in strategy.choices() if c.algorithm == Algorithm.WINOGRAD
        )
        conventional = sum(
            1 for c in strategy.choices() if c.algorithm == Algorithm.CONVENTIONAL
        )
        rows.append(
            [
                name,
                len(network),
                f"{network.total_ops() / 1e9:.2f}",
                len(strategy.designs),
                conventional,
                winograd,
                f"{strategy.latency_cycles / 1e6:.2f}",
                f"{strategy.effective_gops():.0f}",
            ]
        )
    table = format_table(
        [
            "network",
            "layers",
            "GOP",
            "groups",
            "conv engines",
            "wino engines",
            "latency (Mcyc)",
            "GOPS",
        ],
        rows,
        title="Tool-flow generality across the model zoo (ZC706)",
    )
    write_result("generality.txt", table)

    for name, (network, strategy) in results.items():
        strategy.validate()
        assert strategy.effective_gops() > 10, name
    # NiN's 1x1 layers must all be conventional (Winograd illegal)
    nin_strategy = results["nin_prefix8"][1]
    ones = {
        c.layer_name
        for c in nin_strategy.choices()
        if c.layer_name.startswith("cccp")
    }
    for choice in nin_strategy.choices():
        if choice.layer_name in ones:
            assert choice.algorithm == Algorithm.CONVENTIONAL
