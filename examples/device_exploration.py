"""Device design-space exploration and pipeline visualization.

Run:  python examples/device_exploration.py

Two things the analytical substrate makes cheap that a board does not:

1. *what-if device sweeps* — how does the optimal strategy respond to
   2x the bandwidth, or half the fabric?  (Which resource is the design
   actually starved in?)
2. *pipeline visibility* — an ASCII Gantt chart of the simulated fused
   pipeline, showing the inter-layer overlap of Figure 2c.

Uses the AlexNet-like mixed network on the ZC706 model; finishes in
around a minute.
"""

import numpy as np

from repro.hardware.device import get_device
from repro.hardware.dse import scale_bandwidth, scale_fabric
from repro.nn import models
from repro.nn.functional import init_weights
from repro.optimizer.dp import optimize
from repro.perf.cost import EvalContext
from repro.perf.implement import Algorithm
from repro.reporting import format_table
from repro.sim.gantt import render_gantt
from repro.sim.simulator import simulate_strategy

MB = 2**20


def binding_resource(strategy, device) -> str:
    """The resource dimension the strategy's peak usage fills most."""
    utilization = strategy.peak_resources.utilization(device.resources)
    return max(utilization, key=utilization.get)


def main() -> None:
    device = get_device("zc706")
    network = models.alexnet().prefix(6, name="alexnet_prefix6")
    budget = network.feature_map_bytes()
    # One context serves every variant: it shares implement() results
    # and finished fusion[i][j] searches between them.
    context = EvalContext()

    print("== bandwidth sensitivity ==")
    rows = []
    for factor in (0.5, 1.0, 2.0, 4.0):
        variant = scale_bandwidth(device, factor)
        strategy = optimize(network, variant, budget, context=context)
        winograd = sum(
            choice.algorithm == Algorithm.WINOGRAD
            for choice in strategy.choices()
        )
        rows.append(
            [
                f"{factor:g}x BW",
                f"{strategy.latency_cycles / 1e6:.2f}",
                f"{strategy.effective_gops():.0f}",
                winograd,
                binding_resource(strategy, variant),
            ]
        )
    print(
        format_table(
            ["variant", "latency (Mcyc)", "GOPS", "wino layers", "binding resource"],
            rows,
        )
    )
    print()

    print("== fabric sensitivity ==")
    rows = []
    for factor in (0.5, 1.0, 2.0):
        variant = scale_fabric(device, factor)
        strategy = optimize(network, variant, budget, context=context)
        rows.append(
            [
                f"{factor:g}x fabric",
                f"{strategy.latency_cycles / 1e6:.2f}",
                f"{strategy.effective_gops():.0f}",
                binding_resource(strategy, variant),
            ]
        )
    print(
        format_table(
            ["variant", "latency (Mcyc)", "GOPS", "binding resource"], rows
        )
    )
    print()

    print("== simulated pipeline (Gantt) ==")
    small = models.tiny_cnn(32, 32)
    strategy = optimize(small, get_device("testchip"), small.min_fused_transfer_bytes())
    data = np.random.default_rng(0).normal(size=small.input_spec.shape)
    result = simulate_strategy(strategy, data, init_weights(small))
    print(render_gantt(result.group_traces))


if __name__ == "__main__":
    main()
