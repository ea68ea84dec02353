"""Ablation: what fusion and heterogeneity each contribute (Section 2.2).

The paper attributes its gains to two mechanisms: layer fusion (CTC
ratio / transfer energy) and heterogeneous algorithm choice ("improves
the performance by 99% on average").  This benchmark isolates them on
the VGG-E prefix at the most relaxed Figure 5 constraint:

* unfused + conventional (the classic layer-by-layer accelerator),
* fusion only (homogeneous conventional),
* heterogeneity only (unfused, free algorithm choice),
* both (the paper's design).
"""

from repro.baselines.homogeneous import homogeneous_optimize, unfused_optimize
from repro.optimizer.dp import optimize
from repro.optimizer.branch_and_bound import GroupSearch
from repro.optimizer.strategy import Strategy
from repro.perf.implement import Algorithm
from repro.reporting import format_table

from conftest import MB, write_result

BUDGET_MB = 32


def _unfused_conventional(network, device):
    search = GroupSearch(network, device, algorithms=(Algorithm.CONVENTIONAL,))
    boundaries = [(i, i + 1) for i in range(len(network))]
    designs = [search.fusion(i, i + 1) for i in range(len(network))]
    return Strategy(network, device, boundaries, designs)


def run_ablation(network, device):
    budget = BUDGET_MB * MB
    return {
        "neither (unfused conventional)": _unfused_conventional(network, device),
        "fusion only": homogeneous_optimize(
            network, device, budget, Algorithm.CONVENTIONAL
        ),
        "heterogeneity only (unfused)": unfused_optimize(network, device),
        "both (paper)": optimize(network, device, budget),
    }


def test_ablation(benchmark, vgg_prefix, zc706):
    designs = benchmark.pedantic(
        run_ablation, args=(vgg_prefix, zc706), rounds=1, iterations=1
    )

    neither = designs["neither (unfused conventional)"]
    rows = []
    for name, strategy in designs.items():
        rows.append(
            [
                name,
                f"{strategy.latency_cycles / 1e6:.2f}",
                f"{neither.latency_cycles / strategy.latency_cycles:.2f}x",
                f"{strategy.effective_gops():.0f}",
                f"{strategy.feature_transfer_bytes / MB:.1f}",
            ]
        )
    table = format_table(
        ["design", "latency (Mcyc)", "vs neither", "GOPS", "transfer (MB)"],
        rows,
        title=f"Ablation on the VGG-E prefix (budget {BUDGET_MB} MB)",
    )
    write_result("ablation.txt", table)

    both = designs["both (paper)"]
    fusion_only = designs["fusion only"]
    hetero_only = designs["heterogeneity only (unfused)"]
    # Each mechanism alone helps; both together is best on latency.
    assert both.latency_cycles <= fusion_only.latency_cycles
    assert both.latency_cycles <= hetero_only.latency_cycles
    # Heterogeneity roughly doubles performance over conventional-only
    # (paper: "improves the performance by 99% on average").
    assert fusion_only.latency_cycles / both.latency_cycles > 1.5
    # Fusion's contribution is the transfer, not raw latency.
    assert both.feature_transfer_bytes < hetero_only.feature_transfer_bytes