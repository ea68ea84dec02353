"""Compile half of ``toolflow``: cold compiles of a suite, then simulation.

Each pass compiles every suite model from prototxt text (so parsing is on
the path) with a fresh ``EvalContext`` and no store.  After the timed
passes, the last pass's designs are simulated on seeded inputs and
weights and checked against the functional reference.

The traced pass runs the same compile split into its public phases —
``FrontierOptimizer.__init__`` (menus), ``.search.precompute()``
(branch and bound), ``.best_plan`` (DP), ``.materialize``,
``verify_strategy``, ``generate_project``, and the ``GraphOptimizer``
equivalents — and must reproduce ``compile_model``'s groups and
latency exactly.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, List, Optional

import numpy as np

from repro.check.invariants import verify_graph_strategy, verify_strategy
from repro.codegen.generator import generate_project
from repro.hardware.device import get_device
from repro.nn import models
from repro.nn.caffe import graph_to_prototxt, model_from_prototxt, network_to_prototxt
from repro.nn.functional import forward, forward_graph, init_graph_weights, init_weights
from repro.nn.graph import Graph
from repro.optimizer.dp import FrontierOptimizer
from repro.optimizer.graph_dp import ChainSegment, FusedParallelSegment, GraphOptimizer
from repro.perf.cost import EvalContext
from repro.sim.graph import simulate_graph_strategy
from repro.sim.simulator import simulate_strategy
from repro.toolflow import compile_model

from instrument import NODE_BUDGET, TimedCostModel, search_metrics
from measure import Checks, Tracer, geomean, median

KB = 1024
MB = 1024 * KB

#: Simulated output vs functional reference, relative to the largest
#: reference magnitude.  Measured errors are below 1e-11.
SIM_TOLERANCE = 1e-9


@dataclass(frozen=True)
class SuiteModel:
    name: str
    build: Callable
    transfer_bytes: Optional[int]  # the paper's T; None = unconstrained


@dataclass(frozen=True)
class CompileSuite:
    device: str
    models: tuple


#: VGG-E prefix at T = 2 MB is Table 1.  A full AlexNet compile takes
#: 60-70 s (two budget-truncated groups), too long for one run, so its
#: first eight layers (conv1-conv4) stand in: one 72k-node group keeps
#: branch and bound nearly all of the work.  Native GoogLeNet is menu-,
#: implement()- and graph-DP-heavy instead.
SUITE = CompileSuite(
    device="zc706",
    models=(
        SuiteModel("vgg_e", models.vgg_fused_prefix, 2 * MB),
        SuiteModel(
            "alexnet_prefix8",
            lambda: models.alexnet().prefix(8, name="alexnet_prefix8"),
            512 * KB,
        ),
        SuiteModel("googlenet_graph", models.googlenet_graph, None),
    ),
)

#: Sub-second suite for the harness self-test.
TINY_SUITE = CompileSuite(
    device="testchip",
    models=(
        SuiteModel("tiny_cnn", models.tiny_cnn, None),
        SuiteModel("tiny_resnet", models.tiny_resnet, None),
    ),
)


@dataclass
class Case:
    """One suite model with its seeded simulation inputs and reference."""

    name: str
    text: str
    transfer_bytes: Optional[int]
    is_graph: bool
    data: np.ndarray
    weights: dict
    reference: np.ndarray


def strategy_signature(strategy) -> tuple:
    """Latency plus group structure: what two compiles must agree on."""
    if hasattr(strategy, "segments"):
        groups = []
        for segment in strategy.segments:
            inner = (
                tuple(segment.strategy.boundaries)
                if isinstance(segment, ChainSegment) else ()
            )
            groups.append((segment.kind, tuple(segment.node_names()), inner))
        return strategy.latency_cycles, tuple(groups)
    return strategy.latency_cycles, tuple(strategy.boundaries)


def layer_implementations(strategy) -> dict:
    """Layer name -> its chosen ``Implementation``, chain or graph."""
    found = {}
    if not hasattr(strategy, "segments"):
        for design in strategy.designs:
            for impl in design.implementations:
                found[impl.layer_name] = impl
        return found
    for segment in strategy.segments:
        if isinstance(segment, ChainSegment):
            found.update(layer_implementations(segment.strategy))
        elif isinstance(segment, FusedParallelSegment):
            for branch in segment.branch_implementations:
                for impl in branch:
                    found[impl.layer_name] = impl
        else:
            for branch in segment.branches:
                found.update(layer_implementations(branch))
    return found


def simulated_layer_cycles(result) -> dict:
    """Layer name -> busy cycles in the simulator's group traces."""
    groups = list(getattr(result, "group_traces", []))
    for segment in getattr(result, "segment_traces", []):
        groups.extend(segment.group_traces)
    return {
        layer.layer_name: layer.busy_cycles
        for group in groups for layer in group.layers
    }


class CompileWorkload:
    def __init__(self, seed: int, workdir: Path, suite: CompileSuite = SUITE):
        """Set-up: prototxt text, seeded inputs and weights, references."""
        self.suite = suite
        self.device = get_device(suite.device)
        rng = np.random.default_rng(seed)
        self.cases: List[Case] = []
        for model in suite.models:
            net = model.build()
            is_graph = isinstance(net, Graph)
            if is_graph:
                text = graph_to_prototxt(net)
                accel = net.accelerated_subgraph()
                data = rng.normal(0, 0.5, accel.input_spec.shape)
                weights = init_graph_weights(accel, rng)
                reference = forward_graph(accel, data, weights)
            else:
                text = network_to_prototxt(net)
                accel = net.accelerated_prefix()
                data = rng.normal(0, 0.5, accel.input_spec.shape)
                weights = init_weights(accel, rng)
                reference = forward(accel, data, weights)
            self.cases.append(
                Case(model.name, text, model.transfer_bytes, is_graph,
                     data, weights, reference)
            )

    # -- passes ----------------------------------------------------------------

    def run_pass(self, tracer: Optional[Tracer] = None,
                 before_step: Optional[Callable[[], None]] = None) -> dict:
        steps, results = {}, {}
        for case in self.cases:
            if before_step is not None:
                before_step()
            started = time.perf_counter()
            if tracer is None:
                result = compile_model(
                    case.text, device=self.device,
                    transfer_constraint_bytes=case.transfer_bytes,
                    context=EvalContext(),
                )
                strategy = result.strategy
            else:
                with tracer.span("compile", model=case.name):
                    strategy = self._phased_compile(case, tracer)
            steps[case.name] = time.perf_counter() - started
            results[case.name] = strategy
        return {"steps": steps, "strategies": results}

    def _phased_compile(self, case: Case, tracer: Tracer):
        """``compile_model`` split into its public phases, one span each."""
        with tracer.span("nn.parse"):
            model = model_from_prototxt(case.text)
        context = TimedCostModel(EvalContext(), tracer)
        if case.is_graph:
            graph = model.accelerated_subgraph()
            transfer = case.transfer_bytes
            if transfer is None:
                transfer = graph.feature_map_bytes(self.device.element_bytes)
            optimizer = GraphOptimizer(graph, self.device, context=context)
            with tracer.span("optimizer.dp"):
                # Chain-run menus and B&B searches happen lazily inside
                # the frontier; they are child spans, so the DP is the
                # span's self time.
                frontier = optimizer.frontier()
                plan = optimizer.best_plan(transfer)
            with tracer.span("optimizer.materialize"):
                strategy = optimizer.materialize(plan)
                strategy.validate(transfer)
            with tracer.span("check.verify"):
                verify_graph_strategy(
                    strategy, transfer_constraint_bytes=transfer
                ).raise_if_failed()
        else:
            network = model.accelerated_prefix()
            transfer = case.transfer_bytes
            if transfer is None:
                transfer = network.feature_map_bytes(self.device.element_bytes)
            with tracer.span("optimizer.menus"):
                optimizer = FrontierOptimizer(network, self.device, context=context)
            with tracer.span("optimizer.bnb"):
                optimizer.search.precompute()
            with tracer.span("optimizer.dp"):
                frontier = optimizer.frontier(0, len(network))
                plan = optimizer.best_plan(transfer)
            with tracer.span("optimizer.materialize"):
                strategy = optimizer.materialize(plan)
                strategy.validate(transfer)
            with tracer.span("check.verify"):
                verify_strategy(
                    strategy, transfer_constraint_bytes=transfer
                ).raise_if_failed()
            with tracer.span("codegen"):
                project = generate_project(strategy)
            tracer.count(
                "codegen.bytes",
                sum(len(text.encode()) for text in project.files.values()),
            )
        tracer.count("optimizer.frontier_points", len(frontier))
        return strategy

    # -- metrics ---------------------------------------------------------------

    def modelled_latency_mcyc(self, passes: List[dict]) -> float:
        strategies = passes[0]["strategies"].values()
        return geomean(s.latency_cycles / 1e6 for s in strategies)

    def layer_metrics(self, traced: List[Tracer], passes: List[dict]) -> dict:
        def med(func):
            return median(func(t) for t in traced)

        last = traced[-1]
        metrics = search_metrics(traced)
        metrics.update({
            "nn.parse_s": med(lambda t: t.total("nn.parse")),
            "optimizer.menu_s": med(lambda t: t.total("optimizer.menus")),
            "optimizer.dp_s": med(lambda t: t.self_time("optimizer.dp")),
            "optimizer.frontier_points": last.counters.get(
                "optimizer.frontier_points", 0
            ),
            "optimizer.materialize_s": med(
                lambda t: t.total("optimizer.materialize")
            ),
            "check.verify_s": med(lambda t: t.total("check.verify")),
            "codegen.s": med(lambda t: t.total("codegen")),
            "codegen.bytes": last.counters.get("codegen.bytes", 0),
        })
        return metrics

    def tables(self, traced: List[Tracer]) -> dict:
        return {
            "fusion": self.fusion_table(traced[0]),
            "layers": self.layer_table,
        }

    def fusion_table(self, tracer: Tracer) -> str:
        """Every ``fusion[i][j]`` search this process made in one traced
        pass (sweep workers' searches run in other processes)."""
        lines = [
            f"{'network':<20} {'device':<9} {'i':>3} {'j':>3} "
            f"{'nodes':>9} {'pruned':>9} {'wall_s':>9}  truncated"
        ]
        for g in tracer.named("optimizer.bnb_group"):
            if g["pid"] != os.getpid():
                continue
            a = g["args"]
            lines.append(
                f"{a['network']:<20} {a['device']:<9} {a['start']:>3} "
                f"{a['stop']:>3} {a['nodes']:>9} {a['pruned']:>9} "
                f"{g['end'] - g['start']:>9.4f}  "
                f"{'yes' if a['nodes'] > NODE_BUDGET else 'no'}"
            )
        return "\n".join(lines)

    # -- checks ----------------------------------------------------------------

    def check(self, passes: List[dict], checks: Checks,
              reference_pass: Optional[dict] = None) -> dict:
        """Check every pass; simulate the last one.

        Returns the simulation metrics, and keeps the accelerator table
        (``implement()`` cycles next to simulated cycles) for
        :meth:`tables`.
        """
        first = {n: strategy_signature(s)
                 for n, s in passes[0]["strategies"].items()}
        for index, record in enumerate(passes):
            for name, strategy in record["strategies"].items():
                checks.expect(
                    strategy_signature(strategy) == first[name],
                    f"{name}: pass {index} compiled a different design",
                )
        if reference_pass is not None:
            for name, strategy in reference_pass["strategies"].items():
                checks.expect(
                    strategy_signature(strategy) == first[name],
                    f"{name}: phase-split compile differs from compile_model",
                )
        strategies = passes[-1]["strategies"]
        for case in self.cases:
            strategy = strategies[case.name]
            verify = verify_graph_strategy if case.is_graph else verify_strategy
            transfer = case.transfer_bytes
            checks.expect(
                verify(strategy, transfer_constraint_bytes=transfer).ok,
                f"{case.name}: verify_strategy failed",
            )
        metrics, layer_rows, group_rows = {"sim.s": 0.0}, [], []
        for case in self.cases:
            strategy = strategies[case.name]
            simulate = simulate_graph_strategy if case.is_graph else simulate_strategy
            started = time.perf_counter()
            result = simulate(strategy, case.data, case.weights)
            metrics["sim.s"] += time.perf_counter() - started
            self.check_output(case, result.output, case.reference, checks)
            metrics[f"sim.cycle_ratio.{case.name}"] = (
                result.latency_cycles / strategy.latency_cycles
            )
            simulated = simulated_layer_cycles(result)
            for layer, impl in layer_implementations(strategy).items():
                layer_rows.append(_cycles_row(
                    case.name, layer, impl.algorithm.value,
                    impl.compute_cycles, simulated.get(layer),
                ))
            if case.is_graph:
                pairs = zip(strategy.segments, result.segment_traces)
                for index, (segment, trace) in enumerate(pairs):
                    group_rows.append(_cycles_row(
                        case.name, f"segment {index}", segment.kind,
                        segment.latency_cycles, trace.cycles,
                    ))
            else:
                pairs = zip(strategy.boundaries, strategy.designs,
                            result.group_traces)
                for (start, stop), design, trace in pairs:
                    group_rows.append(_cycles_row(
                        case.name, f"group [{start}:{stop}]", design.bottleneck,
                        design.latency_cycles, trace.latency_cycles,
                    ))
        self.layer_table = "\n".join(
            ["per layer: implement() compute cycles vs simulated busy cycles",
             _row("model", "layer", "algorithm", "implement()", "simulated",
                  "ratio")]
            + layer_rows
            + ["", "per group: analytic latency vs simulated group latency",
               _row("model", "group", "bound by", "analytic", "simulated",
                    "ratio")]
            + group_rows
        )
        return metrics

    @staticmethod
    def check_output(case: Case, output: np.ndarray, reference: np.ndarray,
                     checks: Checks) -> None:
        if output.shape != reference.shape:
            checks.expect(False, f"{case.name}: simulated output shape "
                                 f"{output.shape} != {reference.shape}")
            return
        scale = max(1.0, float(np.abs(reference).max()))
        error = float(np.abs(output - reference).max())
        checks.expect(
            error <= SIM_TOLERANCE * scale,
            f"{case.name}: simulated output off the reference by {error:.3g}",
        )


def _row(model, item, kind, modelled, simulated, ratio) -> str:
    return (f"{model:<18} {item:<28} {kind:<12} {modelled:>12} "
            f"{simulated:>14} {ratio:>7}")


def _cycles_row(model, item, kind, modelled: int, simulated) -> str:
    """Modelled cycles next to simulated ones, with their ratio."""
    if simulated is None or not modelled:
        return _row(model, item, kind, f"{modelled:,}", "-", "-")
    return _row(model, item, kind, f"{modelled:,}", f"{simulated:,.0f}",
                f"{simulated / modelled:.3f}")
