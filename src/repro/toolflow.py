"""End-to-end automated tool-flow (paper Section 3, Figure 3).

"It takes Caffe configuration file and specification of the target FPGA
as inputs and generates bitstream on FPGA."  Here the flow runs through
the same three components — architecture, optimal algorithm, code
generator — but terminates at HLS source + a cycle-approximate simulation
instead of a Vivado bitstream (no Vivado in this environment; see
DESIGN.md).

Typical use::

    from repro.toolflow import compile_model
    result = compile_model("model.prototxt", device="zc706",
                           transfer_constraint_bytes=2 * 2**20)
    print(result.strategy.report())
    result.project.write_to("hls_out/")

Branching (DAG) models are first-class: a prototxt with fork–join
structure resolves to a :class:`repro.nn.graph.Graph`, and
:func:`compile_model` / :func:`partition_model` optimize it natively.
The same :class:`CompileResult` carries either kind of strategy; its
simulate and serve hooks dispatch on the strategy type, and only HLS
code generation stays chain-only (see ``docs/ir.md``).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence, Union

import numpy as np

from repro.errors import OptimizationError
from repro.codegen.generator import GeneratedProject, generate_project
from repro.hardware.device import FPGADevice, get_device
from repro.nn.caffe import model_from_prototxt
from repro.nn.graph import Graph
from repro.nn.network import Network
from repro.optimizer.dp import _flush_context, optimize
from repro.optimizer.graph_dp import GraphStrategy, optimize_graph
from repro.optimizer.strategy import Strategy
from repro.partition.cut import partition_network
from repro.partition.fleet import DeviceFleet, Link
from repro.partition.plan import PartitionPlan
from repro.perf.cost import CostModel, SearchTelemetry
from repro.sim.simulator import SimulationResult, simulate_strategy


@dataclass
class CompileResult:
    """Everything the tool-flow produces for one model.

    ``network`` is the trimmed model that was optimized: a chain
    :class:`Network` with a :class:`Strategy`, or a branching
    :class:`Graph` with a :class:`~repro.optimizer.graph_dp.GraphStrategy`.
    The simulate / serve hooks take either.  ``project`` is the
    generated HLS project, None for graphs (codegen is chain-only).
    """

    network: Union[Network, Graph]
    device: FPGADevice
    strategy: Union[Strategy, GraphStrategy]
    transfer_constraint_bytes: int
    project: Optional[GeneratedProject] = None

    @property
    def telemetry(self) -> Optional[SearchTelemetry]:
        """Search telemetry of the optimize step (``repro compile --stats``)."""
        return self.strategy.telemetry

    def simulate(
        self, data: Optional[np.ndarray] = None, weights=None, seed: int = 0
    ) -> SimulationResult:
        """Run the cycle-approximate simulator on the compiled design.

        ``seed`` controls the generated input *and* the random weights
        (when not supplied), so repeated runs are bit-identical and a
        different seed gives an independent sample.
        """
        rng = np.random.default_rng(seed)
        if data is None:
            data = rng.normal(0, 0.5, self.network.input_spec.shape)
        return simulate_strategy(self.strategy, data, weights, rng=rng)

    def serve(
        self,
        replicas: int = 1,
        policy: str = "least_loaded",
        max_batch: int = 8,
        max_wait_cycles: Optional[float] = None,
        faults=None,
        fault_seed: int = 0,
        retry=None,
        max_queue: Optional[int] = None,
        slo_cycles: Optional[float] = None,
        resilience=None,
        fallback: Optional[Strategy] = None,
        verify: bool = True,
    ) -> "FleetScheduler":
        """Stand up a simulated serving fleet for this compiled design.

        Returns a :class:`repro.serve.FleetScheduler` whose ``run`` /
        ``run_open_loop`` methods serve request traces through
        ``replicas`` copies of the accelerator with dynamic batching.
        Pass ``faults`` (a :class:`repro.faults.FaultSpec` or its CLI
        string form) for deterministic chaos runs — see
        :mod:`repro.faults`.  ``resilience`` attaches the
        :mod:`repro.resilience` control plane; ``fallback`` is a
        lower-resource strategy for its warm-swap rung (see
        :meth:`fallback_strategy`).  ``verify`` re-runs the strategy
        invariant validators at admission (see :mod:`repro.check`).
        """
        from repro.serve.scheduler import FleetScheduler

        return FleetScheduler.for_strategy(
            self.strategy,
            replicas=replicas,
            policy=policy,
            max_batch=max_batch,
            max_wait_cycles=max_wait_cycles,
            faults=faults,
            fault_seed=fault_seed,
            retry=retry,
            max_queue=max_queue,
            slo_cycles=slo_cycles,
            resilience=resilience,
            fallback=fallback,
            verify=verify,
        )

    def fallback_strategy(self) -> Strategy:
        """A lower-resource fallback pre-compiled for the ladder's swap rung.

        Re-optimizes the same network on the same device restricted to
        the conventional algorithm everywhere — uniformly cheaper in DSP
        demand than the heterogeneous optimum, with the same transfer
        constraint the primary compile used — so the control plane can
        warm-swap to it when the primary degrades.

        Raises:
            OptimizationError: For a graph compile (the fallback rung
                is chain-only), or when no conventional-only design
                meets the transfer constraint.
        """
        from repro.baselines.homogeneous import homogeneous_optimize
        from repro.perf.implement import Algorithm

        if isinstance(self.network, Graph):
            raise OptimizationError(
                "the fallback strategy is chain-only; a graph compile has "
                "no warm-swap rung"
            )
        return homogeneous_optimize(
            self.network, self.device, self.transfer_constraint_bytes,
            Algorithm.CONVENTIONAL,
        )

    def summary(self) -> str:
        lines = [
            f"tool-flow result for {self.network.name!r} on {self.device.name}",
            self.strategy.report(),
        ]
        if self.project is not None:
            lines.append(
                f"generated sources: {', '.join(self.project.source_names())}"
            )
        return "\n".join(lines)


def _resolve_model(
    model: Union[str, Path, Network, Graph]
) -> Union[Network, Graph]:
    """Resolve the model input to a Network (linear) or Graph (branching).

    Prototxt sources go through :func:`repro.nn.caffe.model_from_prototxt`,
    which returns a plain :class:`Network` whenever the topology is a
    chain — so existing chain flows are untouched — and a
    :class:`Graph` only for genuinely branching models.
    """
    if isinstance(model, (Network, Graph)):
        return model
    if isinstance(model, str) and "\n" in model:
        # Multi-line string: prototxt text, not a path.
        return model_from_prototxt(model)
    path = Path(model)
    if path.exists():
        return model_from_prototxt(path.read_text())
    if isinstance(model, str) and "layer" in model:
        return model_from_prototxt(model)
    raise OptimizationError(f"cannot interpret model input {str(model)[:80]!r}")


def _accelerated_model(
    model: Union[str, Path, Network, Graph]
) -> Union[Network, Graph]:
    """Resolve ``model`` and trim the host-side FC/softmax tail."""
    resolved = _resolve_model(model)
    trimmed = (
        resolved.accelerated_subgraph()
        if isinstance(resolved, Graph)
        else resolved.accelerated_prefix()
    )
    if len(trimmed) == 0:
        raise OptimizationError("no accelerator-eligible layers in the model")
    return trimmed


def compile_model(
    model: Union[str, Path, Network, Graph],
    device: Union[str, FPGADevice] = "zc706",
    transfer_constraint_bytes: Optional[int] = None,
    output_dir: Optional[Path] = None,
    weights: Optional[dict] = None,
    context: Optional[CostModel] = None,
    verify: bool = True,
) -> CompileResult:
    """Map a Caffe model (or Network / Graph) onto an FPGA.

    Args:
        model: Prototxt path, prototxt text, or an in-memory Network or
            Graph.
            Trailing FC/softmax layers run host-side, as in the paper,
            and are trimmed before optimizing.
        device: Device catalog name or an FPGADevice.
        transfer_constraint_bytes: The paper's T; defaults to the
            unfused feature-map traffic (i.e. effectively unconstrained).
        output_dir: If given, the HLS project is written there.
        weights: Optional trained parameters; when given the project
            includes quantized weight headers (Winograd kernels
            pre-transformed).
        context: Shared :class:`~repro.perf.cost.EvalContext` to reuse
            cost evaluations across compiles (e.g. device sweeps).  One
            built with a persistent ``store`` (CLI ``--cache``) warms
            the search from it and is flushed to it; the strategy is
            bit-identical with or without it.
        verify: Run the :func:`repro.check.verify_strategy` invariant
            validators on the optimized strategy before code generation
            (CLI ``--no-verify`` disables; the verified path's output is
            bit-identical to the unverified one).

    Returns:
        The strategy, the generated HLS project, and simulation hooks.
        Search telemetry is available as ``result.telemetry``.

    Raises:
        VerificationError: When ``verify`` is set and the optimizer
            produced a strategy violating its own invariants.

    A branching (DAG) model — a :class:`Graph` or a prototxt with
    fork–join structure — is optimized natively by
    :func:`repro.optimizer.graph_dp.optimize_graph` into a
    :class:`~repro.optimizer.graph_dp.GraphStrategy`, with no HLS
    project: codegen is chain-only, so ``output_dir`` / ``weights`` are
    rejected for graphs.
    """
    network = _accelerated_model(model)
    is_graph = isinstance(network, Graph)
    if is_graph and (output_dir is not None or weights is not None):
        raise OptimizationError(
            "HLS code generation is chain-only; compile a branching "
            "graph without output_dir/weights (see docs/ir.md)"
        )
    target = get_device(device) if isinstance(device, str) else device
    if transfer_constraint_bytes is None:
        transfer_constraint_bytes = network.feature_map_bytes(target.element_bytes)
    strategy = (optimize_graph if is_graph else optimize)(
        network, target, transfer_constraint_bytes, context=context
    )
    if verify:
        from repro.check.invariants import verify_strategy

        verify_strategy(
            strategy, transfer_constraint_bytes=transfer_constraint_bytes
        ).raise_if_failed()
    return CompileResult(
        network=network,
        device=target,
        strategy=strategy,
        transfer_constraint_bytes=transfer_constraint_bytes,
        project=None if is_graph else generate_project(
            strategy, output_dir=output_dir, weights=weights
        ),
    )


def partition_model(
    model: Union[str, Path, Network, Graph],
    devices: Union[str, Sequence, DeviceFleet] = "zc706,zc706",
    link: Optional[Link] = None,
    transfer_constraint_bytes: Optional[int] = None,
    context: Optional[CostModel] = None,
    verify: bool = True,
) -> PartitionPlan:
    """Split a model across a fleet of FPGAs for pipelined execution.

    The multi-device sibling of :func:`compile_model`: the same model
    resolution and accelerated-prefix trimming, but the optimization
    axis gains device boundaries — the cut-point DP of
    :mod:`repro.partition.cut` places each contiguous unit range on one
    fleet device, pricing every candidate stage with the single-device
    DP through a shared evaluation context.  A chain's units are its
    layers; a branching (DAG) model's are its top-level nodes and whole
    fork–join blocks, so stages cut only on DAG edges and each stage
    carries a :class:`~repro.optimizer.graph_dp.GraphStrategy`.

    Args:
        model: Prototxt path, prototxt text, or an in-memory Network or
            Graph.
        devices: Fleet spec — ``"zc706,zcu102"``, a sequence of catalog
            names / :class:`FPGADevice` objects, or a ready
            :class:`~repro.partition.fleet.DeviceFleet`.
        link: Link used between every adjacent device pair when
            ``devices`` is not already a fleet (default: the 2 GB/s
            board-to-board link).
        transfer_constraint_bytes: Optional per-stage DRAM feature-map
            budget (each board gets the paper's T separately).
        context / verify: As in :func:`compile_model`
            (``verify`` runs :func:`repro.check.verify_plan` on the
            finished plan).

    Returns:
        A :class:`~repro.partition.plan.PartitionPlan` with one
        single-device strategy per stage and ``simulate()`` /
        ``serve()`` / ``save()`` hooks.  A 1-device fleet
        returns a plan whose stage strategy is exactly the single-device
        optimum.
    """
    network = _accelerated_model(model)
    if isinstance(devices, DeviceFleet):
        fleet = devices
    else:
        fleet = DeviceFleet.from_spec(devices, link=link)
    plan = partition_network(
        network,
        fleet,
        transfer_constraint_bytes=transfer_constraint_bytes,
        context=context,
    )
    _flush_context(context)
    if verify:
        from repro.check.invariants import verify_plan

        verify_plan(plan).raise_if_failed()
    return plan


def sweep_grid(
    spec,
    out_dir,
    store=None,
    workers: Optional[int] = None,
    resume: bool = False,
    log=None,
    faults=None,
    fault_seed: int = 0,
    point_timeout_s: Optional[float] = None,
    max_retries: int = 2,
):
    """Run a declarative design-space sweep (see :mod:`repro.dse`).

    The batch sibling of :func:`compile_model` / :func:`partition_model`:
    ``spec`` (a :class:`repro.dse.GridSpec`, a spec dict, or a JSON spec
    file path) expands into compile/partition points.  The points that
    share a model, device, bandwidth factor and fleet size form one job,
    run in sequence on one search context; jobs fan out over ``workers``
    processes, each warming from and flushing to the shared persistent
    cost ``store``.  Per-point results are journaled into ``out_dir`` as
    they land, so an interrupted sweep finishes with ``resume=True``
    without recomputing (CLI ``repro sweep-grid``).  Workers are
    supervised: a killed or hung worker's job is requeued
    (``max_retries`` times, per-job hang budget ``point_timeout_s``),
    and ``faults`` injects deterministic
    process/filesystem failures for torture runs
    (:class:`repro.faults.ProcessFaultSpec` grammar, seeded by
    ``fault_seed``).  Returns a :class:`repro.dse.SweepResult`.
    """
    from repro.dse.grid import GridSpec
    from repro.dse.sweep import sweep_grid as _sweep

    if isinstance(spec, dict):
        spec = GridSpec.from_dict(spec)
    elif isinstance(spec, (str, Path)):
        spec = GridSpec.from_file(spec)
    return _sweep(
        spec,
        out_dir,
        store=store,
        workers=workers,
        resume=resume,
        log=log,
        faults=faults,
        fault_seed=fault_seed,
        point_timeout_s=point_timeout_s,
        max_retries=max_retries,
    )


def plan_capacity(demands, **kwargs):
    """Size a shared multi-tenant fleet against per-model SLOs.

    The serving-capacity sibling of :func:`sweep_grid`: each
    :class:`repro.capacity.TenantDemand` pairs a model with its traffic
    (a :mod:`repro.traffic` arrival spec) and SLOs, and the planner
    searches device x replicas x batching x scheduler weights for the
    cheapest feasible fleet (board cost, then energy), compiling every
    model through one shared evaluation context.  Keyword arguments are
    forwarded to :func:`repro.capacity.plan_capacity`; returns the
    chosen :class:`repro.capacity.CapacityPlan` (CLI
    ``repro plan-capacity``).
    """
    from repro.capacity import plan_capacity as _plan

    return _plan(demands, **kwargs)
