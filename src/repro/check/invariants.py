"""Invariant validators: structured verification of in-memory artifacts.

The optimizer, cost model, simulator and partition layers must stay
mutually consistent — a strategy's recorded cycle accounting has to
agree with what :func:`~repro.perf.group.compose_group` computes from
its own implementations, every group has to fit the device it claims to
target, and a partition plan's bottleneck math has to follow from its
stages.  These invariants hold by construction for artifacts the search
itself produces; they stop holding when an artifact is deserialized
from a stale file, hand-assembled, or migrated across library versions.

Each validator returns a :class:`VerificationReport` listing every
violation (code, location, message) rather than stopping at the first,
so ``repro check`` can print a complete diagnosis;
``report.raise_if_failed()`` converts a failed report into a
:class:`~repro.errors.VerificationError` for admission-time use.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.errors import AlgorithmError, VerificationError
from repro.perf.group import compose_group
from repro.perf.implement import implement

# Violation codes (documented in docs/validation.md).
V_TILING = "V_TILING"  # groups/stages do not tile the network
V_RESOURCES = "V_RESOURCES"  # a group exceeds the device vector
V_FUSION_DEPTH = "V_FUSION_DEPTH"  # too many conv engines in one group
V_TRANSFER = "V_TRANSFER"  # feature-map traffic exceeds the budget
V_CYCLES = "V_CYCLES"  # cycle accounting is internally inconsistent
V_ALGORITHM = "V_ALGORITHM"  # an engine choice is infeasible for its layer
V_COST_DRIFT = "V_COST_DRIFT"  # recorded cost != re-evaluated cost
V_LINKS = "V_LINKS"  # plan transfers disagree with the fleet links
V_BOTTLENECK = "V_BOTTLENECK"  # pipeline bottleneck math is wrong
V_DEVICE = "V_DEVICE"  # stage bound to the wrong fleet device
V_FLEET = "V_FLEET"  # fleet configuration is unserviceable
V_BRANCH = "V_BRANCH"  # graph strategy branch coverage is broken
V_JOIN = "V_JOIN"  # join transfer/latency accounting is wrong

#: What a fused fork-join block records beyond its engines; each must
#: equal what the engines compose to.
_FUSED_TOTALS = (
    "join_kind", "resources", "compute_cycles", "transfer_cycles",
    "fill_cycles", "latency_cycles", "feature_transfer_bytes",
    "weight_transfer_bytes", "ops",
)


@dataclass(frozen=True)
class Violation:
    """One broken invariant: a stable code, where, and why."""

    code: str
    where: str
    message: str

    def __str__(self) -> str:
        return f"[{self.code}] {self.where}: {self.message}"


class VerificationReport:
    """Outcome of one validator run over one artifact."""

    def __init__(self, subject: str, violations: Optional[List[Violation]] = None):
        self.subject = subject
        self.violations: List[Violation] = list(violations or [])

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, code: str, where: str, message: str) -> None:
        self.violations.append(Violation(code, where, message))

    def extend(self, other: "VerificationReport", prefix: str) -> None:
        """Fold another report's violations in under a location prefix."""
        for violation in other.violations:
            self.violations.append(
                Violation(
                    violation.code,
                    f"{prefix}.{violation.where}",
                    violation.message,
                )
            )

    def summary(self) -> str:
        if self.ok:
            return f"{self.subject}: ok"
        lines = [
            f"{self.subject}: {len(self.violations)} violation(s)"
        ]
        lines.extend(f"  {violation}" for violation in self.violations)
        return "\n".join(lines)

    def raise_if_failed(self) -> "VerificationReport":
        """Raise :class:`VerificationError` when any violation exists."""
        if not self.ok:
            raise VerificationError(self.summary())
        return self

    def __repr__(self) -> str:
        state = "ok" if self.ok else f"{len(self.violations)} violations"
        return f"VerificationReport({self.subject!r}, {state})"


# -- strategy ---------------------------------------------------------------


def verify_strategy(
    strategy,
    transfer_constraint_bytes: Optional[int] = None,
    check_cost_model: bool = True,
) -> VerificationReport:
    """Validate a :class:`~repro.optimizer.strategy.Strategy` end to end.

    Checks, in order: group tiling, per-group device fit (resources and
    fusion depth), the transfer budget, internal cycle accounting
    (group latency = max(compute, transfer) + fill, strategy totals =
    group sums), per-layer algorithm feasibility, and — with
    ``check_cost_model`` — that re-evaluating every recorded engine
    through :func:`~repro.perf.implement.implement` reproduces the
    recorded compute cycles (cost-model drift).

    A :class:`~repro.optimizer.graph_dp.GraphStrategy` is validated by
    :func:`verify_graph_strategy` instead.
    """
    from repro.optimizer.branch_and_bound import conv_depth
    from repro.optimizer.graph_dp import GraphStrategy

    if isinstance(strategy, GraphStrategy):
        return verify_graph_strategy(
            strategy, transfer_constraint_bytes, check_cost_model
        )
    report = VerificationReport(
        f"strategy[{strategy.network.name} on {strategy.device.name}]"
    )
    device = strategy.device
    network = strategy.network

    # Tiling: contiguous cover of the network.
    expected = 0
    for index, ((start, stop), design) in enumerate(
        zip(strategy.boundaries, strategy.designs)
    ):
        where = f"groups[{index}]"
        if start != expected:
            report.add(
                V_TILING, where,
                f"starts at layer {start}, expected {expected}",
            )
        if stop - start != len(design.implementations):
            report.add(
                V_TILING, where,
                f"covers {stop - start} layers but carries "
                f"{len(design.implementations)} implementations",
            )
        expected = stop
    if expected != len(network):
        report.add(
            V_TILING, "groups",
            f"cover {expected} layers, network has {len(network)}",
        )

    for index, ((start, stop), design) in enumerate(
        zip(strategy.boundaries, strategy.designs)
    ):
        where = f"groups[{index}]"
        # Device fit.
        if not design.resources.fits(device.resources):
            report.add(
                V_RESOURCES, where,
                f"needs {design.resources}, device {device.name} provides "
                f"{device.resources}",
            )
        depth = conv_depth(network, start, min(stop, len(network)))
        if depth > device.max_fusion_depth:
            report.add(
                V_FUSION_DEPTH, where,
                f"{depth} conv engines exceed max fusion depth "
                f"{device.max_fusion_depth}",
            )
        # Cycle accounting: the recorded group design must equal what
        # compose_group derives from its own implementations.
        try:
            recomposed = compose_group(design.implementations, device)
        except Exception as exc:  # compose itself rejects the group
            report.add(V_CYCLES, where, f"group does not compose: {exc}")
            continue
        _check_totals(
            report, V_CYCLES, where, design, recomposed,
            ("latency_cycles", "feature_transfer_bytes", "resources"),
        )
        # Per-layer algorithm feasibility (and optional cost re-check).
        _check_engines(
            report, where, network.infos[start:stop],
            design.implementations, device, check_cost_model,
        )

    # Budget.
    if (
        transfer_constraint_bytes is not None
        and strategy.feature_transfer_bytes > transfer_constraint_bytes
    ):
        report.add(
            V_TRANSFER, "feature_transfer_bytes",
            f"{strategy.feature_transfer_bytes} bytes exceed the "
            f"{transfer_constraint_bytes}-byte constraint",
        )
    return report


def _check_totals(report, code, where, recorded, fresh, names) -> None:
    """One violation per named field where ``recorded`` and ``fresh``
    (what its parts recompose to) disagree."""
    for name in names:
        if getattr(recorded, name) != getattr(fresh, name):
            report.add(
                code, where,
                f"records {name} {getattr(recorded, name)}, its parts "
                f"give {getattr(fresh, name)}",
            )


def _check_engines(report, where, infos, impls, device, check_cost_model):
    """Per-engine checks of one group: each engine runs the layer at its
    position, is feasible for it, and (with ``check_cost_model``)
    re-evaluates to its recorded compute cycles."""
    from repro.perf.record import query_of

    for offset, (info, impl) in enumerate(zip(infos, impls)):
        layer_where = f"{where}.layers[{offset}]"
        if info.name != impl.layer_name:
            report.add(
                V_ALGORITHM, layer_where,
                f"implements {impl.layer_name!r} but the layer at its "
                f"position is {info.name!r}",
            )
            continue
        if not check_cost_model:
            continue
        algorithm, weight_mode, m, parallelism = query_of(impl)
        try:
            fresh = implement(
                info, algorithm, parallelism, device,
                weight_mode=weight_mode, winograd_m=m,
            )
        except AlgorithmError as exc:
            report.add(
                V_ALGORITHM, layer_where,
                f"{impl.algorithm.value} x{impl.parallelism} is "
                f"infeasible for layer {info.name!r}: {exc}",
            )
            continue
        if fresh.compute_cycles != impl.compute_cycles:
            report.add(
                V_COST_DRIFT, layer_where,
                f"recorded {impl.compute_cycles} compute cycles, cost "
                f"model now says {fresh.compute_cycles} — the artifact "
                "predates a cost-model change",
            )


# -- graph strategy ----------------------------------------------------------


def verify_graph_strategy(
    strategy,
    transfer_constraint_bytes: Optional[int] = None,
    check_cost_model: bool = True,
) -> VerificationReport:
    """Validate a branch-aware :class:`~repro.optimizer.graph_dp.GraphStrategy`.

    Chain segments and split branches are verified recursively (a chain
    segment by :func:`verify_strategy` against its own sub-network);
    on top, this checks the DAG-specific invariants:

    * **V_BRANCH** — the segments' nodes must cover every graph node
      exactly once: no branch dropped, none double-executed.
    * **V_JOIN** — a split block's join is priced as
      :func:`~repro.optimizer.graph_dp.join_cost` prices it: a concat is
      free (channel-major layout makes it address aliasing), an eltwise
      join pays one DRAM round trip over its inputs and output.
    * A fused fork-join block must fit the device; every branch engine
      gets the chain groups' per-engine checks, and recomposing the
      engines through :func:`~repro.optimizer.graph_dp.fuse_branches`
      (the search's own composition) must reproduce every recorded
      block total (**V_CYCLES**).
    """
    from repro.optimizer.graph_dp import (
        ChainSegment,
        FusedParallelSegment,
        ParallelSegment,
        chain_network,
        fuse_branches,
        join_cost,
    )

    graph = strategy.graph
    device = strategy.device
    report = VerificationReport(
        f"graph-strategy[{graph.name} on {device.name}]"
    )

    # Branch coverage: every node exactly once.
    covered = strategy.node_names()
    expected = [info.name for info in graph.infos]
    missing = sorted(set(expected) - set(covered))
    extra = sorted(set(covered) - set(expected))
    duplicated = sorted({name for name in covered if covered.count(name) > 1})
    for names, problem in (
        (missing, "never executed"),
        (extra, "outside the graph"),
        (duplicated, "executed more than once"),
    ):
        if names:
            report.add(
                V_BRANCH, "segments", f"nodes {problem}: {', '.join(names)}"
            )

    def check_fused(where: str, segment) -> None:
        if not segment.resources.fits(device.resources):
            report.add(
                V_RESOURCES, where,
                f"fused block needs {segment.resources}, device "
                f"{device.name} provides {device.resources}",
            )
        designs = []
        for b, (nodes, impls) in enumerate(
            zip(segment.branch_nodes, segment.branch_implementations)
        ):
            if len(nodes) != len(impls):
                report.add(
                    V_TILING, f"{where}.branches[{b}]",
                    f"covers {len(nodes)} layers but carries "
                    f"{len(impls)} implementations",
                )
                return
            if nodes:
                _check_engines(
                    report, f"{where}.branches[{b}]",
                    chain_network(graph, nodes).infos, impls, device,
                    check_cost_model,
                )
            designs.append(compose_group(impls, device) if nodes else None)
        _check_totals(
            report, V_CYCLES, where, segment,
            fuse_branches(
                graph, segment.fork, segment.join, segment.branch_nodes,
                designs, device,
            ),
            _FUSED_TOTALS,
        )

    for index, segment in enumerate(strategy.segments):
        where = f"segments[{index}]"
        if isinstance(segment, ChainSegment):
            report.extend(
                verify_strategy(
                    segment.strategy, check_cost_model=check_cost_model
                ),
                where,
            )
        elif isinstance(segment, ParallelSegment):
            recorded = (
                segment.join_kind,
                segment.join_transfer_bytes,
                segment.join_latency_cycles,
            )
            priced = join_cost(graph, segment.join, device)[:3]
            if recorded != priced:
                report.add(
                    V_JOIN, where,
                    f"join {segment.join!r} records (kind, bytes, cycles) "
                    f"{recorded}, its layer prices {priced}",
                )
            for b, branch in enumerate(segment.branches):
                if branch.segments:  # an identity skip has nothing to check
                    report.extend(
                        verify_graph_strategy(
                            branch, check_cost_model=check_cost_model
                        ),
                        f"{where}.branches[{b}]",
                    )
        elif isinstance(segment, FusedParallelSegment):
            check_fused(where, segment)
        else:
            report.add(
                V_BRANCH, where,
                f"unknown segment kind {type(segment).__name__}",
            )

    if (
        transfer_constraint_bytes is not None
        and strategy.feature_transfer_bytes > transfer_constraint_bytes
    ):
        report.add(
            V_TRANSFER, "feature_transfer_bytes",
            f"{strategy.feature_transfer_bytes} bytes exceed the "
            f"{transfer_constraint_bytes}-byte constraint",
        )
    return report


# -- partition plan ----------------------------------------------------------


def verify_plan(plan, check_cost_model: bool = True) -> VerificationReport:
    """Validate a :class:`~repro.partition.plan.PartitionPlan`.

    Checks stage coverage and ordering over the model's units,
    stage-to-device binding, link consistency (one transfer per cut,
    wired to the right fleet link, carrying the actual cut tensor — the
    output of the unit before the cut, a block's join on a DAG),
    per-stage strategy validity (via :func:`verify_strategy` on each
    stage, against its own device), and the pipeline bottleneck/latency
    math.
    """
    report = VerificationReport(
        f"plan[{plan.network.name} across {plan.fleet.name}]"
    )
    units = plan.units
    fleet = plan.fleet

    expected = 0
    for index, placement in enumerate(plan.placements):
        where = f"stages[{index}]"
        if placement.stage_id != index:
            report.add(
                V_TILING, where,
                f"stage_id {placement.stage_id}, expected {index}",
            )
        if placement.start != expected:
            report.add(
                V_TILING, where,
                f"starts at layer {placement.start}, expected {expected}",
            )
        expected = placement.stop
        if not 0 <= placement.device_index < len(fleet.devices):
            report.add(
                V_DEVICE, where,
                f"device_index {placement.device_index} out of range for a "
                f"{len(fleet.devices)}-device fleet",
            )
        else:
            bound = fleet.devices[placement.device_index]
            if placement.strategy.device is not bound and (
                placement.strategy.device.name != bound.name
            ):
                report.add(
                    V_DEVICE, where,
                    f"stage strategy targets {placement.strategy.device.name}, "
                    f"fleet slot {placement.device_index} is {bound.name}",
                )
        stage_units = units[placement.start:placement.stop]
        stage_layers = sum(len(unit) for unit in stage_units)
        if len(placement.nodes) != stage_layers:
            report.add(
                V_TILING, where,
                f"covers {stage_layers} layers but its strategy covers "
                f"{len(placement.nodes)}",
            )
        report.extend(
            verify_strategy(
                placement.strategy, check_cost_model=check_cost_model
            ),
            where,
        )
    if expected != len(units):
        report.add(
            V_TILING, "stages",
            f"cover {expected} units, the model has {len(units)}",
        )

    # Links: one transfer per adjacent stage pair, carrying the cut tensor.
    if len(plan.transfers) != len(plan.placements) - 1:
        report.add(
            V_LINKS, "transfers",
            f"{len(plan.placements)} stages need "
            f"{len(plan.placements) - 1} transfers, found "
            f"{len(plan.transfers)}",
        )
    for index, transfer in enumerate(plan.transfers):
        where = f"transfers[{index}]"
        if transfer.link_index != index:
            report.add(
                V_LINKS, where,
                f"link_index {transfer.link_index}, expected {index}",
            )
        if not 0 <= transfer.link_index < len(fleet.links):
            report.add(
                V_LINKS, where,
                f"link_index {transfer.link_index} out of range for "
                f"{len(fleet.links)} fleet link(s)",
            )
        elif fleet.links[transfer.link_index] != transfer.link:
            report.add(
                V_LINKS, where,
                "transfer link parameters disagree with the fleet link",
            )
        if index < len(plan.placements) - 1:
            cut = plan.placements[index].stop
            if 0 < cut <= len(units):
                sender = plan.placements[index].strategy.device
                tail = units[cut - 1][-1]
                expected_bytes = tail.output_size * sender.element_bytes
                if transfer.tensor_bytes != expected_bytes:
                    report.add(
                        V_LINKS, where,
                        f"carries {transfer.tensor_bytes} bytes, the cut "
                        f"tensor after {tail.name} is {expected_bytes}",
                    )

    # Bottleneck math.
    spans = [p.latency_seconds for p in plan.placements] + [
        t.seconds for t in plan.transfers
    ]
    if spans:
        bottleneck = max(spans)
        if abs(plan.bottleneck_seconds - bottleneck) > 1e-12:
            report.add(
                V_BOTTLENECK, "bottleneck_seconds",
                f"reports {plan.bottleneck_seconds}, slowest stage/link is "
                f"{bottleneck}",
            )
        total = sum(spans)
        if abs(plan.latency_seconds - total) > 1e-9:
            report.add(
                V_BOTTLENECK, "latency_seconds",
                f"reports {plan.latency_seconds}, stage+transfer sum is "
                f"{total}",
            )
    return report


# -- fleet configuration -----------------------------------------------------


def verify_fleet_config(fleet) -> VerificationReport:
    """Validate a :class:`~repro.partition.fleet.DeviceFleet` is serviceable."""
    report = VerificationReport(f"fleet[{fleet.name}]")
    if not fleet.devices:
        report.add(V_FLEET, "devices", "fleet has no devices")
        return report
    for index, device in enumerate(fleet.devices):
        where = f"devices[{index}]"
        if device.frequency_hz <= 0:
            report.add(V_FLEET, where, "non-positive clock frequency")
        if device.bandwidth_bytes_per_s <= 0:
            report.add(V_FLEET, where, "non-positive DRAM bandwidth")
        r = device.resources
        if min(r.bram18k, r.dsp, r.ff, r.lut) <= 0:
            report.add(
                V_FLEET, where,
                f"device {device.name} has an empty resource dimension "
                f"({r}) — nothing can be placed on it",
            )
        if device.max_fusion_depth < 1:
            report.add(V_FLEET, where, "max_fusion_depth < 1")
    if len(fleet.links) != len(fleet.devices) - 1:
        report.add(
            V_FLEET, "links",
            f"{len(fleet.devices)} devices need {len(fleet.devices) - 1} "
            f"links, found {len(fleet.links)}",
        )
    for index, link in enumerate(fleet.links):
        if link.bandwidth_bytes_per_s <= 0:
            report.add(V_FLEET, f"links[{index}]", "non-positive bandwidth")
        if link.latency_s < 0:
            report.add(V_FLEET, f"links[{index}]", "negative latency")
    return report
