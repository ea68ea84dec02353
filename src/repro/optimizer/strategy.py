"""Strategy intermediate representation (paper Definition 1).

"For layer i, its implementation strategy is a triple C_i = <g_i, algo_i,
p_i> ... a strategy for an N-layer network is defined as a set
S = {C_i | 1 <= i <= N}".  A :class:`Strategy` bundles those triples with
the evaluated :class:`~repro.perf.group.GroupDesign` of every fusion
group, giving total latency, transfer and per-group resource usage.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.errors import OptimizationError, ResourceError
from repro.hardware.device import FPGADevice
from repro.hardware.resources import ResourceVector
from repro.nn.layers import ConvLayer
from repro.nn.network import Network
from repro.perf.cost import SearchTelemetry
from repro.perf.group import GroupDesign
from repro.perf.implement import Algorithm


@dataclass(frozen=True)
class LayerChoice:
    """The paper's C_i triple for one layer."""

    layer_name: str
    group_id: int
    algorithm: Algorithm
    parallelism: int


class Strategy:
    """A complete fusion + algorithm + parallelism assignment.

    Groups execute sequentially on the device, so each group must fit the
    device's resources on its own; latencies add and DRAM traffic adds.
    """

    def __init__(
        self,
        network: Network,
        device: FPGADevice,
        boundaries: Sequence[Tuple[int, int]],
        designs: Sequence[GroupDesign],
        telemetry: Optional[SearchTelemetry] = None,
    ):
        if len(boundaries) != len(designs):
            raise OptimizationError("one design required per group")
        if not boundaries:
            raise OptimizationError("a strategy needs at least one group")
        expected = 0
        for (start, stop), design in zip(boundaries, designs):
            if start != expected:
                raise OptimizationError(
                    f"groups must tile the network contiguously; got start "
                    f"{start}, expected {expected}"
                )
            if stop - start != len(design.implementations):
                raise OptimizationError(
                    f"group [{start}:{stop}] has {stop - start} layers but "
                    f"{len(design.implementations)} implementations"
                )
            expected = stop
        if expected != len(network):
            raise OptimizationError(
                f"groups cover {expected} layers, network has {len(network)}"
            )
        self.network = network
        self.device = device
        self.boundaries = list(boundaries)
        self.designs = list(designs)
        #: Telemetry of the search that produced this strategy (None for
        #: hand-assembled strategies); see
        #: :class:`repro.perf.cost.SearchTelemetry`.
        self.telemetry = telemetry

    # -- aggregate metrics ----------------------------------------------------

    @property
    def latency_cycles(self) -> int:
        """End-to-end latency: fusion groups run back-to-back."""
        return sum(design.latency_cycles for design in self.designs)

    def latency_seconds(self) -> float:
        return self.device.cycles_to_seconds(self.latency_cycles)

    @property
    def feature_transfer_bytes(self) -> int:
        """Total DRAM feature-map traffic (bounded by the paper's T)."""
        return sum(design.feature_transfer_bytes for design in self.designs)

    @property
    def weight_transfer_bytes(self) -> int:
        return sum(design.weight_transfer_bytes for design in self.designs)

    @property
    def total_ops(self) -> int:
        return sum(design.ops for design in self.designs)

    def effective_gops(self) -> float:
        """The paper's "effective performance": total ops / total latency."""
        seconds = self.latency_seconds()
        return self.total_ops / seconds / 1e9 if seconds > 0 else 0.0

    @property
    def peak_resources(self) -> ResourceVector:
        """Element-wise max over groups (what the device must provide)."""
        peak = ResourceVector()
        for design in self.designs:
            peak = ResourceVector(
                bram18k=max(peak.bram18k, design.resources.bram18k),
                dsp=max(peak.dsp, design.resources.dsp),
                ff=max(peak.ff, design.resources.ff),
                lut=max(peak.lut, design.resources.lut),
            )
        return peak

    def node_names(self) -> List[str]:
        """Every layer this strategy covers, in execution order."""
        return [info.name for info in self.network]

    def choices(self) -> List[LayerChoice]:
        """The per-layer C_i triples."""
        result: List[LayerChoice] = []
        for group_id, design in enumerate(self.designs):
            for impl in design.implementations:
                result.append(
                    LayerChoice(
                        layer_name=impl.layer_name,
                        group_id=group_id,
                        algorithm=impl.algorithm,
                        parallelism=impl.parallelism,
                    )
                )
        return result

    def validate(self, transfer_constraint_bytes: int = None) -> None:
        """Check device fit per group and the optional transfer bound.

        Raises:
            ResourceError: If any group exceeds the device resources.
            OptimizationError: If the transfer constraint is violated.
        """
        for (start, stop), design in zip(self.boundaries, self.designs):
            if not design.resources.fits(self.device.resources):
                raise ResourceError(
                    f"group [{start}:{stop}] needs {design.resources}, device "
                    f"{self.device.name} provides {self.device.resources}"
                )
            conv_depth = sum(
                1
                for i in range(start, stop)
                if isinstance(self.network[i].layer, ConvLayer)
            )
            if conv_depth > self.device.max_fusion_depth:
                raise ResourceError(
                    f"group [{start}:{stop}] has {conv_depth} conv engines, "
                    f"max fusion depth is {self.device.max_fusion_depth}"
                )
        if (
            transfer_constraint_bytes is not None
            and self.feature_transfer_bytes > transfer_constraint_bytes
        ):
            raise OptimizationError(
                f"strategy transfers {self.feature_transfer_bytes} feature-map "
                f"bytes, constraint is {transfer_constraint_bytes}"
            )

    def breakdown(self) -> List[dict]:
        """Per-group latency decomposition.

        Each entry reports where the group's cycles go: the compute
        bottleneck, the shared DRAM transfer, and the pipeline fill —
        with the binding term named.  Useful for understanding *why* the
        optimizer chose a structure (compute-bound groups want Winograd
        and DSPs; bandwidth-bound ones want fusion and resident weights).
        """
        result = []
        for (start, stop), design in zip(self.boundaries, self.designs):
            latency = max(design.latency_cycles, 1)
            result.append(
                {
                    "range": (start, stop),
                    "latency_cycles": design.latency_cycles,
                    "compute_cycles": design.compute_cycles,
                    "transfer_cycles": design.transfer_cycles,
                    "fill_cycles": design.fill_cycles,
                    "bottleneck": design.bottleneck,
                    "fill_share": design.fill_cycles / latency,
                }
            )
        return result

    def report(self) -> str:
        """Table 2-style per-layer report."""
        lines = [
            f"Strategy for {self.network.name} on {self.device.name}: "
            f"{len(self.designs)} fusion group(s), "
            f"latency {self.latency_cycles:,} cycles "
            f"({self.latency_seconds() * 1e3:.2f} ms), "
            f"{self.effective_gops():.1f} effective GOPS"
        ]
        header = (
            f"{'layer':<12} {'grp':>3} {'algorithm':<12} {'par':>5} "
            f"{'BRAM':>6} {'DSP':>5} {'FF':>8} {'LUT':>8} {'Mcycles':>8}"
        )
        lines.append(header)
        lines.append("-" * len(header))
        for group_id, design in enumerate(self.designs):
            for impl in design.implementations:
                r = impl.resources
                lines.append(
                    f"{impl.layer_name:<12} {group_id:>3} "
                    f"{impl.algorithm.value:<12} {impl.parallelism:>5} "
                    f"{r.bram18k:>6} {r.dsp:>5} {r.ff:>8} {r.lut:>8} "
                    f"{impl.compute_cycles / 1e6:>8.2f}"
                )
        peak = self.peak_resources
        util = peak.utilization(self.device.resources)
        lines.append("-" * len(header))
        lines.append(
            f"{'peak':<12} {'':>3} {'':<12} {'':>5} {peak.bram18k:>6} "
            f"{peak.dsp:>5} {peak.ff:>8} {peak.lut:>8}"
        )
        lines.append(
            "utilization  "
            + "  ".join(f"{k}={v * 100:.1f}%" for k, v in util.items())
        )
        lines.append(
            f"feature-map transfer: {self.feature_transfer_bytes / 2**20:.2f} MB, "
            f"weight transfer: {self.weight_transfer_bytes / 2**20:.2f} MB"
        )
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"Strategy(groups={len(self.designs)}, "
            f"latency={self.latency_cycles}, "
            f"transfer={self.feature_transfer_bytes})"
        )
