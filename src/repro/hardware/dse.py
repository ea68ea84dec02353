"""Device design-space exploration: sensitivity sweeps.

The roofline motivation (Figure 1) says the interesting constraint
surface is (compute resources x off-chip bandwidth).  This module sweeps
scaled variants of a device through the full optimizer and reports how
the optimal strategy responds — which direction the design is actually
starved in, and where extra bandwidth stops paying (the point fusion is
engineered to move).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Sequence

from repro.errors import OptimizationError
from repro.hardware.device import FPGADevice
from repro.hardware.resources import ResourceVector
from repro.nn.network import Network
from repro.optimizer.dp import optimize
from repro.optimizer.strategy import Strategy
from repro.perf.cost import EvalContext
from repro.perf.implement import Algorithm


@dataclass(frozen=True)
class SweepPoint:
    """One device variant and the optimal strategy found on it."""

    label: str
    device: FPGADevice
    strategy: Strategy

    @property
    def latency_cycles(self) -> int:
        return self.strategy.latency_cycles

    @property
    def effective_gops(self) -> float:
        return self.strategy.effective_gops()

    @property
    def winograd_layers(self) -> int:
        return sum(
            1
            for choice in self.strategy.choices()
            if choice.algorithm == Algorithm.WINOGRAD
        )


def scale_bandwidth(device: FPGADevice, factor: float) -> FPGADevice:
    """Device variant with scaled off-chip bandwidth."""
    if factor <= 0:
        raise OptimizationError("bandwidth factor must be positive")
    return replace(
        device,
        name=f"{device.name}_bw{factor:g}x",
        bandwidth_bytes_per_s=device.bandwidth_bytes_per_s * factor,
    )


def scale_fabric(device: FPGADevice, factor: float) -> FPGADevice:
    """Device variant with scaled fabric resources (all four dimensions)."""
    if factor <= 0:
        raise OptimizationError("fabric factor must be positive")
    r = device.resources
    return replace(
        device,
        name=f"{device.name}_fab{factor:g}x",
        resources=ResourceVector(
            bram18k=max(1, int(r.bram18k * factor)),
            dsp=max(1, int(r.dsp * factor)),
            ff=max(1, int(r.ff * factor)),
            lut=max(1, int(r.lut * factor)),
        ),
    )


def bandwidth_sweep(
    network: Network,
    device: FPGADevice,
    transfer_constraint_bytes: int,
    factors: Sequence[float] = (0.5, 1.0, 2.0, 4.0),
) -> List[SweepPoint]:
    """Optimal strategies across bandwidth-scaled device variants."""
    # One signature-keyed context serves every variant: bandwidth does
    # not change engine design points, only which ones the search picks,
    # so later sweep points run almost entirely from cache.
    context = EvalContext()
    points = []
    for factor in factors:
        variant = scale_bandwidth(device, factor)
        strategy = optimize(
            network, variant, transfer_constraint_bytes, context=context
        )
        points.append(
            SweepPoint(label=f"{factor:g}x BW", device=variant, strategy=strategy)
        )
    return points


def fabric_sweep(
    network: Network,
    device: FPGADevice,
    transfer_constraint_bytes: int,
    factors: Sequence[float] = (0.5, 1.0, 2.0),
) -> List[SweepPoint]:
    """Optimal strategies across fabric-scaled device variants."""
    context = EvalContext()
    points = []
    for factor in factors:
        variant = scale_fabric(device, factor)
        strategy = optimize(
            network, variant, transfer_constraint_bytes, context=context
        )
        points.append(
            SweepPoint(label=f"{factor:g}x fabric", device=variant, strategy=strategy)
        )
    return points


def binding_resource(point: SweepPoint) -> str:
    """Which resource dimension is tightest for the strategy's peak usage."""
    utilization = point.strategy.peak_resources.utilization(
        point.device.resources
    )
    return max(utilization, key=utilization.get)
