"""Device variants for design-space exploration.

The roofline motivation (Figure 1) says the interesting constraint
surface is (compute resources x off-chip bandwidth).  These functions
build scaled variants of a device; sweeping them through the optimizer
(``repro sweep-grid``'s ``bandwidth_factors`` axis, or ``optimize`` on
one shared context as ``examples/device_exploration.py`` does) shows
which direction a design is actually starved in, and where extra
bandwidth stops paying (the point fusion is engineered to move).
"""

from __future__ import annotations

from dataclasses import replace

from repro.errors import OptimizationError
from repro.hardware.device import FPGADevice
from repro.hardware.resources import ResourceVector


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
