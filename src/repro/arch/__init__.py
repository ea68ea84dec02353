"""Fusion architecture: line buffers and layer pyramids.

Implements Section 4 of the paper: the circular line buffer that feeds
each layer engine (:mod:`repro.arch.line_buffer`) and the pyramid
analysis that determines what a fused group must keep on chip and what
it saves in off-chip traffic (:mod:`repro.arch.fusion`).  The two-level
(intra-layer / inter-layer) pipeline timing is composed by
:func:`repro.perf.group.compose_group` and the row-level simulator.
"""

from repro.arch.line_buffer import CircularLineBuffer, line_buffer_brams, stream_conv2d
from repro.arch.fusion import FusionGroup, group_min_transfer_bytes

__all__ = [
    "CircularLineBuffer",
    "FusionGroup",
    "group_min_transfer_bytes",
    "line_buffer_brams",
    "stream_conv2d",
]
