"""Tests for the recompute-vs-reuse analysis of fused pyramids.

Alwani et al. [MICRO'16] — the paper's baseline [1] — devote "a detailed
discussion ... about whether to reuse or recompute these values": the
pyramids of adjacent output elements overlap, and a fused design either
caches the overlap (reuse buffers / our line buffers) or recomputes it.

The reference analysis below quantifies that choice for any fusion group:

* the per-layer *recompute factor* — how many times each intermediate
  element would be computed if the group kept no reuse state at all
  (sliding pyramids re-derive their whole cone per output row);
* the total extra MACs recomputation costs vs the reuse design;
* the BRAM the reuse buffers need (what recomputation saves).

The circular-line-buffer architecture makes reuse essentially free,
which is the paper's argument for it; the numbers here make the
comparison concrete.
"""

from dataclasses import dataclass
from typing import List

import pytest

from repro.arch.fusion import FusionGroup, layer_window
from repro.arch.line_buffer import line_buffer_brams
from repro.errors import ShapeError
from repro.nn import models
from repro.nn.layers import ConvLayer, InputSpec, PoolLayer
from repro.nn.network import Network


@dataclass(frozen=True)
class LayerRecompute:
    """Recompute economics of one layer inside a fused group.

    Attributes:
        layer_name: The layer.
        rows_needed_per_output_row: Rows of this layer's *output* one
            group-output row depends on (the pyramid level above it).
        stride_rows: Rows of its output newly required per group-output
            row (the pyramid's slide).
        recompute_factor: rows_needed / stride — how many group-output
            rows each of this layer's rows serves, i.e. how many times
            it is recomputed without reuse.
        reuse_macs: MACs to compute each output row once (reuse design).
        recompute_macs: MACs if every pyramid recomputes its full cone.
        reuse_brams: Line-buffer BRAM the reuse design spends here.
    """

    layer_name: str
    rows_needed_per_output_row: int
    stride_rows: int
    recompute_factor: float
    reuse_macs: int
    recompute_macs: int
    reuse_brams: int


def analyze_group(network: Network, start: int, stop: int) -> List[LayerRecompute]:
    """Per-layer recompute economics for fusing layers ``[start, stop)``."""
    group = FusionGroup(network, start, stop)
    levels = group.pyramid()
    if not levels:
        raise ShapeError("empty fusion group")

    results: List[LayerRecompute] = []
    # level l's input_rows_per_group_row is what the layer *below* must
    # produce; the group's own output slides one row at a time.
    for idx, level in enumerate(levels):
        info = level.info
        # Rows of this layer's OUTPUT needed per group output row: the
        # next level's input requirement (or 1 for the last layer).
        if idx + 1 < len(levels):
            rows_needed = levels[idx + 1].input_rows_per_group_row
            slide = 1
            for deeper in levels[idx + 1 :]:
                slide *= deeper.stride_rows
        else:
            rows_needed = 1
            slide = 1
        recompute_factor = rows_needed / max(slide, 1)
        layer = info.layer
        if isinstance(layer, ConvLayer):
            total_macs = layer.macs(info.input_shape)
        else:
            total_macs = info.ops
        out_rows = max(info.output_shape[1], 1)
        macs_per_row = total_macs // out_rows
        window, _stride = layer_window(layer)
        in_c, _, in_w = info.input_shape
        results.append(
            LayerRecompute(
                layer_name=info.name,
                rows_needed_per_output_row=rows_needed,
                stride_rows=slide,
                recompute_factor=recompute_factor,
                reuse_macs=total_macs,
                recompute_macs=int(total_macs * recompute_factor),
                reuse_brams=line_buffer_brams(
                    window + level.stride_rows, in_w, in_c
                ),
            )
        )
    return results


@dataclass(frozen=True)
class GroupRecomputeSummary:
    """Totals over a group's recompute analysis."""

    total_reuse_macs: int
    total_recompute_macs: int
    total_reuse_brams: int

    @property
    def recompute_overhead(self) -> float:
        """Extra work factor of the no-reuse design (>= 1)."""
        if self.total_reuse_macs == 0:
            return 1.0
        return self.total_recompute_macs / self.total_reuse_macs


def summarize(layers: List[LayerRecompute]) -> GroupRecomputeSummary:
    return GroupRecomputeSummary(
        total_reuse_macs=sum(layer.reuse_macs for layer in layers),
        total_recompute_macs=sum(layer.recompute_macs for layer in layers),
        total_reuse_brams=sum(layer.reuse_brams for layer in layers),
    )


@pytest.fixture
def stack():
    return Network(
        "stack",
        InputSpec(1, 32, 32),
        [
            ConvLayer(name="c1", out_channels=1, kernel=3, pad=1),
            ConvLayer(name="c2", out_channels=1, kernel=3, pad=1),
            ConvLayer(name="c3", out_channels=1, kernel=3, pad=1),
        ],
    )


class TestAnalyzeGroup:
    def test_last_layer_never_recomputed(self, stack):
        layers = analyze_group(stack, 0, 3)
        assert layers[-1].recompute_factor == 1.0
        assert layers[-1].recompute_macs == layers[-1].reuse_macs

    def test_earlier_layers_recompute_more(self, stack):
        layers = analyze_group(stack, 0, 3)
        factors = [layer.recompute_factor for layer in layers]
        assert factors[0] > factors[1] > factors[2]
        # c2's output: a 3-row window slides by 1 per group row
        assert layers[1].rows_needed_per_output_row == 3

    def test_deeper_fusion_recomputes_more(self, stack):
        shallow = summarize(analyze_group(stack, 0, 2))
        deep = summarize(analyze_group(stack, 0, 3))
        assert deep.recompute_overhead > shallow.recompute_overhead

    def test_single_layer_group_has_no_overhead(self, stack):
        summary = summarize(analyze_group(stack, 0, 1))
        assert summary.recompute_overhead == 1.0

    def test_stride_reduces_slide_amplification(self):
        net = Network(
            "s",
            InputSpec(1, 32, 32),
            [
                ConvLayer(name="c1", out_channels=1, kernel=3, pad=1),
                PoolLayer(name="p1", kernel=2, stride=2),
                ConvLayer(name="c2", out_channels=1, kernel=3, pad=1),
            ],
        )
        layers = analyze_group(net, 0, 3)
        # c1's output window (pool needs 2+(3-1)*2=6 rows) slides 2 per
        # group row thanks to the pool stride
        assert layers[0].stride_rows == 2

    def test_vgg_prefix_overhead_substantial(self):
        net = models.vgg_fused_prefix()
        summary = summarize(analyze_group(net, 0, len(net)))
        # recomputation through 7 fused layers is ruinously expensive —
        # the quantitative case for reuse buffers / line buffers
        assert summary.recompute_overhead > 3.0
        assert summary.total_reuse_brams > 0

    def test_empty_range_rejected(self, stack):
        with pytest.raises(ShapeError):
            analyze_group(stack, 1, 1)
