"""Per-layer implementation model: the paper's ``implement(cnt, algo, p)``.

Given a layer, an algorithm choice and a hardware parallelism ``p``
(number of DSP-resident multipliers in the layer's engine), this module
evaluates the engine's resource vector, compute cycles, pipeline-fill
cycles and DRAM traffic.  These are the leaf values the branch-and-bound
(Algorithm 2) sums and maximizes.

Model summary (full rationale in DESIGN.md):

* **Conventional conv** — ``p`` MACs/cycle; compute = MACs / p.
* **Winograd conv** — ``p`` DSP multipliers retire ``p`` element-wise
  transform-domain products per cycle; compute = (tiles * alpha^2 *
  N * M) / p, i.e. an effective ``m^2 r^2 / alpha^2`` MAC amplification
  (4.0 for F(4x4, 3x3)).  Requires stride 1 and kernel >= 2.  Needs a
  deeper line buffer (``alpha + m`` rows) and transform adder logic.
* **Line buffers** — ``K + S`` rows (conventional/pool) of the full input
  width and channel depth, one BRAM bank per row minimum.
* **Weights** — resident on chip when they fit under a per-layer cap
  (one-time DRAM load), otherwise streamed once per output row strip
  (re-fetched, costing bandwidth but little BRAM).  Either way weight
  traffic is excluded from the paper's transfer constraint T, which
  bounds feature maps only.
* **Parallel access banking** — ``p`` multipliers need ``p`` weight words
  per cycle; dual-ported BRAM18Ks give two, so resident weight storage
  occupies ``max(bits/18K, p/2)`` tiles.  This is the coupling that makes
  deep fused groups BRAM-hungry and gives the paper's Figure 5 its slope.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Optional

from repro.errors import AlgorithmError, UnsupportedLayerError
from repro.arch.line_buffer import buffer_brams, line_buffer_brams
from repro.hardware.device import FPGADevice
from repro.hardware.resources import ResourceVector
from repro.nn.layers import ConvLayer, LRNLayer, PoolLayer
from repro.nn.modules import InceptionModule
from repro.nn.network import LayerInfo


class Algorithm(str, enum.Enum):
    """Implementation algorithm for a layer engine."""

    CONVENTIONAL = "conventional"
    WINOGRAD = "winograd"
    POOL = "pool"
    LRN = "lrn"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


class WeightMode(str, enum.Enum):
    """How a convolution engine stores/fetches its kernels."""

    RESIDENT = "resident"
    STREAM_FULLMAP = "stream_fullmap"
    STREAM_ROWS = "stream_rows"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


#: Output tile size of the Winograd engines, F(m x m, r x r) (paper S2.1).
WINOGRAD_M = 4

#: Fraction of device BRAM a full-feature-map buffer may occupy before
#: the STREAM_FULLMAP weight mode stops being offered.
FULLMAP_BRAM_FRACTION = 0.25

#: Fraction of the device's BRAM a single layer may spend on resident
#: kernels; beyond it the engine streams weights from DRAM (see DESIGN.md).
RESIDENT_WEIGHT_BRAM_FRACTION = 0.5

#: BRAM tiles for a streaming weight double-buffer.
STREAMED_WEIGHT_BRAMS = 16

# LUT/FF engine coefficients (base control + per-multiplier datapath).
_CONV_BASE_LUT, _CONV_LUT_PER_P = 2500, 60
_CONV_BASE_FF, _CONV_FF_PER_P = 3500, 90
_WINO_BASE_LUT, _WINO_LUT_PER_P = 6000, 240
_WINO_BASE_FF, _WINO_FF_PER_P = 8000, 320
_POOL_BASE_LUT, _POOL_LUT_PER_P = 800, 40
_POOL_BASE_FF, _POOL_FF_PER_P = 1000, 40
_LRN_BASE_LUT, _LRN_LUT_PER_P = 1500, 80
_LRN_BASE_FF, _LRN_FF_PER_P = 2000, 100


@dataclass(frozen=True)
class Implementation:
    """Evaluated hardware realization of one layer.

    Attributes:
        layer_name: Which layer this engine implements.
        algorithm: Algorithm choice.
        parallelism: DSP-resident multipliers (conv/LRN) or comparator
            lanes (pool).
        resources: Fabric resources the engine occupies.
        compute_cycles: Busy cycles of the compute phase for one image.
        fill_cycles: Pipeline-fill delay this engine adds to a fused group.
        input_bytes: Feature-map bytes read if this layer heads a group.
        output_bytes: Feature-map bytes written if this layer ends a group.
        weight_dram_bytes: Kernel bytes fetched from DRAM during the run
            (single load if resident, per-row-strip refetch if streamed).
        weights_resident: Whether kernels stay on chip.
        ops: Arithmetic operations credited to this layer (for GOPS).
    """

    layer_name: str
    algorithm: Algorithm
    parallelism: int
    resources: ResourceVector
    compute_cycles: int
    fill_cycles: int
    input_bytes: int
    output_bytes: int
    weight_dram_bytes: int
    weights_resident: bool
    ops: int
    line_brams: int = 0
    weight_brams: int = 0
    weight_mode: "WeightMode" = None  # type: ignore[assignment]
    winograd_m: int = 0  #: Winograd tile size (0 for non-Winograd engines)

    @property
    def effective_macs_per_cycle(self) -> float:
        """Direct-equivalent MACs retired per busy cycle."""
        if self.compute_cycles == 0:
            return 0.0
        return (self.ops / 2) / self.compute_cycles


def candidate_algorithms(info: LayerInfo) -> List[Algorithm]:
    """Algorithms applicable to a layer (Algorithm 2, line 10).

    Winograd "can be implemented most efficiently for the cases where
    kernel size is small and stride is 1"; we require stride 1 and a
    kernel of at least 2 (1x1 kernels gain nothing).
    """
    layer = info.layer
    if isinstance(layer, ConvLayer):
        algorithms = [Algorithm.CONVENTIONAL]
        if layer.stride == 1 and layer.kernel >= 2:
            algorithms.append(Algorithm.WINOGRAD)
        return algorithms
    if isinstance(layer, InceptionModule):
        # Mixed 1x1/3x3/5x5 branches: the macro engine is conventional
        # (the module-as-layer simplification of paper S7.1).
        return [Algorithm.CONVENTIONAL]
    if isinstance(layer, PoolLayer):
        return [Algorithm.POOL]
    if isinstance(layer, LRNLayer):
        return [Algorithm.LRN]
    raise UnsupportedLayerError(
        f"layer {info.name!r} ({type(layer).__name__}) has no accelerator engine"
    )


#: Parallelism sweep for convolution engines: powers of two and 1.5x
#: intermediates, the quanta in which the HLS templates replicate
#: multiplier lanes.
_CONV_PARALLELISM_LADDER = [
    1, 2, 4, 6, 8, 12, 16, 24, 32, 48, 64, 96, 128, 192, 256, 384, 512, 768, 1024,
]

#: Pool/LRN engines are cheap and never the group bottleneck in practice;
#: a sparse ladder keeps Algorithm 2's branching factor manageable.
_LIGHT_PARALLELISM_LADDER = [1, 4, 16, 64]


def candidate_parallelisms(
    info: LayerInfo, algorithm: Algorithm, device: FPGADevice
) -> List[int]:
    """Descending parallelism candidates (Algorithm 2 iterates max -> min)."""
    cap = _parallelism_cap(info, algorithm, device)
    if algorithm in (Algorithm.CONVENTIONAL, Algorithm.WINOGRAD):
        base = _CONV_PARALLELISM_LADDER
    else:
        base = _LIGHT_PARALLELISM_LADDER
    ladder = [p for p in base if p <= cap]
    if not ladder:
        ladder = [1]
    return sorted(ladder, reverse=True)


def _parallelism_cap(info: LayerInfo, algorithm: Algorithm, device: FPGADevice) -> int:
    if algorithm in (Algorithm.CONVENTIONAL, Algorithm.WINOGRAD):
        return max(1, device.resources.dsp)
    if algorithm == Algorithm.LRN:
        return max(1, device.resources.dsp // 4)
    # Pooling lanes are LUT comparators; more than 64 never pays off.
    return 64


def _conv_work_mults(
    info: LayerInfo, algorithm: Algorithm, m: int = WINOGRAD_M
) -> int:
    """DSP multiplications the engine must issue for one image."""
    layer = info.layer
    assert isinstance(layer, ConvLayer)
    if algorithm == Algorithm.CONVENTIONAL:
        return layer.macs(info.input_shape)
    # Winograd: full-tile element-wise products, ragged tiles padded.
    from repro.algorithms.winograd import tile_count

    out_c, out_h, out_w = info.output_shape
    in_c = info.input_shape[0] // layer.groups
    alpha = m + layer.kernel - 1
    tiles = tile_count(out_h, m) * tile_count(out_w, m)
    return out_c * in_c * tiles * alpha * alpha


def winograd_reduction(kernel: int, m: int = WINOGRAD_M) -> float:
    """Multiplication reduction of F(m x m, k x k) over exact-fit tiles."""
    alpha = m + kernel - 1
    return (m * kernel) ** 2 / alpha**2


def _stored_weight_bytes(
    info: LayerInfo, algorithm: Algorithm, element_bytes: int, m: int = WINOGRAD_M
) -> int:
    """Kernel storage footprint.

    The Winograd engine keeps kernels pre-transformed into the
    ``alpha x alpha`` domain (the tool-flow applies G g G^T offline), an
    ``alpha^2 / r^2`` inflation — about 4x for F(4x4, 3x3).  This is the
    paper's "more pressure on the memory" in on-chip form and the main
    driver of heterogeneous algorithm choices.
    """
    layer = info.layer
    if isinstance(layer, InceptionModule):
        return info.weight_count * element_bytes
    assert isinstance(layer, ConvLayer)
    if algorithm == Algorithm.CONVENTIONAL:
        return info.weight_count * element_bytes
    alpha = m + layer.kernel - 1
    in_c = info.input_shape[0] // layer.groups
    transformed = layer.out_channels * in_c * alpha * alpha + layer.out_channels
    return transformed * element_bytes


def _row_strips(info: LayerInfo, algorithm: Algorithm, m: int = WINOGRAD_M) -> int:
    """Output row strips per image (weight-streaming refetch count).

    The conventional engine sweeps kernels once per output row; the
    Winograd engine consumes a tile row (``m`` output rows) per sweep.
    """
    out_rows = info.output_shape[1]
    if algorithm == Algorithm.WINOGRAD:
        return -(-out_rows // m)
    return out_rows


def _padded_input_tiles(info: LayerInfo, element_bytes: int) -> int:
    """BRAM tiles to hold the layer's whole padded input feature map."""
    layer = info.layer
    pad = getattr(layer, "pad", 0)
    in_c, in_h, in_w = info.input_shape
    bits = in_c * (in_h + 2 * pad) * (in_w + 2 * pad) * element_bytes * 8
    return buffer_brams(bits)


#: Winograd tile sizes offered when tile-size exploration is enabled
#: (the paper fixes m=4 and notes "multiple tile size choices" exist).
WINOGRAD_TILE_CHOICES = (2, 4, 6)


def candidate_winograd_tiles(
    info: LayerInfo, explore: bool = False
) -> List[int]:
    """Output tile sizes m the Winograd engine may use.

    The paper uses the uniform F(4x4, r x r); with ``explore`` enabled
    the optimizer also considers F(2x2) (smaller buffers, 2.25x
    reduction) and F(6x6) (5x+ reduction, much larger transforms) —
    the extension the paper leaves on the table in Section 2.1.
    """
    if not explore:
        return [WINOGRAD_M]
    out_rows = info.output_shape[1]
    return [m for m in WINOGRAD_TILE_CHOICES if m <= max(out_rows, 2)]


def candidate_weight_modes(
    info: LayerInfo, algorithm: Algorithm, device: FPGADevice, m: int = WINOGRAD_M
) -> List[WeightMode]:
    """Weight-storage modes a conv engine may use (searched by Algorithm 2).

    * RESIDENT — kernels preloaded on chip; offered when they fit under
      the per-layer BRAM cap.
    * STREAM_FULLMAP — the whole input feature map is buffered on chip
      and kernels stream from DRAM exactly once; offered for the small
      late-network maps (this is how AlexNet's weight-heavy conv3-5 run).
      The stage cannot overlap its upstream producer (image barrier).
    * STREAM_ROWS — line-buffer streaming with kernels re-fetched per
      output row strip; always legal, bandwidth-hungry fallback.
    """
    layer = info.layer
    if not isinstance(layer, (ConvLayer, InceptionModule)):
        return [WeightMode.RESIDENT]
    element_bytes = device.element_bytes
    cap = int(device.resources.bram18k * RESIDENT_WEIGHT_BRAM_FRACTION)
    modes: List[WeightMode] = []
    weight_bytes = _stored_weight_bytes(info, algorithm, element_bytes, m)
    if buffer_brams(weight_bytes * 8) <= cap:
        modes.append(WeightMode.RESIDENT)
    if _padded_input_tiles(info, element_bytes) <= int(
        device.resources.bram18k * FULLMAP_BRAM_FRACTION
    ):
        modes.append(WeightMode.STREAM_FULLMAP)
    modes.append(WeightMode.STREAM_ROWS)
    return modes


@dataclass(frozen=True)
class EngineTerms:
    """The parallelism-free half of ``implement()`` for one menu option.

    Everything an engine's evaluation reads that does not depend on its
    parallelism: the resolved weight mode, the work the multipliers
    share, the line buffers, the stored-weight BRAM floor, the DRAM
    weight traffic and the LUT/FF coefficients.  :meth:`at` adds the
    per-parallelism half.  A search asks one option for up to 19
    parallelisms, so :class:`~repro.perf.cost.EvalContext` builds these
    terms once per option.

    Attributes:
        work: Multiplications (or comparator/LRN steps) per image; the
            engine's compute is ``ceil(work / p)``.
        out_rows: Output rows (at least 1) the compute is spread over.
        fill_lines: Rows of per-row compute the stage adds to the
            group's fill; 0 for the full-map barrier, whose fill is its
            whole compute.
        weight_brams: Stored-weight BRAM floor; a ``banked`` engine
            needs ``ceil(p / 2)`` dual-ported tiles at least.
    """

    algorithm: Algorithm
    weight_mode: Optional[WeightMode]
    winograd_m: int
    work: int
    out_rows: int
    fill_lines: int
    line_brams: int
    weight_brams: int
    banked: bool
    weight_dram_bytes: int
    dsp_per_p: int
    base_ff: int
    ff_per_p: int
    base_lut: int
    lut_per_p: int
    input_bytes: int
    output_bytes: int
    ops: int
    weights_resident: bool

    def at(self, layer_name: str, parallelism: int) -> Implementation:
        """The engine at ``parallelism``: compute, fill and resources."""
        if parallelism < 1:
            raise AlgorithmError(f"parallelism must be positive, got {parallelism}")
        compute = -(-self.work // parallelism)
        if self.fill_lines:
            fill = -(-compute // self.out_rows) * self.fill_lines
        else:
            fill = compute
        weight_brams = (
            max(self.weight_brams, -(-parallelism // 2)) if self.banked else 0
        )
        return Implementation(
            layer_name=layer_name,
            algorithm=self.algorithm,
            parallelism=parallelism,
            resources=ResourceVector(
                bram18k=self.line_brams + weight_brams,
                dsp=parallelism * self.dsp_per_p,
                ff=self.base_ff + self.ff_per_p * parallelism,
                lut=self.base_lut + self.lut_per_p * parallelism,
            ),
            compute_cycles=compute,
            fill_cycles=fill,
            input_bytes=self.input_bytes,
            output_bytes=self.output_bytes,
            weight_dram_bytes=self.weight_dram_bytes,
            weights_resident=self.weights_resident,
            ops=self.ops,
            line_brams=self.line_brams,
            weight_brams=weight_brams,
            weight_mode=self.weight_mode,
            winograd_m=self.winograd_m,
        )


def _resolve_mode(
    info: LayerInfo,
    algorithm: Algorithm,
    device: FPGADevice,
    weight_mode: Optional[WeightMode],
    m: int,
    what: str,
) -> WeightMode:
    modes = candidate_weight_modes(info, algorithm, device, m)
    if weight_mode is None:
        return modes[0]
    if weight_mode not in modes:
        raise AlgorithmError(
            f"weight mode {weight_mode.value} not available for {what}"
        )
    return weight_mode


def engine_terms(
    info: LayerInfo,
    algorithm: Algorithm,
    device: FPGADevice,
    weight_mode: Optional[WeightMode] = None,
    winograd_m: int = WINOGRAD_M,
) -> EngineTerms:
    """The parallelism-free half of :func:`implement` (same arguments
    less the parallelism, same errors)."""
    if winograd_m < 2 and algorithm == Algorithm.WINOGRAD:
        raise AlgorithmError(f"Winograd tile size must be >= 2, got {winograd_m}")
    layer = info.layer
    element_bytes = device.element_bytes
    word_bits = element_bytes * 8
    common = dict(
        algorithm=algorithm,
        input_bytes=info.input_size * element_bytes,
        output_bytes=info.output_size * element_bytes,
        ops=info.ops,
        out_rows=max(info.output_shape[1], 1),
    )
    in_c, _, in_w = info.input_shape

    if isinstance(layer, (ConvLayer, InceptionModule)):
        if isinstance(layer, ConvLayer):
            if algorithm not in (Algorithm.CONVENTIONAL, Algorithm.WINOGRAD):
                raise AlgorithmError(
                    f"conv layer {info.name!r} cannot use algorithm {algorithm}"
                )
            if algorithm == Algorithm.WINOGRAD and layer.stride != 1:
                raise AlgorithmError(
                    f"Winograd requires stride 1, layer {info.name!r} has "
                    f"stride {layer.stride}"
                )
            if algorithm == Algorithm.WINOGRAD and layer.kernel < 2:
                raise AlgorithmError("Winograd on 1x1 kernels saves nothing")
            mode = _resolve_mode(
                info, algorithm, device, weight_mode, winograd_m,
                f"layer {info.name!r} with {algorithm.value}",
            )
            work = _conv_work_mults(info, algorithm, winograd_m)
            if algorithm == Algorithm.CONVENTIONAL:
                lines = layer.kernel + layer.stride
                base_lut, lut_p = _CONV_BASE_LUT, _CONV_LUT_PER_P
                base_ff, ff_p = _CONV_BASE_FF, _CONV_FF_PER_P
            else:
                alpha = winograd_m + layer.kernel - 1
                lines = alpha + winograd_m
                base_lut, lut_p = _WINO_BASE_LUT, _WINO_LUT_PER_P
                base_ff, ff_p = _WINO_BASE_FF, _WINO_FF_PER_P
                # transform area grows with the tile footprint
                lut_p = int(lut_p * (alpha * alpha) / 36)
                ff_p = int(ff_p * (alpha * alpha) / 36)
            weight_bytes = _stored_weight_bytes(
                info, algorithm, element_bytes, winograd_m
            )
            streamed = weight_bytes * _row_strips(info, algorithm, winograd_m)
            rows_brams = line_buffer_brams(lines, in_w, in_c, word_bits)
            inner = 0
            m_field = winograd_m if algorithm == Algorithm.WINOGRAD else 0
        else:
            if algorithm != Algorithm.CONVENTIONAL:
                raise AlgorithmError(
                    f"inception module {info.name!r} uses the conventional "
                    "macro engine"
                )
            mode = _resolve_mode(
                info, algorithm, device, weight_mode, WINOGRAD_M,
                f"module {info.name!r}",
            )
            work = layer.macs(info.input_shape)
            spec = layer.spec
            lines = layer.max_kernel + 1
            # Shared input buffer for the four branch heads plus internal
            # line buffers for the 3x3 / 5x5 second-stage convolutions.
            rows_brams = line_buffer_brams(lines, in_w, in_c, word_bits)
            inner = line_buffer_brams(
                4, in_w, spec.b3_reduce, word_bits
            ) + line_buffer_brams(6, in_w, spec.b5_reduce, word_bits)
            weight_bytes = info.weight_count * element_bytes
            streamed = weight_bytes * info.output_shape[1]
            base_lut, lut_p = int(1.5 * _CONV_BASE_LUT), _CONV_LUT_PER_P
            base_ff, ff_p = int(1.5 * _CONV_BASE_FF), _CONV_FF_PER_P
            m_field = 0
        if mode == WeightMode.RESIDENT:
            line_brams = rows_brams + inner
            weight_brams = buffer_brams(weight_bytes * 8)
            weight_dram = weight_bytes
            fill_lines = lines
        elif mode == WeightMode.STREAM_FULLMAP:
            # Whole padded input buffered on chip; kernels stream once,
            # but the stage cannot start before its input is complete —
            # it contributes its full compute time to the pipeline fill.
            line_brams = (
                max(_padded_input_tiles(info, element_bytes), lines) + inner
            )
            weight_brams = STREAMED_WEIGHT_BRAMS
            weight_dram = weight_bytes
            fill_lines = 0
        else:  # STREAM_ROWS: kernels re-fetched per output row strip
            line_brams = rows_brams + inner
            weight_brams = STREAMED_WEIGHT_BRAMS
            weight_dram = streamed
            fill_lines = lines
        return EngineTerms(
            weight_mode=mode,
            winograd_m=m_field,
            work=work,
            fill_lines=fill_lines,
            line_brams=line_brams,
            weight_brams=weight_brams,
            banked=True,
            weight_dram_bytes=weight_dram,
            dsp_per_p=device.dsp_per_mac,
            base_ff=base_ff,
            ff_per_p=ff_p,
            base_lut=base_lut,
            lut_per_p=lut_p,
            weights_resident=mode == WeightMode.RESIDENT,
            **common,
        )

    if isinstance(layer, PoolLayer):
        if algorithm != Algorithm.POOL:
            raise AlgorithmError(f"pool layer {info.name!r} must use POOL engine")
        lines = layer.kernel + layer.stride
        return EngineTerms(
            weight_mode=None,
            winograd_m=0,
            work=info.output_size * layer.kernel * layer.kernel,
            fill_lines=lines,
            line_brams=line_buffer_brams(lines, in_w, in_c, word_bits),
            weight_brams=0,
            banked=False,
            weight_dram_bytes=0,
            dsp_per_p=0,
            base_ff=_POOL_BASE_FF,
            ff_per_p=_POOL_FF_PER_P,
            base_lut=_POOL_BASE_LUT,
            lut_per_p=_POOL_LUT_PER_P,
            weights_resident=True,
            **common,
        )

    if isinstance(layer, LRNLayer):
        if algorithm != Algorithm.LRN:
            raise AlgorithmError(f"LRN layer {info.name!r} must use LRN engine")
        return EngineTerms(
            weight_mode=None,
            winograd_m=0,
            work=info.input_size * (layer.local_size + 3),
            fill_lines=1,
            # One row buffered plus a small power-function lookup table.
            line_brams=line_buffer_brams(1, in_w, in_c, word_bits) + 1,
            weight_brams=0,
            banked=False,
            weight_dram_bytes=0,
            dsp_per_p=2,
            base_ff=_LRN_BASE_FF,
            ff_per_p=_LRN_FF_PER_P,
            base_lut=_LRN_BASE_LUT,
            lut_per_p=_LRN_LUT_PER_P,
            weights_resident=True,
            **common,
        )

    raise UnsupportedLayerError(
        f"layer {info.name!r} ({type(layer).__name__}) has no accelerator engine"
    )


def implement(
    info: LayerInfo,
    algorithm: Algorithm,
    parallelism: int,
    device: FPGADevice,
    weight_mode: Optional[WeightMode] = None,
    winograd_m: int = WINOGRAD_M,
) -> Implementation:
    """Evaluate one layer engine (paper Algorithm 2's ``implement``).

    The evaluation is :func:`engine_terms` for the option, then
    :meth:`EngineTerms.at` for the parallelism.

    Args:
        weight_mode: Conv weight-storage mode; defaults to the first
            candidate from :func:`candidate_weight_modes` (resident when
            kernels fit).
        winograd_m: Output tile size of the Winograd engine (the paper's
            uniform choice is 4; see :func:`candidate_winograd_tiles`).

    Raises:
        AlgorithmError: If the algorithm cannot run this layer (e.g.
            Winograd with stride > 1), the parallelism is invalid, or the
            weight mode is not a candidate for this layer.
    """
    terms = engine_terms(info, algorithm, device, weight_mode, winograd_m)
    return terms.at(info.name, parallelism)
