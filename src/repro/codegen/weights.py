"""Weight initialization files for the generated HLS project.

The tool-flow's last input is the trained model: kernels must land in
the on-chip arrays (or DRAM images) the engine templates read.  This
module renders them as C header files:

* 16-bit fixed-point codes (the board datapath, `Q16` by default),
* **pre-transformed** into the Winograd domain (``G g G^T``) for layers
  the strategy implements with the Winograd algorithm — the same
  offline transform the cost model charges the ``alpha^2/r^2`` storage
  inflation for.

Output is one header per layer plus an index header, all hex-encoded
``int16_t`` arrays with shape comments, so the result compiles under
any C toolchain.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.errors import CodegenError
from repro.algorithms.fixed_point import FixedPointFormat, Q16
from repro.algorithms.winograd import winograd_transform
from repro.nn.layers import ConvLayer
from repro.nn.modules import InceptionModule
from repro.optimizer.strategy import Strategy
from repro.perf.implement import Algorithm, WINOGRAD_M
from repro.perf.record import query_of


def _identifier(name: str) -> str:
    cleaned = "".join(c if c.isalnum() else "_" for c in name)
    if not cleaned or cleaned[0].isdigit():
        cleaned = "l_" + cleaned
    return cleaned


def _array_lines(codes: np.ndarray, per_line: int = 12) -> List[str]:
    flat = codes.reshape(-1)
    lines = []
    for start in range(0, flat.size, per_line):
        chunk = flat[start : start + per_line]
        lines.append(
            "    " + ", ".join(f"0x{int(v) & 0xFFFF:04x}" for v in chunk) + ","
        )
    return lines


def render_weight_array(
    name: str, values: np.ndarray, fmt: FixedPointFormat = Q16
) -> str:
    """One ``static const int16_t`` array with a shape comment."""
    codes = fmt.to_integers(values)
    shape = "x".join(str(d) for d in values.shape)
    body = "\n".join(_array_lines(codes))
    return (
        f"// shape {shape}, Q{fmt.integer_bits}.{fmt.frac_bits} fixed point\n"
        f"static const int16_t {name}[{codes.size}] = {{\n{body}\n}};\n"
    )


def layer_weight_header(
    layer: ConvLayer,
    params: Dict[str, np.ndarray],
    algorithm: Algorithm,
    fmt: FixedPointFormat = Q16,
    winograd_m: int = WINOGRAD_M,
) -> str:
    """Header for one conv layer's kernels (+bias).

    Winograd layers get kernels pre-transformed to ``alpha x alpha``.
    """
    weight = np.asarray(params["weight"])
    bias = params.get("bias")
    name = _identifier(layer.name)
    if algorithm == Algorithm.WINOGRAD:
        transform = winograd_transform(winograd_m, layer.kernel)
        weight = transform.transform_kernels(weight)
        tag = f"winograd F({winograd_m},{layer.kernel}) pre-transformed"
    elif algorithm == Algorithm.CONVENTIONAL:
        tag = "conventional"
    else:
        raise CodegenError(f"layer {layer.name!r}: no weights for {algorithm}")
    parts = [
        f"// kernels for layer {layer.name} ({tag})",
        render_weight_array(f"{name}_weights", weight, fmt),
    ]
    if bias is not None:
        parts.append(render_weight_array(f"{name}_bias", np.asarray(bias), fmt))
    return "\n".join(parts)


def strategy_weight_headers(
    strategy: Strategy,
    weights: Dict[str, Dict[str, np.ndarray]],
    fmt: FixedPointFormat = Q16,
) -> Dict[str, str]:
    """All weight headers for a strategy, keyed by file name.

    Inception modules emit one header per inner conv (conventional form
    — the macro engine is conventional).

    Raises:
        CodegenError: If a conv layer has no weights in the dict.
    """
    files: Dict[str, str] = {}
    entries: List[str] = []
    for design in strategy.designs:
        for impl in design.implementations:
            info = strategy.network.layer(impl.layer_name)
            layer = info.layer
            if isinstance(layer, ConvLayer):
                params = weights.get(layer.name)
                if params is None:
                    raise CodegenError(f"no weights for conv layer {layer.name!r}")
                filename = f"weights_{_identifier(layer.name)}.h"
                files[filename] = layer_weight_header(
                    layer,
                    params,
                    impl.algorithm,
                    fmt,
                    query_of(impl)[2],
                )
                entries.append(filename)
            elif isinstance(layer, InceptionModule):
                for inner, _shape in layer.inner_layers(info.input_shape):
                    if not isinstance(inner, ConvLayer):
                        continue
                    params = weights.get(inner.name)
                    if params is None:
                        raise CodegenError(
                            f"no weights for module conv {inner.name!r}"
                        )
                    filename = f"weights_{_identifier(inner.name)}.h"
                    files[filename] = layer_weight_header(
                        inner, params, Algorithm.CONVENTIONAL, fmt
                    )
                    entries.append(filename)
    index = "\n".join(f'#include "{entry}"' for entry in entries)
    files["weights.h"] = (
        "// Auto-generated weight index for the accelerator\n" + index + "\n"
    )
    return files
