"""Strategy execution: functional outputs plus row-level pipeline timing.

For every fusion group the simulator

1. runs the input rows through the chain of streaming engines
   (:mod:`repro.sim.engines`), producing the group's actual output
   feature maps — validated against the numpy reference forward pass;
2. replays the row production schedule through a timing recurrence:

   ``t[l][i] = max(t[l-1][need(l, i)], t[l][i-1]) + row_cycles[l]``

   where ``need(l, i)`` is the last upstream row inside output row
   ``i``'s receptive window, ``row_cycles[l]`` comes from the same
   ``implement()`` cost model the optimizer evaluated through the
   shared evaluation layer (:mod:`repro.perf.cost`), and the head layer's
   rows arrive from a shared-DRAM rate limiter that also carries the
   tail layer's stores and any streamed weights.

Groups execute back to back; the result's latency is comparable (and is
compared, in tests) to the analytic latency of the optimizer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.errors import SimulationError
from repro.arch.fusion import layer_window
from repro.nn.functional import init_weights
from repro.nn.network import LayerInfo
from repro.perf.implement import Implementation
from repro.optimizer.strategy import Strategy
from repro.sim.engines import layer_stream
from repro.sim.trace import GroupTrace, LayerTrace


@dataclass
class SimulationResult:
    """Outcome of simulating a strategy on one input image."""

    output: np.ndarray
    latency_cycles: float
    group_traces: List[GroupTrace]

    def latency_seconds(self, frequency_hz: float) -> float:
        return self.latency_cycles / frequency_hz

    def report(self) -> str:
        lines = [f"simulated latency: {self.latency_cycles:,.0f} cycles"]
        lines.extend(trace.report() for trace in self.group_traces)
        return "\n".join(lines)


def _rows_of(data: np.ndarray):
    for i in range(data.shape[1]):
        yield data[:, i, :]


def _quantize_stream(stream, fmt):
    for row in stream:
        yield fmt.quantize(row)


def _group_forward(
    infos: List[LayerInfo],
    impls: List[Implementation],
    data: np.ndarray,
    weights: Dict[str, Dict[str, np.ndarray]],
    quantize=None,
) -> np.ndarray:
    """Functionally stream one group's rows through its engine chain."""
    from repro.nn.modules import InceptionModule
    from repro.sim.engines import inception_stream

    stream = _rows_of(data)
    height = data.shape[1]
    for info, impl in zip(infos, impls):
        if isinstance(info.layer, InceptionModule):
            stream = inception_stream(
                stream,
                info.layer,
                weights,
                in_height=height,
                in_shape=info.input_shape,
            )
        else:
            stream = layer_stream(
                stream,
                info.layer,
                impl.algorithm,
                in_height=height,
                params=weights.get(info.name),
            )
        if quantize is not None:
            # The FIFO channels carry the fixed-point datapath word: every
            # inter-layer row is rounded/saturated to the format.
            stream = _quantize_stream(stream, quantize)
        height = info.output_shape[1]
    rows = list(stream)
    if len(rows) != infos[-1].output_shape[1]:
        raise SimulationError(
            f"group produced {len(rows)} rows, expected "
            f"{infos[-1].output_shape[1]}"
        )
    return np.stack(rows, axis=1)


def _last_needed_input_row(info: LayerInfo, out_row: int) -> int:
    """Index of the last unpadded input row inside ``out_row``'s window."""
    layer = info.layer
    window, stride = layer_window(layer)
    pad = getattr(layer, "pad", 0)
    in_rows = info.input_shape[1]
    needed_padded = out_row * stride + window - 1
    return min(max(needed_padded - pad, 0), in_rows - 1)


@dataclass(frozen=True)
class _DramTerms:
    """Shared-DRAM channel terms of one group, per image."""

    in_rows: int
    dram_per_head_row: float  # cycles per head input row (stores amortized in)
    preload_cycles: float  # one-time resident-weight load
    store_bytes: int

    @property
    def per_image_cycles(self) -> float:
        """DRAM busy cycles one image costs, excluding the preload."""
        return self.in_rows * self.dram_per_head_row


def _group_dram_terms(
    infos: List[LayerInfo], impls: List[Implementation], device
) -> _DramTerms:
    bytes_per_cycle = device.bytes_per_cycle
    head = infos[0]
    tail = infos[-1]
    in_rows = head.input_shape[1]
    head_row_bytes = head.input_shape[0] * head.input_shape[2] * device.element_bytes
    store_bytes = tail.output_size * device.element_bytes
    weight_stream_bytes = sum(
        impl.weight_dram_bytes for impl in impls if not impl.weights_resident
    )
    weight_preload_bytes = sum(
        impl.weight_dram_bytes for impl in impls if impl.weights_resident
    )
    # The DRAM channel carries head loads, tail stores and streamed
    # weights concurrently; amortize the latter two over the head rows.
    dram_per_head_row = (
        head_row_bytes + (store_bytes + weight_stream_bytes) / max(in_rows, 1)
    ) / bytes_per_cycle
    return _DramTerms(
        in_rows=in_rows,
        dram_per_head_row=dram_per_head_row,
        preload_cycles=weight_preload_bytes / bytes_per_cycle,
        store_bytes=store_bytes,
    )


def _group_timing(
    group_id: int,
    infos: List[LayerInfo],
    impls: List[Implementation],
    device,
    start_cycle: float,
) -> GroupTrace:
    """Row-level pipeline timing of one group."""
    bytes_per_cycle = device.bytes_per_cycle
    tail = infos[-1]
    dram = _group_dram_terms(infos, impls, device)
    in_rows = dram.in_rows
    store_bytes = dram.store_bytes
    dram_per_head_row = dram.dram_per_head_row
    preload_cycles = dram.preload_cycles

    # Availability time of each head input row.
    input_ready = [
        start_cycle + preload_cycles + (i + 1) * dram_per_head_row
        for i in range(in_rows)
    ]

    traces: List[LayerTrace] = []
    upstream_ready = input_ready
    for info, impl in zip(infos, impls):
        out_rows = info.output_shape[1]
        row_cycles = impl.compute_cycles / max(out_rows, 1)
        ready: List[float] = []
        previous = start_cycle
        for out_row in range(out_rows):
            need = _last_needed_input_row(info, out_row)
            dependency = upstream_ready[min(need, len(upstream_ready) - 1)]
            finish = max(dependency, previous) + row_cycles
            ready.append(finish)
            previous = finish
        traces.append(
            LayerTrace(
                layer_name=info.name,
                algorithm=impl.algorithm.value,
                out_rows=out_rows,
                row_cycles=row_cycles,
                first_output_cycle=ready[0] - start_cycle,
                last_output_cycle=ready[-1] - start_cycle,
                busy_cycles=impl.compute_cycles,
            )
        )
        upstream_ready = ready

    # Draining the last stores through DRAM.
    store_cycles = store_bytes / bytes_per_cycle / max(tail.output_shape[1], 1)
    end_cycle = upstream_ready[-1] + store_cycles
    dram_busy = preload_cycles + in_rows * dram_per_head_row
    return GroupTrace(
        group_id=group_id,
        layers=tuple(traces),
        start_cycle=start_cycle,
        end_cycle=end_cycle,
        dram_busy_cycles=dram_busy,
    )


@dataclass(frozen=True)
class GroupServiceModel:
    """Batched service-time model of one fusion group.

    Derived from the same row-level timing recurrence the single-image
    simulator replays, split into the three terms a serving runtime
    needs: the one-time resident-weight preload, the full pipeline
    latency of the first image, and the steady-state initiation interval
    of each further image streamed back-to-back (bounded by the slowest
    engine or by the shared DRAM channel, whichever binds).
    """

    group_id: int
    preload_cycles: float
    first_image_cycles: float
    steady_interval_cycles: float

    def batch_cycles(self, batch_size: int) -> float:
        """Cycles to push ``batch_size`` images through this group.

        The resident weights are loaded once per batch — the
        amortization dynamic batching exists to buy.
        """
        if batch_size < 1:
            raise SimulationError(f"batch size must be >= 1, got {batch_size}")
        return (
            self.preload_cycles
            + self.first_image_cycles
            + (batch_size - 1) * self.steady_interval_cycles
        )


@dataclass(frozen=True)
class ServiceModel:
    """Timing-only execution model of a whole strategy, batch-aware.

    ``batch_cycles(1)`` equals the single-image simulator latency (the
    groups run back to back); larger batches amortize each group's
    weight preload and pipeline fill across the batch.
    """

    groups: Tuple["GroupServiceModel", ...]

    def batch_cycles(self, batch_size: int) -> float:
        """Service cycles for one batch of ``batch_size`` images."""
        return sum(group.batch_cycles(batch_size) for group in self.groups)

    @property
    def single_image_cycles(self) -> float:
        """Latency of a lone image — the floor of any request latency."""
        return self.batch_cycles(1)

    def throughput_per_cycle(self, batch_size: int) -> float:
        """Steady-state images per cycle when serving full batches."""
        return batch_size / self.batch_cycles(batch_size)


def build_service_model(strategy: Strategy) -> ServiceModel:
    """Derive the batched service-time model of a strategy.

    Purely analytic — no functional execution — so a serving simulation
    can price millions of requests without touching the engines.  A
    :class:`~repro.optimizer.graph_dp.GraphStrategy` is lowered by
    :func:`repro.sim.graph.build_graph_service_model`.
    """
    from repro.optimizer.graph_dp import GraphStrategy

    if isinstance(strategy, GraphStrategy):
        from repro.sim.graph import build_graph_service_model

        return build_graph_service_model(strategy)
    network = strategy.network
    groups = []
    for group_id, ((start, stop), design) in enumerate(
        zip(strategy.boundaries, strategy.designs)
    ):
        infos = [network[i] for i in range(start, stop)]
        impls = list(design.implementations)
        trace = _group_timing(group_id, infos, impls, strategy.device, 0.0)
        dram = _group_dram_terms(infos, impls, strategy.device)
        first = trace.end_cycle - dram.preload_cycles
        # Steady state: one image per bottleneck drain — the slowest
        # engine's busy time or the DRAM channel, whichever is larger —
        # never worse than re-filling the whole pipeline.
        steady = max(
            max(impl.compute_cycles for impl in impls),
            dram.per_image_cycles,
        )
        groups.append(
            GroupServiceModel(
                group_id=group_id,
                preload_cycles=dram.preload_cycles,
                first_image_cycles=first,
                steady_interval_cycles=min(steady, first),
            )
        )
    return ServiceModel(groups=tuple(groups))


def simulate_strategy(
    strategy: Strategy,
    data: np.ndarray,
    weights: Optional[Dict[str, Dict[str, np.ndarray]]] = None,
    quantize=None,
    rng: Optional[np.random.Generator] = None,
) -> SimulationResult:
    """Execute a strategy on an input image.

    Args:
        strategy: An optimized (validated) strategy.
        data: Input blob matching the network's input spec.
        weights: Optional parameter dict; random weights otherwise.
        quantize: Optional :class:`~repro.algorithms.fixed_point.
            FixedPointFormat`; when given, the input, every weight and
            every inter-layer FIFO row are rounded/saturated to the
            format — the 16-bit fixed datapath of the paper's board.
        rng: Generator for the random weights when ``weights`` is not
            given; defaults to a fixed seed so results are reproducible.

    Returns:
        Functional output, end-to-end latency estimate, per-group traces.
        A :class:`~repro.optimizer.graph_dp.GraphStrategy` runs through
        :func:`repro.sim.graph.simulate_graph_strategy` (per-segment
        traces).
    """
    from repro.optimizer.graph_dp import GraphStrategy

    if isinstance(strategy, GraphStrategy):
        from repro.sim.graph import simulate_graph_strategy

        return simulate_graph_strategy(strategy, data, weights, quantize, rng)
    network = strategy.network
    if tuple(data.shape) != network.input_spec.shape:
        raise SimulationError(
            f"input shape {data.shape} != network input {network.input_spec.shape}"
        )
    if weights is None:
        weights = init_weights(network, rng)
    if quantize is not None:
        from repro.algorithms.fixed_point import quantize_model_weights

        weights = quantize_model_weights(weights, quantize)
        data = quantize.quantize(np.asarray(data, dtype=float))

    current = np.asarray(data, dtype=float)
    clock = 0.0
    traces: List[GroupTrace] = []
    for group_id, ((start, stop), design) in enumerate(
        zip(strategy.boundaries, strategy.designs)
    ):
        infos = [network[i] for i in range(start, stop)]
        impls = list(design.implementations)
        current = _group_forward(infos, impls, current, weights, quantize)
        trace = _group_timing(group_id, infos, impls, strategy.device, clock)
        traces.append(trace)
        clock = trace.end_cycle
    return SimulationResult(output=current, latency_cycles=clock, group_traces=traces)
