"""Tests for the two-level pipeline timing composition (paper Section 4.3).

*Intra-layer*: each layer engine overlaps its load / compute / store
phases, so a layer's throughput is set by its slowest phase and the other
two are hidden (paper Figure 2d).

*Inter-layer*: the layers of a fusion group run as a dataflow pipeline;
"the pipeline stage length is determined by the longest stage" (Figure
2c), plus a one-time fill while the pyramid charges up.

The model itself composes groups in :func:`repro.perf.group.compose_group`
and the row-level simulator; the reference formulas below restate that
composition on plain numbers.
"""

from typing import Sequence

import pytest

from repro.errors import ShapeError


def three_phase_latency(
    load_cycles: float, compute_cycles: float, store_cycles: float, rounds: int = 1
) -> float:
    """Latency of ``rounds`` iterations of a load/compute/store pipeline.

    Steady state runs at the slowest phase; the first iteration also pays
    the two other phases once (fill + drain).
    """
    if rounds < 1:
        raise ShapeError(f"rounds must be positive, got {rounds}")
    phases = (load_cycles, compute_cycles, store_cycles)
    if any(p < 0 for p in phases):
        raise ShapeError("phase cycles must be non-negative")
    bottleneck = max(phases)
    return bottleneck * rounds + (sum(phases) - bottleneck)


def dataflow_group_latency(
    stage_cycles: Sequence[float], fill_cycles: Sequence[float] = ()
) -> float:
    """Latency of a fused group of concurrently running stages.

    ``stage_cycles[l]`` is layer ``l``'s total busy time for the whole
    image (its intra-layer bottleneck phase summed over all rows).  In
    steady state all stages overlap, so the group takes as long as its
    slowest stage; each stage additionally delays the pipeline by its
    ``fill_cycles`` before the first datum reaches the next stage.
    """
    if not stage_cycles:
        raise ShapeError("a fusion group needs at least one stage")
    if any(c < 0 for c in stage_cycles):
        raise ShapeError("stage cycles must be non-negative")
    fill = list(fill_cycles) if fill_cycles else [0.0] * len(stage_cycles)
    if len(fill) != len(stage_cycles):
        raise ShapeError("fill_cycles length must match stage_cycles")
    if any(f < 0 for f in fill):
        raise ShapeError("fill cycles must be non-negative")
    return max(stage_cycles) + sum(fill)


def pipeline_efficiency(stage_cycles: Sequence[float]) -> float:
    """Mean stage utilization under the slowest stage (balance metric).

    1.0 means the inter-layer pipeline is perfectly balanced — the
    objective Algorithm 2's resource allocation pushes towards.
    """
    if not stage_cycles:
        raise ShapeError("a fusion group needs at least one stage")
    bottleneck = max(stage_cycles)
    if bottleneck == 0:
        return 1.0
    return sum(stage_cycles) / (len(stage_cycles) * bottleneck)


class TestThreePhase:
    def test_single_round_is_sum(self):
        assert three_phase_latency(10, 20, 5, rounds=1) == 35

    def test_steady_state_at_bottleneck(self):
        # 10 rounds of (10, 20, 5): 20*10 + 15 fill/drain
        assert three_phase_latency(10, 20, 5, rounds=10) == 215

    def test_load_bound(self):
        assert three_phase_latency(50, 20, 5, rounds=4) == 50 * 4 + 25

    def test_hiding_is_effective(self):
        overlapped = three_phase_latency(10, 20, 10, rounds=100)
        serial = 100 * (10 + 20 + 10)
        assert overlapped < serial

    def test_invalid(self):
        with pytest.raises(ShapeError):
            three_phase_latency(1, 1, 1, rounds=0)
        with pytest.raises(ShapeError):
            three_phase_latency(-1, 1, 1)


class TestDataflow:
    def test_slowest_stage_dominates(self):
        assert dataflow_group_latency([100, 500, 200]) == 500

    def test_fills_add(self):
        assert dataflow_group_latency([100, 500], [10, 20]) == 530

    def test_single_stage(self):
        assert dataflow_group_latency([42]) == 42

    def test_validation(self):
        with pytest.raises(ShapeError):
            dataflow_group_latency([])
        with pytest.raises(ShapeError):
            dataflow_group_latency([1, -2])
        with pytest.raises(ShapeError):
            dataflow_group_latency([1, 2], [1])
        with pytest.raises(ShapeError):
            dataflow_group_latency([1, 2], [1, -1])


class TestEfficiency:
    def test_balanced_is_one(self):
        assert pipeline_efficiency([10, 10, 10]) == pytest.approx(1.0)

    def test_imbalanced_below_one(self):
        assert pipeline_efficiency([10, 100]) == pytest.approx(0.55)

    def test_zero_stages(self):
        assert pipeline_efficiency([0, 0]) == 1.0
        with pytest.raises(ShapeError):
            pipeline_efficiency([])
