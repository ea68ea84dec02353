"""Comparison baselines.

:mod:`repro.baselines.alwani` models the fused-layer CNN accelerator of
Alwani et al. [MICRO'16] — the paper's reference point [1] in Figure 5
and Table 1.  :mod:`repro.baselines.homogeneous` provides the ablation
designs: single-algorithm (all-conventional / all-Winograd) strategies
and the completely unfused layer-by-layer design.
"""

from repro.baselines.alwani import alwani_design, AlwaniDesign
from repro.baselines.homogeneous import homogeneous_optimize, unfused_optimize

__all__ = [
    "AlwaniDesign",
    "alwani_design",
    "homogeneous_optimize",
    "unfused_optimize",
]
