"""Multi-FPGA model partitioning: split one model across a device fleet.

The layer between the single-device optimizer and the serving runtime:

* :mod:`repro.partition.fleet` — the hardware model (devices + links);
* :mod:`repro.partition.cut` — the one cut-point DP minimizing the
  pipeline bottleneck over a model's top-level units (a chain's layers,
  a DAG's nodes and whole fork-join blocks), pricing stages with the
  existing single-device searches through the shared evaluation layer;
* :mod:`repro.partition.plan` — the :class:`PartitionPlan` artifact with
  per-stage strategies, serialization, and simulate/serve hooks (chain
  plans only for those three).
"""

from repro.partition.cut import CutOptimizer, partition_network
from repro.partition.fleet import DEFAULT_LINK_BANDWIDTH, DeviceFleet, Link
from repro.partition.plan import (
    PartitionPlan,
    StagePlacement,
    StageTransfer,
    load_plan,
    plan_from_dict,
)

__all__ = [
    "CutOptimizer",
    "DEFAULT_LINK_BANDWIDTH",
    "DeviceFleet",
    "Link",
    "PartitionPlan",
    "StagePlacement",
    "StageTransfer",
    "load_plan",
    "partition_network",
    "plan_from_dict",
]
