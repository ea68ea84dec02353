"""Batched, multi-accelerator inference serving on compiled strategies.

The tool-flow ends at a compiled per-layer strategy; this package turns
that artifact into a *service*: a simulated fleet of accelerator
replicas behind a dynamic batcher and a dispatch policy, driven by a
virtual clock so every throughput/latency number is exactly
reproducible.

Typical use::

    from repro.toolflow import compile_model

    fleet = compile_model("vgg19_prefix7", device="zc706").serve(
        replicas=4, max_batch=8, policy="least_loaded")
    result = fleet.run_open_loop(num_requests=500, load=4.0)
    print(result.summary())

Or from the command line: ``repro serve-sim vgg19_prefix7 --replicas 4``.

Flat, multi-tenant and pipelined fleets run one executor,
:class:`Replica`: a single board is the one-stage, link-free
:class:`PipelineServiceModel`.

Resilience: pass ``faults=`` (a :class:`repro.faults.FaultSpec` or its
CLI string form) plus ``fault_seed`` / ``retry`` / ``max_queue`` /
``slo_cycles`` to either scheduler for deterministic chaos runs — see
:mod:`repro.faults`.
"""

from repro.serve.batcher import DynamicBatcher, InferenceRequest, ServingError
from repro.serve.metrics import (
    RequestRecord,
    ServingMetrics,
    aggregate_metrics,
    percentile,
)
from repro.serve.pipeline import PipelineFleetScheduler, build_pipeline_model
from repro.serve.runtime import (
    BatchAttempt,
    PipelineServiceModel,
    Replica,
    ReplicaStats,
)
from repro.serve.scheduler import (
    FleetScheduler,
    Policy,
    ServingResult,
    synthetic_arrivals,
)

__all__ = [
    "BatchAttempt",
    "DynamicBatcher",
    "FleetScheduler",
    "InferenceRequest",
    "PipelineFleetScheduler",
    "PipelineServiceModel",
    "Policy",
    "Replica",
    "ReplicaStats",
    "RequestRecord",
    "ServingError",
    "ServingMetrics",
    "ServingResult",
    "aggregate_metrics",
    "build_pipeline_model",
    "percentile",
    "synthetic_arrivals",
]
