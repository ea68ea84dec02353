"""repro — reproduction of "Exploring Heterogeneous Algorithms for
Accelerating Deep Convolutional Neural Networks on FPGAs" (DAC 2017).

The package maps a CNN (Caffe prototxt or built-in model) onto a modeled
FPGA by fusing layers into line-buffer dataflow groups and choosing, per
layer, between conventional and Winograd convolution engines with tuned
parallelism — the paper's dynamic-programming + branch-and-bound search —
then emits HLS C++ and simulates the result cycle-approximately.

Quickstart::

    from repro import compile_model
    result = compile_model("model.prototxt", device="zc706",
                           transfer_constraint_bytes=2 * 2**20)
    print(result.strategy.report())

Subpackages: :mod:`repro.nn` (CNN substrate), :mod:`repro.algorithms`
(convolution algorithms incl. general Winograd), :mod:`repro.hardware`
(device/roofline/power models), :mod:`repro.arch` (fusion architecture),
:mod:`repro.perf` (cost models), :mod:`repro.optimizer` (the strategy
search), :mod:`repro.baselines`, :mod:`repro.codegen`, :mod:`repro.sim`,
:mod:`repro.serve` (batched multi-replica serving runtime),
:mod:`repro.check` (artifact envelope, invariant validators, doctor).
"""

from repro.errors import (
    AlgorithmError,
    ArtifactError,
    ArtifactIntegrityError,
    ArtifactMismatchError,
    ArtifactSchemaError,
    ArtifactVersionError,
    CodegenError,
    OptimizationError,
    ParseError,
    ReproError,
    ResourceError,
    ShapeError,
    SimulationError,
    UnsupportedLayerError,
    VerificationError,
)
from repro.toolflow import CompileResult, compile_model

__version__ = "1.1.0"

__all__ = [
    "AlgorithmError",
    "ArtifactError",
    "ArtifactIntegrityError",
    "ArtifactMismatchError",
    "ArtifactSchemaError",
    "ArtifactVersionError",
    "CodegenError",
    "CompileResult",
    "OptimizationError",
    "ParseError",
    "ReproError",
    "ResourceError",
    "ShapeError",
    "SimulationError",
    "UnsupportedLayerError",
    "VerificationError",
    "compile_model",
    "__version__",
]
