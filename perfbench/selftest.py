"""Fast self-test of the benchmark harness on tiny inputs.

Usage (from the repository root)::

    python3 perfbench/selftest.py

Runs every workload on ``tiny_cnn`` / ``tiny_resnet`` and the
``testchip`` device, untraced and traced, and checks that:

* every end-to-end metric is emitted and positive, and every per-layer
  metric a workload is responsible for is emitted;
* a deliberately perturbed reference makes the output check fail: the
  functional reference and the sweep's reference compile for
  ``toolflow``, the offered request count for ``serve``;
* the committed tables under ``benchmarks/results/`` are left as they
  were.

Exits 0 when all of that holds.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys
import tempfile
from pathlib import Path

import run

#: Per-layer metric prefixes each workload must emit in a traced run.
#: ``sim.cycle_ratio.<model>`` is named after the suite's models and is
#: checked separately.
OWNED = {
    "toolflow": ("trace.", "nn.", "perf.", "optimizer.", "check.", "codegen.",
                 "sim.s", "dse.", "partition."),
    "serve": ("trace.", "traffic.", "serve.", "capacity.", "resilience."),
}


def require(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest: FAILED: {message}")


def results_digest() -> dict:
    results = run.ROOT / "benchmarks" / "results"
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(results.glob("*"))
    }


def tiny_setups() -> dict:
    import wl_compile
    import wl_dse
    import wl_serve

    return {
        "toolflow": {"suite": wl_compile.TINY_SUITE, "grid": wl_dse.TINY_GRID},
        "serve": {"suite": wl_serve.TINY_SUITE},
    }


def check_metrics(name: str, setup: dict, classes: dict, out_dir: Path) -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    checks, metrics, _ = run.run(name, 7, 0.0, False, classes, setup, out_dir)
    require(checks.ok, f"{name}: checks failed: {checks.failures}")
    for metric in spec["end_to_end"]:
        value = metrics.get(metric["name"])
        require(value is not None and value > 0,
                f"{name}: end-to-end {metric['name']} = {value!r}")

    checks, metrics, artifacts = run.run(
        name, 7, 0.0, True, classes, setup, out_dir
    )
    require(checks.ok, f"{name} traced: checks failed: {checks.failures}")
    owned = [
        m["name"] for m in spec["per_layer"]
        if m["name"].startswith(OWNED[name])
        and not m["name"].startswith("sim.cycle_ratio.")
    ]
    missing = [metric for metric in owned if metric not in metrics]
    require(not missing, f"{name} traced: per-layer metrics missing: {missing}")
    if name == "toolflow":
        for model in setup["suite"].models:
            require(f"sim.cycle_ratio.{model.name}" in metrics,
                    f"{name} traced: no cycle ratio for {model.name}")
    for artifact in artifacts:
        require((out_dir / artifact).is_file(), f"{name}: {artifact} missing")


def functional_reference(workload) -> None:
    case = workload.compile.cases[0]
    case.reference = case.reference + 1e-6 * max(
        1.0, float(abs(case.reference).max())
    )


def sweep_reference(workload) -> None:
    reference = workload.dse.reference
    workload.dse.reference = dataclasses.make_dataclass(
        "Perturbed", ["latency_cycles", "designs"]
    )(reference.latency_cycles + 1, reference.designs)


def offered_requests(workload) -> None:
    workload.suite = dataclasses.replace(
        workload.suite, flat_requests=workload.suite.flat_requests + 1
    )


PERTURBATIONS = {
    "toolflow": (functional_reference, sweep_reference),
    "serve": (offered_requests,),
}


def check_perturbed(name: str, setup: dict, classes: dict, workdir: Path) -> None:
    """Each perturbed reference must make the workload's check fail."""
    from measure import Checks

    for perturb in PERTURBATIONS[name]:
        workload = classes[name](7, workdir / perturb.__name__, **setup)
        passes = [workload.run_pass()]
        perturb(workload)
        checks = Checks()
        workload.check(passes, checks)
        require(not checks.ok,
                f"{name}: perturbed {perturb.__name__} passed the check")


def main() -> int:
    run.load_program()
    classes = run.workload_classes()
    before = results_digest()
    run.OUT_DIR.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT_DIR, prefix="selftest-") as tmp:
        tmp = Path(tmp)
        for name, setup in tiny_setups().items():
            check_metrics(name, setup, classes, tmp / name)
            check_perturbed(name, setup, classes, tmp / f"{name}-perturbed")
            print(f"selftest: {name} ok")
    require(results_digest() == before, "benchmarks/results/ changed")
    print("selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
