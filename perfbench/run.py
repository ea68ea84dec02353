"""Repository benchmark: one workload, one seed, one JSON result line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload toolflow --seed 1 --seconds 40 --trace 0

Workloads are ``toolflow`` and ``serve`` (see README.md beside this
file).  A run times passes until ``--seconds`` have elapsed (at least
four) and sets the workload up five times, spread over that window
(``setup_s`` is the fastest set-up), then checks the outputs.  The last line of standard output is::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones, measured with
tracing off.  With ``--trace 1`` the run makes a discarded warm-up
pass, two untraced passes, then traced passes, and reports the
per-layer metrics; spans are written to
``.perfbench_out/`` when the run ends.  The exit code is 1 when an
output check fails and 2 when the program's sources are missing.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import statistics
import sys
import tempfile
import time
from pathlib import Path

# One BLAS thread: on a 2-core host a second thread waits on whatever
# else holds the other core, which made the numpy-heavy set-up far less
# steady than the single-threaded passes.  Set before numpy is imported.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
SETUP_REPEATS = 5
#: Fewest passes of an untraced run, however long they take: a run in a
#: slow phase of the host otherwise fits only three ``toolflow`` passes,
#: too few for each step's fastest to come from a calm stretch.
MIN_PASSES = 4
#: Untraced passes of a traced run, after one discarded warm-up pass.
UNTRACED_PASSES = 2


def load_program() -> None:
    """Put the checkout's ``src`` first on the path, or exit 2."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {src}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))


def workload_classes() -> dict:
    from wl_serve import ServeWorkload
    from wl_toolflow import ToolflowWorkload

    return {cls.name: cls for cls in (ToolflowWorkload, ServeWorkload)}


def metric_units(kind: str) -> dict:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def timed_passes(workload, seconds: float, make_tracer=None,
                 min_passes: int = 1, between=None, references=None) -> tuple:
    """Run passes until ``seconds`` have elapsed; at least ``min_passes``.

    With ``make_tracer`` every pass gets a fresh tracer and runs with
    the timing wrappers installed; returns ``(passes, tracers)``.
    ``between(elapsed)``, if given, runs after each pass, inside the
    window.  ``references``, if given, collects a timing of the
    reference loop before every step of an untraced pass and after the
    pass, so that the window's fastest loop and its fastest steps are
    sampled over the same stretches of time.
    """
    from instrument import instrument
    from measure import reference_loop_s

    def sample_reference() -> None:
        references.append(reference_loop_s())

    sample = None if references is None else sample_reference
    passes, tracers = [], []
    started = time.perf_counter()
    while len(passes) < min_passes or time.perf_counter() - started < seconds:
        # Every pass starts from the same collector state, and garbage
        # of the last pass does not inflate this one's peak memory.
        gc.collect()
        if make_tracer is None:
            passes.append(workload.run_pass(before_step=sample))
            if sample is not None:
                sample()
            if between is not None:
                between(time.perf_counter() - started)
            continue
        tracer = make_tracer()
        with instrument(tracer):
            passes.append(workload.run_pass(tracer))
        tracers.append(tracer)
    return passes, tracers


def fastest_steps(passes: list) -> dict:
    """Each step's fastest time over the run's passes.

    Every pass does the same work, and on a shared host interference
    only ever adds time, in bursts that can slow one step by half; the
    fastest of several passes is far steadier from run to run than
    their median.
    """
    return {
        step: min(p["steps"][step] for p in passes)
        for step in passes[0]["steps"]
    }


def run(workload_name: str, seed: int, seconds: float, trace: bool,
        classes: dict = None, setup_kwargs: dict = None, out_dir: Path = OUT_DIR):
    """Run one workload; returns ``(checks, metrics, artifact names)``."""
    from measure import (Checks, ChildTimer, Tracer, geomean, peak_rss_mb,
                         write_chrome_trace)

    cls = (classes or workload_classes())[workload_name]
    out_dir.mkdir(parents=True, exist_ok=True)

    def build(workdir: Path):
        return cls(seed, workdir, **(setup_kwargs or {}))

    # The extra set-ups run in children forked from the state before the
    # first one.  Built in this process, the discarded workloads left its
    # heap a different size each run; forked from it after some passes,
    # they started from a heap whose size varied too, and one of them set
    # the peak memory.
    with tempfile.TemporaryDirectory(dir=out_dir, prefix="run-") as scratch, \
            ChildTimer(lambda: build(Path(scratch) / "child")) as child_setups:
        setup_times = []

        def set_up_when_due(elapsed: float) -> None:
            # Set-ups spread evenly over the window, so that the fastest
            # of them, like each step's fastest pass, comes from the
            # window's calmest stretch.
            due = (1 + (SETUP_REPEATS - 1) * elapsed / seconds
                   if seconds else SETUP_REPEATS)
            if len(setup_times) < min(due, SETUP_REPEATS):
                setup_times.append(child_setups.seconds())

        gc.collect()
        started = time.perf_counter()
        workload = build(Path(scratch) / "setup")
        setup_times.append(time.perf_counter() - started)
        checks = Checks()
        if not trace:
            references = []
            passes, _ = timed_passes(workload, seconds, min_passes=MIN_PASSES,
                                     between=set_up_when_due,
                                     references=references)
            while len(setup_times) < SETUP_REPEATS:
                set_up_when_due(seconds)
            workload.check(passes, checks)
            steps = fastest_steps(passes)
            # Step times in units of the reference loop's time in the
            # same window: host slow phases, which slow both alike,
            # cancel out.  The loop's lower quartile, not its fastest
            # timing: a 4 ms loop now and then lands in a calm spell
            # far shorter than any step (see README.md).
            reference = statistics.quantiles(references, n=4)[0]
            print(f"perfbench: fastest steps {sum(steps.values()):.4f} s in all, "
                  f"reference loop {reference * 1e3:.4f} ms", file=sys.stderr)
            metrics = {
                "setup_s": min(setup_times),
                "peak_rss_mb": peak_rss_mb(),
                "pass_norm": sum(steps.values()) / reference,
                "step_geomean_norm": geomean(steps.values()) / reference,
                "modelled_latency_mcyc": workload.modelled_latency_mcyc(passes),
            }
            return checks, metrics, []

        # The warm-up pass pays first-touch and import costs that would
        # otherwise make the untraced reference look slow.
        timed_passes(workload, 0)
        untraced, _ = timed_passes(workload, 0, min_passes=UNTRACED_PASSES)
        passes, tracers = timed_passes(workload, seconds, Tracer)
        metrics = workload.check(passes, checks, reference_pass=untraced[0])
        metrics.update(workload.layer_metrics(tracers, passes))
        metrics["trace.overhead_s"] = (
            sum(fastest_steps(passes).values())
            - sum(fastest_steps(untraced).values())
        )
        stem = f"{workload_name}-seed{seed}"
        artifacts = [f"trace-{stem}.json"]
        write_chrome_trace(out_dir / artifacts[0], tracers, metrics)
        for table, text in workload.tables(tracers).items():
            artifacts.append(f"{table}-{stem}.txt")
            (out_dir / artifacts[-1]).write_text(text + "\n")
        return checks, metrics, artifacts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    load_program()
    classes = workload_classes()
    if args.workload not in classes:
        parser.error(
            f"unknown workload {args.workload!r} "
            f"(one of {', '.join(sorted(classes))})"
        )
    units = metric_units("per_layer" if args.trace else "end_to_end")
    checks, metrics, artifacts = run(
        args.workload, args.seed, args.seconds, bool(args.trace), classes
    )
    for failure in checks.failures:
        print(f"perfbench: check failed: {failure}", file=sys.stderr)
    for name in artifacts:
        print(f"perfbench: wrote {OUT_DIR / name}", file=sys.stderr)
    print(json.dumps({
        "correct": checks.ok,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {
            name: {"value": metrics.get(name, 0), "unit": unit}
            for name, unit in units.items()
        },
    }))
    return 0 if checks.ok else 1


if __name__ == "__main__":
    sys.exit(main())
