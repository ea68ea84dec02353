"""``toolflow`` workload: the compile suite, then the design-space sweep.

A pass is one ``compile`` pass (``wl_compile``: cold compiles of VGG-E,
an AlexNet prefix and native GoogLeNet) followed by one ``dse`` pass
(``wl_dse``: a grid swept on an empty store, then on the warm store).
Both halves are optimizer-bound, so they share one workload and its
long runs; ``serve`` is the workload that bypasses the optimizer.
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable, List, Optional

from measure import Checks, Tracer, geomean
from wl_compile import SUITE, CompileSuite, CompileWorkload
from wl_dse import GRID, DseWorkload


def _halves(passes: List[dict], key: str) -> List[dict]:
    return [p[key] for p in passes]


class ToolflowWorkload:
    name = "toolflow"

    def __init__(self, seed: int, workdir: Path, suite: CompileSuite = SUITE,
                 grid: dict = GRID):
        self.compile = CompileWorkload(seed, workdir, suite)
        self.dse = DseWorkload(seed, workdir, grid)

    def run_pass(self, tracer: Optional[Tracer] = None,
                 before_step: Optional[Callable[[], None]] = None) -> dict:
        compiled = self.compile.run_pass(tracer, before_step)
        swept = self.dse.run_pass(tracer, before_step)
        steps = dict(compiled["steps"])
        steps.update(
            (f"sweep_{phase}", seconds)
            for phase, seconds in swept["steps"].items()
        )
        return {"steps": steps, "compile": compiled, "dse": swept}

    def modelled_latency_mcyc(self, passes: List[dict]) -> float:
        return geomean([
            self.compile.modelled_latency_mcyc(_halves(passes, "compile")),
            self.dse.modelled_latency_mcyc(_halves(passes, "dse")),
        ])

    def layer_metrics(self, traced: List[Tracer], passes: List[dict]) -> dict:
        metrics = self.dse.layer_metrics(traced, _halves(passes, "dse"))
        metrics.update(
            self.compile.layer_metrics(traced, _halves(passes, "compile"))
        )
        return metrics

    def check(self, passes: List[dict], checks: Checks,
              reference_pass: Optional[dict] = None) -> dict:
        metrics = self.compile.check(
            _halves(passes, "compile"), checks,
            reference_pass and reference_pass["compile"],
        )
        metrics.update(self.dse.check(
            _halves(passes, "dse"), checks,
            reference_pass and reference_pass["dse"],
        ))
        return metrics

    def tables(self, traced: List[Tracer]) -> dict:
        return self.compile.tables(traced)
