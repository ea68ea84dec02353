"""Project-level HLS code generation.

Walks an optimized :class:`~repro.optimizer.strategy.Strategy`, renders
one engine per layer from the templates, wraps every fusion group in its
DATAFLOW top function, and writes the whole HLS project (sources, host
stub, Tcl build script, strategy report, and the strategy itself as a
loadable ``strategy`` artifact) to a directory.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

from repro.check.artifacts import atomic_write_text, wrap_payload
from repro.errors import CodegenError
from repro.codegen import templates
from repro.optimizer.serialize import (
    ARTIFACT_KIND,
    strategy_digests,
    strategy_to_dict,
)
from repro.optimizer.strategy import Strategy

#: FPGA part numbers for the device catalog entries.
PART_NUMBERS = {
    "zc706": "xc7z045ffg900-2",
    "vc707": "xc7vx485tffg1761-2",
    "zcu102": "xczu9eg-ffvb1156-2-e",
    "testchip": "xc7z010clg400-1",
}


@dataclass(frozen=True)
class GeneratedProject:
    """Paths and contents of a generated HLS project."""

    project_name: str
    files: Dict[str, str]

    def source_names(self) -> List[str]:
        return sorted(self.files)

    def write_to(self, directory: Path) -> List[Path]:
        """Write every file under ``directory``; returns written paths."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        written = []
        for name, content in sorted(self.files.items()):
            path = directory / name
            path.parent.mkdir(parents=True, exist_ok=True)
            atomic_write_text(path, content)
            written.append(path)
        return written


class CodeGenerator:
    """Renders a Strategy into an HLS project.

    Args:
        strategy: The optimized strategy to realize.
        project_name: Defaults to ``<network>_accel``.
        weights: Optional trained parameters (the
            :func:`repro.nn.functional.init_weights` layout); when given,
            quantized weight headers — Winograd kernels pre-transformed —
            are emitted alongside the sources.
    """

    def __init__(
        self,
        strategy: Strategy,
        project_name: Optional[str] = None,
        weights: Optional[dict] = None,
    ):
        self.strategy = strategy
        self.project_name = project_name or f"{strategy.network.name}_accel"
        self.weights = weights

    def generate(self) -> GeneratedProject:
        strategy = self.strategy
        network = strategy.network
        files: Dict[str, str] = {}
        files["common.h"] = templates.header_prelude(self.project_name)

        sources: List[str] = ["common.h"]
        for group_id, ((start, stop), design) in enumerate(
            zip(strategy.boundaries, strategy.designs)
        ):
            infos = [network[i] for i in range(start, stop)]
            impls = list(design.implementations)
            body_parts = ['#include "common.h"', ""]
            for info, impl in zip(infos, impls):
                body_parts.append(templates.render_layer(info, impl))
            body_parts.append(templates.group_top(group_id, infos, impls))
            filename = f"group{group_id}.cpp"
            files[filename] = "\n".join(body_parts)
            sources.append(filename)

        if self.weights is not None:
            from repro.codegen.weights import strategy_weight_headers

            files.update(strategy_weight_headers(strategy, self.weights))
        files["host.cpp"] = templates.host_stub(
            self.project_name, len(strategy.designs)
        )
        part = PART_NUMBERS.get(strategy.device.name)
        if part is None:
            raise CodegenError(
                f"no part number known for device {strategy.device.name!r}"
            )
        files["build.tcl"] = templates.build_script(self.project_name, sources, part)
        files["strategy_report.txt"] = strategy.report() + "\n"
        # The strategy as an ordinary ``strategy`` artifact document.
        document = wrap_payload(
            ARTIFACT_KIND,
            strategy_to_dict(strategy),
            digests=strategy_digests(strategy),
        )
        files["strategy.json"] = json.dumps(document, indent=2) + "\n"
        return GeneratedProject(project_name=self.project_name, files=files)


def generate_project(
    strategy: Strategy,
    output_dir: Optional[Path] = None,
    project_name: Optional[str] = None,
    weights: Optional[dict] = None,
) -> GeneratedProject:
    """Generate (and optionally write) the HLS project for a strategy."""
    project = CodeGenerator(strategy, project_name, weights=weights).generate()
    if output_dir is not None:
        project.write_to(Path(output_dir))
    return project
