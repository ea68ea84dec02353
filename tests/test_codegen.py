"""Tests for HLS code generation (structure of the emitted C++)."""

import json

import pytest

from repro.errors import CodegenError
from repro.codegen import templates
from repro.codegen.generator import CodeGenerator, generate_project
from repro.hardware.device import get_device
from repro.nn import models
from repro.optimizer.dp import optimize
from repro.perf.implement import Algorithm, implement


@pytest.fixture(scope="module")
def strategy():
    net = models.tiny_cnn()
    dev = get_device("testchip")
    return optimize(net, dev, net.feature_map_bytes())


@pytest.fixture(scope="module")
def project(strategy):
    return CodeGenerator(strategy, project_name="tiny").generate()


def balanced(text: str) -> bool:
    depth = 0
    for ch in text:
        if ch == "{":
            depth += 1
        elif ch == "}":
            depth -= 1
            if depth < 0:
                return False
    return depth == 0


class TestTemplates:
    def test_conventional_conv_structure(self, strategy):
        net = strategy.network
        info = net[0]
        impl = implement(info, Algorithm.CONVENTIONAL, 8, strategy.device)
        code = templates.conventional_conv(info, impl)
        assert balanced(code)
        assert f"void {info.name}(" in code
        assert "#pragma HLS PIPELINE" in code
        assert "#pragma HLS ARRAY_PARTITION" in code
        assert "line_buf" in code
        assert "weights" in code

    def test_winograd_conv_structure(self, strategy):
        net = strategy.network
        info = net[0]
        impl = implement(info, Algorithm.WINOGRAD, 8, strategy.device)
        code = templates.winograd_conv(info, impl)
        assert balanced(code)
        assert "winograd_input_transform" in code
        assert "winograd_inverse_transform" in code
        assert "Winograd F(4x4, 3x3)" in code

    def test_pool_template(self, strategy):
        net = strategy.network
        info = net.layer("pool1")
        impl = implement(info, Algorithm.POOL, 4, strategy.device)
        code = templates.pool(info, impl)
        assert balanced(code)
        assert "line_buf" in code

    def test_lrn_template(self):
        from repro.nn.layers import InputSpec, LRNLayer
        from repro.nn.network import Network

        net = Network("t", InputSpec(8, 6, 6), [LRNLayer(name="n1")])
        dev = get_device("testchip")
        impl = implement(net[0], Algorithm.LRN, 4, dev)
        code = templates.lrn(net[0], impl)
        assert balanced(code)
        assert "lrn_pow" in code

    def test_wrong_layer_type_rejected(self, strategy):
        net = strategy.network
        conv = net[0]
        pool = net.layer("pool1")
        conv_impl = implement(conv, Algorithm.CONVENTIONAL, 4, strategy.device)
        with pytest.raises(CodegenError):
            templates.pool(conv, conv_impl)
        pool_impl = implement(pool, Algorithm.POOL, 4, strategy.device)
        with pytest.raises(CodegenError):
            templates.conventional_conv(pool, pool_impl)

    def test_group_top_has_dataflow_and_fifos(self, strategy):
        net = strategy.network
        infos = [net[0], net[1]]
        impls = [
            implement(infos[0], Algorithm.CONVENTIONAL, 4, strategy.device),
            implement(infos[1], Algorithm.CONVENTIONAL, 4, strategy.device),
        ]
        code = templates.group_top(0, infos, impls)
        assert "#pragma HLS DATAFLOW" in code
        assert "#pragma HLS STREAM" in code
        assert "group0_top" in code
        assert balanced(code)

    def test_group_top_validation(self, strategy):
        with pytest.raises(CodegenError):
            templates.group_top(0, [], [])

    def test_identifier_sanitization(self, strategy):
        net = strategy.network
        info = net[0]
        renamed = info.layer.renamed("1bad-name")
        from repro.nn.network import Network

        net2 = Network("x", net.input_spec, [renamed])
        impl = implement(net2[0], Algorithm.CONVENTIONAL, 4, strategy.device)
        code = templates.conventional_conv(net2[0], impl)
        assert "void l_1bad_name(" in code


class TestProject:
    def test_file_set(self, project, strategy):
        names = project.source_names()
        assert "common.h" in names
        assert "host.cpp" in names
        assert "build.tcl" in names
        assert "strategy.json" in names
        groups = [n for n in names if n.startswith("group")]
        assert len(groups) == len(strategy.designs)

    def test_all_sources_balanced(self, project):
        for name, content in project.files.items():
            if name.endswith((".cpp", ".h")):
                assert balanced(content), name

    def test_every_layer_rendered(self, project, strategy):
        source = "\n".join(project.files.values())
        for info in strategy.network:
            assert f"void {info.name}(" in source

    def test_build_script_part_number(self, project):
        assert "xc7z010clg400-1" in project.files["build.tcl"]

    def test_strategy_json_roundtrips(self, project, strategy, tmp_path):
        from repro.optimizer.serialize import load_strategy, strategy_to_dict

        document = json.loads(project.files["strategy.json"])
        assert document["repro_artifact"] == "strategy"
        assert document["payload"] == strategy_to_dict(strategy)
        path = tmp_path / "strategy.json"
        path.write_text(project.files["strategy.json"])
        reloaded = load_strategy(path, strategy.network)
        assert reloaded.report() == strategy.report()

    def test_strategy_json_envelope_validates(self, project):
        from repro.check.artifacts import parse_envelope

        document = json.loads(project.files["strategy.json"])
        envelope = parse_envelope(document, expected_kind="strategy")
        assert "network" in envelope.digests and "device" in envelope.digests

    def test_write_to_disk(self, project, tmp_path):
        written = project.write_to(tmp_path)
        assert len(written) == len(project.files)
        for path in written:
            assert path.exists()
            assert path.read_text() == project.files[path.name]

    def test_generate_project_helper(self, strategy, tmp_path):
        proj = generate_project(strategy, output_dir=tmp_path / "out")
        assert (tmp_path / "out" / "common.h").exists()
        assert proj.project_name.endswith("_accel")

    def test_unknown_device_part_rejected(self, strategy):
        from dataclasses import replace

        odd_device = replace(strategy.device, name="mystery")
        bad = CodeGenerator.__new__(CodeGenerator)
        bad.strategy = strategy
        bad.project_name = "x"
        # swap the device name via a shallow strategy copy
        from repro.optimizer.strategy import Strategy

        cloned = Strategy(
            strategy.network, odd_device, strategy.boundaries, strategy.designs
        )
        with pytest.raises(CodegenError):
            CodeGenerator(cloned).generate()
