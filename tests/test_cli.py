"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import _parse_size, build_parser, main
from repro.nn import models
from repro.nn.caffe import network_to_prototxt


class TestParseSize:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("2MB", 2 * 2**20),
            ("340KB", 340 * 1024),
            ("1024", 1024),
            ("0.5MB", 2**19),
            ("7b", 7),
        ],
    )
    def test_valid(self, text, expected):
        assert _parse_size(text) == expected

    def test_invalid(self):
        import argparse

        with pytest.raises(argparse.ArgumentTypeError):
            _parse_size("lots")


class TestInformational:
    def test_models_lists_zoo(self, capsys):
        assert main(["models"]) == 0
        out = capsys.readouterr().out
        for name in ("alexnet", "vgg19", "tiny_cnn"):
            assert name in out

    def test_devices_lists_catalog(self, capsys):
        assert main(["devices"]) == 0
        out = capsys.readouterr().out
        assert "zc706" in out
        assert "900" in out  # its DSP count

    def test_winograd_matrices(self, capsys):
        assert main(["winograd", "2", "3"]) == 0
        out = capsys.readouterr().out
        assert "A^T" in out and "G" in out and "B^T" in out
        assert "2.25x" in out


class TestCompile:
    def test_compile_zoo_model(self, capsys):
        assert main(["compile", "tiny_cnn", "--device", "testchip"]) == 0
        out = capsys.readouterr().out
        assert "Strategy for tiny_cnn" in out

    def test_compile_with_output_and_simulation(self, capsys, tmp_path):
        code = main(
            [
                "compile",
                "tiny_cnn",
                "--device",
                "testchip",
                "--out",
                str(tmp_path / "hls"),
                "--simulate",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "simulated latency" in out
        assert (tmp_path / "hls" / "build.tcl").exists()

    def test_compile_prototxt_file(self, capsys, tmp_path):
        path = tmp_path / "m.prototxt"
        path.write_text(network_to_prototxt(models.tiny_cnn()))
        assert main(["compile", str(path), "--device", "testchip"]) == 0

    def test_compile_with_transfer_constraint(self, capsys):
        net = models.tiny_cnn()
        budget = f"{net.min_fused_transfer_bytes()}B"
        assert main(
            ["compile", "tiny_cnn", "--device", "testchip", "--transfer", budget]
        ) == 0
        out = capsys.readouterr().out
        assert "1 fusion group" in out

    def test_compile_stats_prints_telemetry(self, capsys):
        code = main(
            ["compile", "tiny_cnn", "--device", "testchip", "--stats"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "search telemetry:" in out
        assert "implement() evaluations" in out
        assert "B&B nodes visited" in out
        assert "B&B nodes pruned" in out

    def test_unknown_model_errors(self, capsys):
        assert main(["compile", "nonexistent_model"]) == 1
        err = capsys.readouterr().err
        assert "error:" in err

    def test_compile_json(self, capsys):
        import json

        code = main(
            ["compile", "tiny_cnn", "--device", "testchip", "--json", "--stats"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["network"] == "tiny_cnn"
        assert payload["device"] == "testchip"
        assert payload["latency_seconds"] > 0
        assert payload["telemetry"]["evaluations"] > 0
        assert payload["groups"]

    def test_compile_graph_json_stats_include_energy(self, capsys):
        code = main(
            ["compile", "tiny_resnet", "--device", "testchip", "--json",
             "--stats"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == "graph_strategy"
        assert payload["energy_per_inference_j"] > 0
        assert payload["board_power_w"] > 0


class TestSweep:
    def test_sweep_table(self, capsys):
        net = models.tiny_cnn()
        lo = net.min_fused_transfer_bytes()
        hi = net.feature_map_bytes()
        code = main(
            [
                "sweep",
                "tiny_cnn",
                "--device",
                "testchip",
                "--constraints",
                f"{lo}B,{hi}B",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "latency (Mcyc)" in out
        assert "tiny_cnn on testchip" in out

    def test_sweep_with_baseline(self, capsys):
        net = models.tiny_cnn()
        hi = net.feature_map_bytes()
        code = main(
            [
                "sweep",
                "tiny_cnn",
                "--device",
                "testchip",
                "--constraints",
                f"{hi}B",
                "--baseline",
            ]
        )
        assert code == 0
        assert "speedup vs [1]" in capsys.readouterr().out

    def test_sweep_json(self, capsys):
        import json

        net = models.tiny_cnn()
        lo = net.min_fused_transfer_bytes()
        hi = net.feature_map_bytes()
        code = main(
            [
                "sweep",
                "tiny_cnn",
                "--device",
                "testchip",
                "--constraints",
                f"{lo}B,{hi}B",
                "--baseline",
                "--json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["device"] == "testchip"
        assert len(payload["rows"]) == 2
        assert payload["rows"][0]["constraint_bytes"] == lo
        assert all(row["speedup_vs_baseline"] > 0 for row in payload["rows"])
        # The looser budget can only help.
        assert (
            payload["rows"][1]["latency_cycles"]
            <= payload["rows"][0]["latency_cycles"]
        )


class TestPartition:
    def test_partition_report(self, capsys):
        code = main(
            ["partition", "tiny_cnn", "--devices", "testchip,testchip"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "fleet testchip+testchip" in out
        assert "Partition of tiny_cnn" in out
        assert "pipelined" in out

    def test_partition_simulate_and_stats(self, capsys):
        code = main(
            [
                "partition",
                "tiny_cnn",
                "--devices",
                "testchip,testchip",
                "--simulate",
                "--stats",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "search telemetry:" in out
        assert "fleet simulation:" in out
        assert "fleet timeline:" in out

    def test_partition_json_and_save(self, capsys, tmp_path):
        import json

        path = tmp_path / "plan.json"
        code = main(
            [
                "partition",
                "tiny_cnn",
                "--devices",
                "testchip,testchip",
                "--json",
                "--save",
                str(path),
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["fleet"]["devices"] == ["testchip", "testchip"]
        assert payload["stages"]
        saved = json.loads(path.read_text())
        assert saved["repro_artifact"] == "partition_plan"
        assert saved["payload"] == payload

    def test_partition_link_flags(self, capsys):
        """A crawling link forces the whole model onto one board."""
        code = main(
            [
                "partition",
                "tiny_cnn",
                "--devices",
                "testchip,testchip",
                "--link-gbs",
                "0.000001",
            ]
        )
        assert code == 0
        assert "1 stage(s)" in capsys.readouterr().out

    def test_partition_unknown_device_is_clean_error(self, capsys):
        assert main(["partition", "tiny_cnn", "--devices", "nope,nope"]) == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_partition_serve_with_faults(self, capsys):
        code = main(
            [
                "partition",
                "tiny_cnn",
                "--devices",
                "testchip,testchip",
                "--serve",
                "30",
                "--pipelines",
                "2",
                "--faults",
                "transient:p=0.2",
                "--seed",
                "3",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "served 30 synthetic requests through 2 pipeline(s)" in out
        assert "faults 'transient:p=0.2'" in out

    def test_partition_bad_faults_spec_is_clean_error(self, capsys):
        assert (
            main(
                [
                    "partition",
                    "tiny_cnn",
                    "--devices",
                    "testchip,testchip",
                    "--serve",
                    "10",
                    "--faults",
                    "meteor:at=0",
                ]
            )
            == 1
        )
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "unknown fault kind 'meteor'" in err
        assert err.count("\n") <= 1  # one line, no traceback

    def test_partition_dag_json(self, capsys):
        code = main(
            ["partition", "tiny_resnet", "--devices", "testchip,testchip",
             "--json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["network"] == "tiny_resnet"
        assert payload["fleet"]["devices"] == ["testchip", "testchip"]
        kinds = {stage["strategy"]["kind"] for stage in payload["stages"]}
        assert kinds == {"graph_strategy"}
        assert len(payload["transfers"]) == len(payload["stages"]) - 1

    def test_replan_dag(self, capsys):
        code = main(
            ["replan", "tiny_resnet", "--devices", "testchip,testchip",
             "--dead-stage", "1", "--json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["original"]["stages"]) == 2
        assert payload["survivor"]["fleet"]["devices"] == ["testchip"]
        assert payload["handover_cycles"] > 0

    def test_partition_dag_simulate_and_serve(self, capsys):
        code = main(
            ["partition", "tiny_resnet", "--devices", "testchip,testchip",
             "--simulate", "--serve", "50"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "fleet simulation:" in out
        assert "served 50 synthetic requests" in out

    def test_partition_dag_save_checks_and_replans(self, capsys, tmp_path):
        from repro.check.invariants import verify_plan
        from repro.partition import load_plan
        from repro.resilience import replan_survivors

        path = tmp_path / "plan.json"
        code = main(
            ["partition", "tiny_resnet", "--devices", "testchip,testchip",
             "--simulate", "--save", str(path)]
        )
        assert code == 0
        assert main(["check", str(path)]) == 0
        assert "plan[tiny_resnet across testchip+testchip]: ok" in (
            capsys.readouterr().out
        )
        plan = load_plan(path, models.tiny_resnet())
        assert verify_plan(plan).ok
        assert verify_plan(replan_survivors(plan, 0)).ok


class TestServeSim:
    def test_serves_and_prints_metrics(self, capsys):
        code = main(
            [
                "serve-sim",
                "tiny_cnn",
                "--device",
                "testchip",
                "--replicas",
                "2",
                "--requests",
                "40",
                "--load",
                "2.0",
                "--max-batch",
                "4",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "served 40 requests on 2 replica(s)" in out
        assert "p50" in out and "p99" in out
        assert "replica 1:" in out

    def test_round_robin_policy(self, capsys):
        code = main(
            [
                "serve-sim",
                "tiny_cnn",
                "--device",
                "testchip",
                "--requests",
                "10",
                "--policy",
                "round_robin",
            ]
        )
        assert code == 0
        assert "round_robin" in capsys.readouterr().out

    def test_unknown_model_is_clean_error(self, capsys):
        assert main(["serve-sim", "no_such_model"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")

    def test_faults_and_slo_flags(self, capsys):
        code = main(
            [
                "serve-sim",
                "tiny_cnn",
                "--device",
                "testchip",
                "--replicas",
                "2",
                "--requests",
                "40",
                "--faults",
                "transient:p=0.2",
                "--max-queue",
                "64",
                "--slo",
                "2e5",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "fault schedule: 'transient:p=0.2'" in out
        assert "SLO attainment" in out

    def test_json_output(self, capsys):
        code = main(
            [
                "serve-sim",
                "tiny_cnn",
                "--device",
                "testchip",
                "--requests",
                "20",
                "--faults",
                "transient:p=0.1",
                "--json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["requests"] + payload["failed"] == 20
        assert "goodput_per_second" in payload
        assert isinstance(payload["replicas"], list)

    def test_bad_faults_spec_is_clean_one_line_error(self, capsys):
        assert (
            main(
                [
                    "serve-sim",
                    "tiny_cnn",
                    "--device",
                    "testchip",
                    "--faults",
                    "crash:replica=0",
                ]
            )
            == 1
        )
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "crash fault needs at=" in err
        assert err.count("\n") <= 1

    def test_out_of_range_replica_is_clean_error(self, capsys):
        assert (
            main(
                [
                    "serve-sim",
                    "tiny_cnn",
                    "--device",
                    "testchip",
                    "--replicas",
                    "2",
                    "--faults",
                    "crash:replica=9,at=0",
                ]
            )
            == 1
        )
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "replica 9" in err

    def test_fault_runs_reproduce_identical_output(self, capsys):
        argv = [
            "serve-sim",
            "tiny_cnn",
            "--device",
            "testchip",
            "--replicas",
            "2",
            "--requests",
            "40",
            "--faults",
            "transient:p=0.3;crash:replica=1,at=5e4,down=5e4",
            "--json",
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first


class TestCheckCommand:
    def test_check_validates_strategy_and_plan(self, capsys, tmp_path):
        from repro.hardware.device import get_device
        from repro.optimizer.dp import optimize
        from repro.optimizer.serialize import save_strategy
        from repro.toolflow import partition_model

        net = models.tiny_cnn()
        strategy = optimize(net, get_device("testchip"), net.feature_map_bytes())
        spath = save_strategy(strategy, tmp_path / "strategy.json")
        plan = partition_model(net, devices="testchip,testchip")
        ppath = plan.save(tmp_path / "plan.json")
        assert main(["check", str(spath), str(ppath)]) == 0
        out = capsys.readouterr().out
        assert "strategy" in out and "partition_plan" in out
        assert "2 artifact(s) ok" in out

    def test_check_rejects_corrupted_artifact(self, capsys, tmp_path):
        from repro.hardware.device import get_device
        from repro.optimizer.dp import optimize
        from repro.optimizer.serialize import save_strategy

        net = models.tiny_cnn()
        strategy = optimize(net, get_device("testchip"), net.feature_map_bytes())
        path = save_strategy(strategy, tmp_path / "strategy.json")
        path.write_text(path.read_text().replace('"groups"', '"gruops"', 1))
        assert main(["check", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "E_" in err  # the stable error code surfaces

    def test_check_validates_codegen_blob(self, capsys, tmp_path):
        from repro.optimizer.serialize import load_strategy
        from repro.toolflow import compile_model

        result = compile_model(models.tiny_cnn(), device="testchip")
        out_dir = tmp_path / "proj"
        result.project.write_to(out_dir)
        blob = out_dir / "strategy.json"
        assert main(["check", str(blob)]) == 0
        out = capsys.readouterr().out
        assert "strategy, envelope" in out
        assert "strategy[tiny_cnn on testchip]: ok" in out
        reloaded = load_strategy(blob, result.network)
        assert reloaded.report() == result.strategy.report()

    def test_check_accepts_old_codegen_blob(self, capsys, tmp_path):
        # Generated projects used to embed a report-only blob of kind
        # codegen_strategy; it still passes its envelope check.
        from repro.check.artifacts import save_artifact
        from repro.optimizer.serialize import strategy_digests
        from repro.toolflow import compile_model

        strategy = compile_model(models.tiny_cnn(), device="testchip").strategy
        payload = {
            "network": strategy.network.name,
            "device": strategy.device.name,
            "latency_cycles": strategy.latency_cycles,
            "feature_transfer_bytes": strategy.feature_transfer_bytes,
            "weight_transfer_bytes": strategy.weight_transfer_bytes,
            "groups": [
                {
                    "range": [start, stop],
                    "layers": [
                        {
                            "name": impl.layer_name,
                            "algorithm": impl.algorithm.value,
                            "parallelism": impl.parallelism,
                            "compute_cycles": impl.compute_cycles,
                            **impl.resources.as_dict(),
                        }
                        for impl in design.implementations
                    ],
                }
                for (start, stop), design in zip(
                    strategy.boundaries, strategy.designs
                )
            ],
        }
        path = save_artifact(
            tmp_path / "strategy.json", "codegen_strategy", payload,
            digests=strategy_digests(strategy),
        )
        assert main(["check", str(path)]) == 0
        assert "envelope integrity ok" in capsys.readouterr().out

    def test_check_validates_dag_strategy(self, capsys, tmp_path):
        from repro.optimizer.serialize import save_strategy
        from repro.toolflow import compile_model

        result = compile_model(models.tiny_resnet(), device="zc706")
        path = save_strategy(result.strategy, tmp_path / "s.json")
        assert main(["check", str(path)]) == 0
        assert "graph-strategy[tiny_resnet on zc706]: ok" in (
            capsys.readouterr().out
        )


class TestDoctorCommand:
    def test_doctor_quick_passes(self, capsys):
        assert main(["doctor"]) == 0
        out = capsys.readouterr().out
        assert "all checks passed" in out
        assert "corruption-detection" in out

    def test_doctor_json(self, capsys):
        assert main(["doctor", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert payload["deep"] is False
        assert payload["checks"]


class TestNoVerifyFlag:
    def test_compile_no_verify_bit_identical(self, capsys):
        assert main(["compile", "tiny_cnn", "--device", "testchip", "--json"]) == 0
        verified = capsys.readouterr().out
        assert (
            main(
                [
                    "compile", "tiny_cnn", "--device", "testchip",
                    "--json", "--no-verify",
                ]
            )
            == 0
        )
        assert capsys.readouterr().out == verified

    def test_partition_no_verify_bit_identical(self, capsys):
        base = ["partition", "tiny_cnn", "--devices", "testchip,testchip",
                "--json"]
        assert main(base) == 0
        verified = capsys.readouterr().out
        assert main(base + ["--no-verify"]) == 0
        assert capsys.readouterr().out == verified

    def test_serve_sim_no_verify_bit_identical(self, capsys):
        base = ["serve-sim", "tiny_cnn", "--device", "testchip",
                "--requests", "20", "--json"]
        assert main(base) == 0
        verified = capsys.readouterr().out
        assert main(base + ["--no-verify"]) == 0
        assert capsys.readouterr().out == verified


class TestCacheCommand:
    def _warm(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_COST_CACHE", str(tmp_path / "cache"))
        assert main(
            ["compile", "tiny_cnn", "--device", "testchip", "--cache"]
        ) == 0

    def test_compile_cache_then_stats(self, capsys, tmp_path, monkeypatch):
        self._warm(tmp_path, monkeypatch)
        capsys.readouterr()
        assert main(["cache", "stats"]) == 0
        out = capsys.readouterr().out
        assert "cost store" in out
        assert str(tmp_path / "cache") in out

    def test_warm_compile_reports_store_hits(
        self, capsys, tmp_path, monkeypatch
    ):
        self._warm(tmp_path, monkeypatch)
        capsys.readouterr()
        assert main(
            [
                "compile", "tiny_cnn", "--device", "testchip",
                "--cache", "--stats", "--json",
            ]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        telemetry = payload["telemetry"]
        assert telemetry["evaluations"] == telemetry["groups_searched"] == 0
        assert telemetry["store_hits"] > 0

    def test_stats_json(self, capsys, tmp_path, monkeypatch):
        self._warm(tmp_path, monkeypatch)
        capsys.readouterr()
        assert main(["cache", "stats", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["entries"] > 0
        assert payload["corrupt_shards"] == 0

    def test_gc_and_clear(self, capsys, tmp_path, monkeypatch):
        self._warm(tmp_path, monkeypatch)
        capsys.readouterr()
        assert main(["cache", "gc", "--max-entries", "5"]) == 0
        assert "5 remain" in capsys.readouterr().out
        assert main(["cache", "clear"]) == 0
        assert "removed 5" in capsys.readouterr().out

    def test_explicit_dir_flag(self, capsys, tmp_path):
        assert main(
            [
                "compile", "tiny_cnn", "--device", "testchip",
                "--cache", str(tmp_path / "explicit"),
            ]
        ) == 0
        capsys.readouterr()
        assert main(
            ["cache", "stats", "--dir", str(tmp_path / "explicit"), "--json"]
        ) == 0
        assert json.loads(capsys.readouterr().out)["entries"] > 0

    def test_sweep_cache_flag(self, capsys, tmp_path):
        argv = [
            "sweep", "tiny_cnn", "--device", "testchip",
            "--constraints", "1MB", "--cache", str(tmp_path / "c"), "--json",
        ]
        assert main(argv) == 0
        cold = json.loads(capsys.readouterr().out)
        assert main(argv) == 0
        warm = json.loads(capsys.readouterr().out)
        assert cold["rows"] == warm["rows"]

    def test_replan_cache_warms_the_original_plan(
        self, capsys, tmp_path, monkeypatch
    ):
        import repro.toolflow

        searched = []
        partition_model = repro.toolflow.partition_model

        def recording(*args, **kwargs):
            plan = partition_model(*args, **kwargs)
            searched.append(plan.telemetry.evaluations)
            return plan

        monkeypatch.setattr(repro.toolflow, "partition_model", recording)
        argv = [
            "replan", "tiny_cnn", "--devices", "testchip,testchip",
            "--cache", str(tmp_path / "c"), "--json",
        ]
        assert main(argv) == 0
        cold = json.loads(capsys.readouterr().out)
        assert main(argv) == 0
        warm = json.loads(capsys.readouterr().out)
        assert searched[0] > 0 and searched[1] == 0
        assert cold["original"] == warm["original"]
        assert cold["survivor"] == warm["survivor"]


class TestSweepGridCommand:
    ARGS = [
        "sweep-grid", "--models", "tiny_cnn", "--devices", "testchip",
        "--transfers", "1MB,none",
    ]

    def test_axis_flags_table_output(self, capsys, tmp_path):
        assert main(self.ARGS + ["--out", str(tmp_path / "out")]) == 0
        out = capsys.readouterr().out
        assert "sweep grid (2 points)" in out
        assert "computed" in out
        assert (tmp_path / "out" / "sweep_results.json").exists()
        assert (tmp_path / "out" / "journal.jsonl").exists()
        assert (tmp_path / "out" / "cost_store").is_dir()

    def test_json_output_and_resume(self, capsys, tmp_path):
        argv = self.ARGS + ["--out", str(tmp_path / "out"), "--json"]
        assert main(argv) == 0
        cold = json.loads(capsys.readouterr().out)
        assert cold["computed"] == 2
        assert main(argv + ["--resume"]) == 0
        resumed = json.loads(capsys.readouterr().out)
        assert resumed["computed"] == 0
        assert resumed["resumed"] == 2

    def test_spec_file(self, capsys, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(
            json.dumps({"models": ["tiny_cnn"], "devices": ["testchip"]})
        )
        assert main(
            [
                "sweep-grid", "--spec", str(spec),
                "--out", str(tmp_path / "out"), "--json",
            ]
        ) == 0
        assert json.loads(capsys.readouterr().out)["points"] == 1

    def test_no_cache_flag(self, capsys, tmp_path):
        assert main(
            self.ARGS + ["--out", str(tmp_path / "out"), "--no-cache"]
        ) == 0
        assert not (tmp_path / "out" / "cost_store").exists()

    def test_workers_flag(self, capsys, tmp_path):
        assert main(
            self.ARGS + ["--out", str(tmp_path / "out"), "--workers", "2"]
        ) == 0
        assert "2 computed" in capsys.readouterr().out

    def test_spec_and_axes_conflict(self, capsys, tmp_path):
        assert main(
            [
                "sweep-grid", "--spec", "x.json", "--models", "tiny_cnn",
                "--out", str(tmp_path / "out"),
            ]
        ) == 1
        assert "not both" in capsys.readouterr().err

    def test_missing_axes(self, capsys, tmp_path):
        assert main(
            ["sweep-grid", "--models", "tiny_cnn", "--out", str(tmp_path)]
        ) == 1
        assert "required" in capsys.readouterr().err

    def test_failed_point_exits_nonzero(self, capsys, tmp_path):
        assert main(
            [
                "sweep-grid", "--models", "tiny_cnn", "--devices",
                "testchip", "--transfers", "1B",
                "--out", str(tmp_path / "out"),
            ]
        ) == 1
        assert "FAILED" in capsys.readouterr().out


class TestSubcommandFailurePaths:
    """Every artifact-touching subcommand exits 1 with a one-line
    ``error:`` message when a ReproError surfaces."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["compile", "no_such_model"],
            ["sweep", "no_such_model"],
            ["partition", "tiny_cnn", "--devices", "ghost,ghost"],
            ["serve-sim", "no_such_model"],
            ["winograd", "0", "3"],
            ["check", "/nonexistent/artifact.json"],
            ["sweep-grid", "--spec", "/nonexistent/spec.json", "--out", "/tmp/x"],
        ],
        ids=[
            "compile", "sweep", "partition", "serve-sim", "winograd",
            "check", "sweep-grid",
        ],
    )
    def test_exits_nonzero_with_one_line_error(self, argv, capsys):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Traceback" not in err
        assert len(err.strip().splitlines()) == 1


class TestErgonomics:
    def test_version_flag(self, capsys):
        from repro import __version__

        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert f"repro {__version__}" in capsys.readouterr().out

    def test_malformed_prototxt_one_line_error(self, capsys, tmp_path):
        """A file that exists but does not parse: exit 1, no traceback."""
        path = tmp_path / "bad.prototxt"
        path.write_text("this is not { a prototxt")
        assert main(["compile", str(path), "--device", "testchip"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Traceback" not in err
        assert len(err.strip().splitlines()) == 1

    def test_unreadable_model_path_is_clean_error(self, capsys, tmp_path):
        missing = tmp_path / "nope" / "model.prototxt"
        assert main(["compile", str(missing)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")

    def test_unknown_device_rejected_with_usage(self):
        """argparse validates the device catalog up front (exit 2)."""
        with pytest.raises(SystemExit) as exc:
            main(["serve-sim", "tiny_cnn", "--device", "nope"])
        assert exc.value.code == 2


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_device_choices_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["compile", "x", "--device", "nope"])


class TestServeSimTraffic:
    """Arrival-process and multi-tenant extensions of serve-sim."""

    BASE = ["serve-sim", "tiny_cnn", "--device", "testchip",
            "--requests", "30"]

    def test_json_metrics_carry_arrival_provenance(self, capsys):
        assert main(self.BASE + ["--seed", "3", "--json"]) == 0
        metrics = json.loads(capsys.readouterr().out)
        assert metrics["arrival"]["seed"] == 3
        assert metrics["arrival"]["process"] == "poisson"
        assert metrics["arrival"]["num_requests"] == 30

    def test_arrival_spec_single_tenant(self, capsys):
        assert main(
            self.BASE + ["--arrival", "constant:mean=30000", "--json"]
        ) == 0
        metrics = json.loads(capsys.readouterr().out)
        assert metrics["arrival"]["process"].startswith("constant:")
        assert metrics["requests"] == 30

    def test_multi_tenant_run(self, capsys):
        assert main(
            self.BASE
            + [
                "--models", "tiny_cnn",
                "--arrival", "poisson:mean=30000|constant:mean=50000",
                "--weights", "2,1",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "2 tenant(s)" in out
        assert "tiny_cnn-2" in out  # duplicate names auto-disambiguated
        assert "warm swaps" in out

    def test_multi_tenant_json_replays_bit_identically(self, capsys):
        args = self.BASE + [
            "--models", "tiny_cnn",
            "--arrival", "poisson:mean=30000",
            "--seed", "11", "--json",
        ]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        assert capsys.readouterr().out == first
        payload = json.loads(first)
        assert set(payload["tenants"]) == {"tiny_cnn", "tiny_cnn-2"}

    def test_trace_replay(self, capsys, tmp_path):
        from repro.traffic import TrafficTrace

        trace = TrafficTrace.record(
            {"a": "poisson:mean=30000", "b": "constant:mean=50000"},
            num_requests=20,
            seed=5,
        )
        path = trace.save(tmp_path / "trace.json")
        assert main(
            [
                "serve-sim", "tiny_cnn", "--device", "testchip",
                "--models", "tiny_cnn", "--trace", str(path), "--json",
            ]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        # Tenant names come from the trace, not the models.
        assert set(payload["tenants"]) == {"a", "b"}
        assert payload["tenants"]["a"]["arrival"]["process"].startswith(
            "poisson:"
        )

    def test_trace_tenant_count_mismatch_is_clean_error(
        self, capsys, tmp_path
    ):
        from repro.traffic import TrafficTrace

        trace = TrafficTrace.record(
            {"a": "poisson:mean=30000"}, num_requests=10, seed=0
        )
        path = trace.save(tmp_path / "trace.json")
        assert main(
            [
                "serve-sim", "tiny_cnn", "--device", "testchip",
                "--models", "tiny_cnn", "--trace", str(path),
            ]
        ) == 1
        assert "counts must match" in capsys.readouterr().err

    def test_multi_tenant_without_arrival_is_clean_error(self, capsys):
        assert main(self.BASE + ["--models", "tiny_cnn"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "--arrival" in err

    def test_bad_arrival_spec_is_clean_error(self, capsys):
        assert main(self.BASE + ["--arrival", "warp:speed=9"]) == 1
        assert "unknown arrival kind" in capsys.readouterr().err


class TestPlanCapacityCommand:
    TENANTS = [
        "--tenant",
        "name=vision;model=tiny_cnn;arrival=poisson:mean=40000;"
        "slo-ms=2;requests=30",
        "--tenant",
        "name=detect;model=tiny_cnn;arrival=mmpp:mean=60000,burst=5;"
        "slo-ms=4;requests=20",
    ]
    BASE = ["plan-capacity"] + TENANTS + [
        "--devices", "testchip", "--max-replicas", "2",
        "--batch-sizes", "1,4", "--seed", "7",
    ]

    def test_plan_summary(self, capsys):
        assert main(self.BASE) == 0
        out = capsys.readouterr().out
        assert "capacity plan: 1x testchip" in out
        assert "vision" in out and "detect" in out
        assert "SLO" in out

    def test_json_and_save_roundtrip(self, capsys, tmp_path):
        from repro.capacity import load_capacity_plan

        path = tmp_path / "plan.json"
        assert main(self.BASE + ["--json", "--save", str(path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        plan = load_capacity_plan(path)
        assert payload["device"] == plan.device == "testchip"
        assert payload["trace_digest"] == plan.trace_digest
        # The saved artifact passes repro check.
        assert main(["check", str(path)]) == 0

    def test_baseline_comparison(self, capsys):
        assert main(self.BASE + ["--baseline"]) == 0
        out = capsys.readouterr().out
        assert "per-model baseline" in out
        assert "consolidation saves" in out

    def test_bad_tenant_spec_is_clean_error(self, capsys):
        assert main(
            ["plan-capacity", "--tenant", "model=tiny_cnn",
             "--devices", "testchip"]
        ) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "missing" in err

    def test_unknown_tenant_key_is_clean_error(self, capsys):
        assert main(
            ["plan-capacity", "--tenant",
             "name=a;model=tiny_cnn;arrival=poisson:mean=1000;turbo=1"]
        ) == 1
        assert "bad --tenant field" in capsys.readouterr().err

    def test_infeasible_is_clean_error(self, capsys):
        assert main(
            ["plan-capacity", "--tenant",
             "name=a;model=tiny_cnn;arrival=poisson:mean=40000;"
             "slo-ms=0.000001",
             "--devices", "testchip", "--max-replicas", "1",
             "--batch-sizes", "1"]
        ) == 1
        assert "no feasible fleet" in capsys.readouterr().err


class TestCommandShape:
    """One renderer (save before any output), one seed rule, and one
    evaluation context per command."""

    PARTITION = ["partition", "tiny_cnn", "--devices", "testchip,testchip"]

    @pytest.mark.parametrize("mode", [[], ["--json"]])
    @pytest.mark.parametrize("command", ["plan-capacity", "partition", "replan"])
    def test_unsavable_plan_prints_nothing(
        self, capsys, tmp_path, command, mode
    ):
        argv = {
            "plan-capacity": TestPlanCapacityCommand.BASE,
            "partition": self.PARTITION,
            "replan": ["replan"] + self.PARTITION[1:],
        }[command]
        blocker = tmp_path / "file"
        blocker.write_text("not a directory")
        assert main(argv + mode + ["--save", str(blocker / "plan.json")]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        if command == "plan-capacity" and not mode:
            # Only the progress log: no report, no "written to" line.
            assert "capacity plan:" not in captured.out
        else:
            assert captured.out == ""

    def test_plan_capacity_seed_drives_fault_draws(self, capsys):
        from repro.capacity import plan_capacity
        from repro.cli import _parse_tenant_demand

        faults = "transient:p=0.1"
        argv = TestPlanCapacityCommand.BASE[:-2] + [
            "--seed", "3", "--faults", faults, "--json",
        ]
        assert main(argv) == 0
        payload = json.loads(capsys.readouterr().out)
        tenants = TestPlanCapacityCommand.TENANTS[1::2]

        def planned(fault_seed):
            plan = plan_capacity(
                [_parse_tenant_demand(spec) for spec in tenants],
                devices=["testchip"], max_replicas=2, batch_sizes=[1, 4],
                seed=3, faults=faults, fault_seed=fault_seed,
            )
            return json.loads(json.dumps(plan.to_payload()))

        assert payload == planned(3)
        assert payload != planned(0)

    def test_partition_cache_is_strategy_preserving(self, capsys, tmp_path):
        assert main(self.PARTITION + ["--json"]) == 0
        plain = json.loads(capsys.readouterr().out)
        argv = self.PARTITION + [
            "--cache", str(tmp_path / "c"), "--stats", "--json",
        ]
        assert main(argv) == 0
        cold = json.loads(capsys.readouterr().out)
        assert main(argv) == 0
        warm = json.loads(capsys.readouterr().out)
        assert cold["telemetry"]["evaluations"] > 0
        assert warm["telemetry"]["evaluations"] == 0
        assert warm["telemetry"]["store_hits"] > 0
        for payload in (cold, warm):
            del payload["telemetry"]
            assert payload == plain

    def test_replan_cache_opens_one_store(self, capsys, tmp_path, monkeypatch):
        import repro.dse.store as store_module

        opened = []

        class CountingStore(store_module.CostStore):
            def __init__(self, *args, **kwargs):
                opened.append(args)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(store_module, "CostStore", CountingStore)
        argv = [
            "replan", "tiny_cnn", "--devices", "testchip,testchip",
            "--cache", str(tmp_path / "c"), "--json",
        ]
        assert main(argv) == 0
        assert len(opened) == 1

    def test_replan_searches_share_one_context(self, capsys, monkeypatch):
        import repro.resilience
        import repro.toolflow

        contexts = []
        partition_model = repro.toolflow.partition_model
        replan_survivors = repro.resilience.replan_survivors

        def partition_recording(*args, **kwargs):
            contexts.append(kwargs["context"])
            return partition_model(*args, **kwargs)

        def replan_recording(*args, **kwargs):
            contexts.append(kwargs["context"])
            return replan_survivors(*args, **kwargs)

        monkeypatch.setattr(
            repro.toolflow, "partition_model", partition_recording
        )
        monkeypatch.setattr(
            repro.resilience, "replan_survivors", replan_recording
        )
        argv = ["replan", "tiny_cnn", "--devices", "testchip,testchip"]
        assert main(argv) == 0
        assert len(contexts) == 2
        assert contexts[0] is not None and contexts[0] is contexts[1]


class TestCompileEnergyStats:
    def test_stats_prints_energy_line(self, capsys):
        assert main(
            ["compile", "tiny_cnn", "--device", "testchip", "--stats"]
        ) == 0
        out = capsys.readouterr().out
        assert "energy per inference" in out
        assert "W board power" in out

    def test_stats_json_matches_power_model(self, capsys):
        assert main(
            ["compile", "tiny_cnn", "--device", "testchip", "--stats",
             "--json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        from repro.hardware.device import get_device
        from repro.hardware.power import device_power_model
        from repro.toolflow import compile_model

        strategy = compile_model(
            models.tiny_cnn(), device="testchip"
        ).strategy
        power_model = device_power_model(get_device("testchip"))
        assert payload["energy_per_inference_j"] == pytest.approx(
            power_model.strategy_energy_per_inference_j(strategy)
        )
        assert payload["board_power_w"] == pytest.approx(
            power_model.strategy_power_w(strategy)
        )


class TestSweepGridDurability:
    """The durability flags of ``sweep-grid``: fault injection, retry
    budgets, and interrupt behavior (one resumable line, never a
    traceback)."""

    ARGS = [
        "sweep-grid", "--models", "tiny_cnn", "--devices", "testchip",
        "--transfers", "1MB,none",
    ]

    def test_benign_faults_flag_still_succeeds(self, capsys, tmp_path):
        assert main(
            self.ARGS + [
                "--out", str(tmp_path / "out"),
                "--faults", "fsync-drop:p=1.0", "--fault-seed", "3",
            ]
        ) == 0
        assert "2 computed" in capsys.readouterr().out

    def test_bad_fault_spec_is_one_line_error(self, capsys, tmp_path):
        assert main(
            self.ARGS + [
                "--out", str(tmp_path / "out"), "--faults", "haunt:p=0.5",
            ]
        ) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "haunt" in err
        assert "Traceback" not in err
        assert len(err.strip().splitlines()) == 1

    def test_exhausted_retries_exit_nonzero_with_failed_points(
        self, capsys, tmp_path
    ):
        assert main(
            self.ARGS + [
                "--out", str(tmp_path / "out"), "--workers", "2",
                "--faults", "kill:p=1.0,point=sweep.point_start",
                "--max-retries", "1",
            ]
        ) == 1
        out = capsys.readouterr().out
        assert "retries exhausted" in out

    def test_keyboard_interrupt_exits_130_one_line(
        self, capsys, monkeypatch, tmp_path
    ):
        import repro.dse.sweep as sweep_module

        def interrupt(*_args, **_kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(sweep_module, "sweep_grid", interrupt)
        assert main(self.ARGS + ["--out", str(tmp_path / "out")]) == 130
        err = capsys.readouterr().err
        assert err.strip() == "error: interrupted"

    def test_sweep_interrupted_is_a_resumable_one_liner(
        self, capsys, monkeypatch, tmp_path
    ):
        import repro.dse.sweep as sweep_module
        from repro.errors import SweepInterrupted

        def interrupt(*_args, **_kwargs):
            raise SweepInterrupted(
                "sweep interrupted: 1 of 2 point(s) journaled in out; "
                "re-run with --resume to finish"
            )

        monkeypatch.setattr(sweep_module, "sweep_grid", interrupt)
        assert main(self.ARGS + ["--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: sweep interrupted")
        assert "--resume" in err
        assert "Traceback" not in err
        assert len(err.strip().splitlines()) == 1


from repro.faults.process import fork_available


@pytest.mark.skipif(not fork_available(), reason="requires fork (POSIX)")
class TestTortureCommand:

    def test_workload_subset_passes(self, capsys, tmp_path):
        assert main(
            [
                "torture", "--workloads", "artifact,journal",
                "--workdir", str(tmp_path),
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "torture: PASS" in out
        assert "artifact x atomic.synced: killed, ok" in out
        assert "journal x journal.appended: killed, ok" in out

    def test_json_report_and_artifact(self, capsys, tmp_path):
        from repro.check.artifacts import load_envelope

        report_path = tmp_path / "report.json"
        assert main(
            [
                "torture", "--workloads", "journal",
                "--workdir", str(tmp_path),
                "--json", "--report", str(report_path),
            ]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert len(payload["cells"]) == 2
        saved = load_envelope(report_path, expected_kind="torture_report")
        assert saved.payload == payload

    def test_saved_report_passes_repro_check(self, capsys, tmp_path):
        report_path = tmp_path / "report.json"
        assert main(
            [
                "torture", "--workloads", "journal",
                "--workdir", str(tmp_path),
                "--report", str(report_path),
            ]
        ) == 0
        capsys.readouterr()
        assert main(["check", str(report_path)]) == 0
        out = capsys.readouterr().out
        assert "2 torture cell(s), 0 failed" in out

    def test_unknown_workload_is_one_line_error(self, capsys, tmp_path):
        assert main(
            ["torture", "--workloads", "ghosts", "--workdir", str(tmp_path)]
        ) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "ghosts" in err
        assert len(err.strip().splitlines()) == 1
