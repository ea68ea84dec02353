"""The sweep grid and engine: expansion, journaling, resume, parallelism.

The contract under test (see ``src/repro/dse/grid.py`` / ``sweep.py``):

* grids expand deterministically and every point's id is derived from
  its content, so resume matching survives spec edits;
* every finished point is journaled immediately as an independently
  checksummed envelope line, and a damaged journal line costs one
  recompute, never a crash;
* ``resume=True`` recomputes nothing that the journal already holds;
* ``workers=N`` returns bit-identical results to the serial path.
"""

from __future__ import annotations

import json

import pytest

from repro.check.artifacts import read_envelope_lines
from repro.dse.grid import GridPoint, GridSpec
from repro.dse.sweep import (
    POINT_KIND,
    RESULTS_KIND,
    SweepEngine,
    sweep_grid,
)
from repro.errors import SweepError

TINY = GridSpec(
    models=("tiny_cnn",),
    devices=("testchip",),
    transfer_bytes=(None, 1 << 20),
)

#: Two one-point jobs (the points differ in bandwidth factor), so a
#: two-worker pool runs both workers.
TWO_JOBS = GridSpec(
    models=("tiny_cnn",),
    devices=("testchip",),
    bandwidth_factors=(1.0, 2.0),
)


def _strategies(result):
    """The per-point payloads with volatile fields stripped."""
    bodies = []
    for record in result.records:
        body = dict(record.get("result") or {})
        body.pop("telemetry", None)
        bodies.append((record["point_id"], record["ok"], body))
    return bodies


class TestGridSpec:
    def test_expansion_is_the_declared_cross_product(self):
        spec = GridSpec(
            models=("a", "b"),
            devices=("x",),
            bandwidth_factors=(1.0, 2.0),
            transfer_bytes=(None,),
            fleet_sizes=(1, 2),
        )
        points = spec.expand()
        assert len(points) == spec.num_points == 8
        assert points[0] == GridPoint("a", "x", 1.0, None, 1)
        assert [p.model for p in points[:4]] == ["a"] * 4

    def test_point_ids_are_stable_content_hashes(self):
        point = GridPoint("tiny_cnn", "testchip", 1.0, None, 1)
        again = GridPoint("tiny_cnn", "testchip", 1.0, None, 1)
        assert point.point_id == again.point_id
        assert len(point.point_id) == 16
        other = GridPoint("tiny_cnn", "testchip", 1.0, 1 << 20, 1)
        assert other.point_id != point.point_id

    def test_point_roundtrips_through_dict(self):
        point = GridPoint("m", "d", 2.0, 4096, 3)
        assert GridPoint.from_dict(point.to_dict()) == point

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"models": ()},
            {"devices": ()},
            {"bandwidth_factors": (0.0,)},
            {"bandwidth_factors": (-1.0,)},
            {"fleet_sizes": (0,)},
            {"transfer_bytes": (0,)},
            {"transfer_bytes": (-5,)},
        ],
        ids=[
            "no-models", "no-devices", "zero-bw", "negative-bw",
            "zero-fleet", "zero-transfer", "negative-transfer",
        ],
    )
    def test_invalid_axes_raise(self, kwargs):
        base = dict(models=("m",), devices=("d",))
        base.update(kwargs)
        with pytest.raises(SweepError):
            GridSpec(**base)

    def test_duplicate_axis_values_raise_on_expand(self):
        spec = GridSpec(models=("m", "m"), devices=("d",))
        with pytest.raises(SweepError, match="duplicate"):
            spec.expand()

    def test_spec_roundtrips_through_dict_and_digest(self):
        spec = GridSpec(
            models=("a",), devices=("d",), transfer_bytes=(None, 1024)
        )
        again = GridSpec.from_dict(spec.to_dict())
        assert again == spec
        assert again.digest() == spec.digest()

    def test_from_file_accepts_bare_json(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(
            json.dumps({"models": ["tiny_cnn"], "devices": ["testchip"]})
        )
        spec = GridSpec.from_file(path)
        assert spec.models == ("tiny_cnn",)
        assert spec.transfer_bytes == (None,)

    @pytest.mark.parametrize(
        "payload",
        [
            "[]",
            '{"models": ["a"]}',
            '{"models": "a", "devices": ["d"]}',
            '{"models": ["a"], "devices": ["d"], "fleet_sizes": ["two"]}',
            '{"models": ["a"], "devices": ["d"], "transfer_bytes": [1.5]}',
            "not json",
        ],
        ids=[
            "not-object", "missing-devices", "models-not-list",
            "fleet-not-int", "transfer-float", "not-json",
        ],
    )
    def test_from_file_rejects_malformed_specs(self, tmp_path, payload):
        # Missing/mistyped required fields surface as typed
        # ArtifactSchemaErrors from the envelope layer; everything else
        # as SweepError — both ReproErrors the CLI prints as one line.
        from repro.errors import ArtifactError

        path = tmp_path / "spec.json"
        path.write_text(payload)
        with pytest.raises((SweepError, ArtifactError)):
            GridSpec.from_file(path)


class TestSweepEngine:
    def test_run_computes_every_point_and_journals(self, tmp_path):
        engine = SweepEngine(TINY, tmp_path / "out", store=tmp_path / "store")
        result = engine.run()
        assert result.ok
        assert result.computed == 2 and result.resumed == 0
        envelopes, skipped = read_envelope_lines(
            engine.journal_path, expected_kind=POINT_KIND
        )
        assert skipped == 0
        assert len(envelopes) == 2
        from repro.check.artifacts import load_envelope

        final = load_envelope(engine.results_path, expected_kind=RESULTS_KIND)
        assert final.payload["points"] == 2
        assert final.payload["grid_digest"] == TINY.digest()

    def test_resume_skips_journaled_points(self, tmp_path):
        out = tmp_path / "out"
        first = sweep_grid(TINY, out, store=tmp_path / "store")
        assert first.computed == 2
        resumed = sweep_grid(
            TINY, out, store=tmp_path / "store", resume=True
        )
        assert resumed.computed == 0
        assert resumed.resumed == 2
        assert _strategies(resumed) == _strategies(first)

    def test_interrupted_sweep_resumes_without_recompute(self, tmp_path):
        """Simulate a kill: journal holds 1 of 2 points; resume does 1."""
        out = tmp_path / "out"
        engine = SweepEngine(TINY, out, store=tmp_path / "store")
        full = engine.run()
        lines = engine.journal_path.read_text().splitlines()
        engine.journal_path.write_text(lines[0] + "\n")
        resumed = sweep_grid(
            TINY, out, store=tmp_path / "store", resume=True
        )
        assert resumed.computed == 1
        assert resumed.resumed == 1
        assert _strategies(resumed) == _strategies(full)

    def test_truncated_journal_line_recomputes_that_point(self, tmp_path):
        """A crash mid-append damages only the final line."""
        out = tmp_path / "out"
        engine = SweepEngine(TINY, out, store=tmp_path / "store")
        full = engine.run()
        text = engine.journal_path.read_text()
        lines = text.splitlines()
        engine.journal_path.write_text(
            lines[0] + "\n" + lines[1][: len(lines[1]) // 2]
        )
        resumed = sweep_grid(
            TINY, out, store=tmp_path / "store", resume=True
        )
        assert resumed.computed == 1
        assert resumed.resumed == 1
        assert resumed.journal_skipped == 1
        assert _strategies(resumed) == _strategies(full)

    def test_without_resume_the_journal_is_discarded(self, tmp_path):
        out = tmp_path / "out"
        sweep_grid(TINY, out)
        fresh = sweep_grid(TINY, out)
        assert fresh.computed == 2 and fresh.resumed == 0

    def test_workers_bit_identical_to_serial(self, tmp_path):
        spec = GridSpec(
            models=("tiny_cnn",),
            devices=("testchip",),
            bandwidth_factors=(1.0, 2.0),
            transfer_bytes=(None, 1 << 20),
        )
        serial = sweep_grid(spec, tmp_path / "serial")
        parallel = sweep_grid(
            spec, tmp_path / "par", store=tmp_path / "store", workers=2
        )
        assert _strategies(serial) == _strategies(parallel)

    def test_fleet_size_points_partition(self, tmp_path):
        spec = GridSpec(
            models=("tiny_cnn",), devices=("testchip",), fleet_sizes=(2,)
        )
        result = sweep_grid(spec, tmp_path / "out")
        assert result.ok
        body = result.records[0]["result"]
        assert body["kind"] == "partition_plan"
        assert body["stages"] >= 1

    def test_failed_point_is_recorded_not_fatal(self, tmp_path):
        spec = GridSpec(
            models=("tiny_cnn",),
            devices=("testchip",),
            # 1 byte: infeasible budget -> per-point OptimizationError.
            transfer_bytes=(1, None),
        )
        result = sweep_grid(spec, tmp_path / "out")
        assert not result.ok
        assert result.failed == 1
        failed = [r for r in result.records if not r["ok"]]
        assert len(failed) == 1
        assert failed[0]["error"]
        ok = [r for r in result.records if r["ok"]]
        assert len(ok) == 1

    def test_failed_points_retry_on_resume(self, tmp_path):
        spec = GridSpec(
            models=("tiny_cnn",), devices=("testchip",), transfer_bytes=(1,)
        )
        out = tmp_path / "out"
        first = sweep_grid(spec, out)
        assert first.failed == 1
        again = sweep_grid(spec, out, resume=True)
        assert again.computed == 1  # failures are retried, not resumed

    def test_unknown_model_fails_per_point(self, tmp_path):
        spec = GridSpec(models=("no_such_model",), devices=("testchip",))
        result = sweep_grid(spec, tmp_path / "out")
        assert result.failed == 1
        assert "no_such_model" in result.records[0]["error"]

    def test_graph_model_fails_per_point_like_repro_sweep(
        self, tmp_path, capsys
    ):
        """A graph-zoo name resolves, then fails as chain-only with the
        error ``repro sweep`` prints; the chain beside it succeeds."""
        from repro.cli import main

        spec = GridSpec(
            models=("googlenet_graph", "tiny_cnn"), devices=("testchip",)
        )
        result = sweep_grid(spec, tmp_path / "out")
        assert result.failed == 1
        graph, chain = result.records
        assert not graph["ok"] and "chain-only" in graph["error"]
        assert chain["ok"]
        assert main(["sweep", "googlenet_graph", "--device", "testchip"]) == 1
        assert capsys.readouterr().err == f"error: {graph['error']}\n"

    def test_bandwidth_factor_changes_the_device(self, tmp_path):
        spec = GridSpec(
            models=("tiny_cnn",),
            devices=("testchip",),
            bandwidth_factors=(1.0, 8.0),
        )
        result = sweep_grid(spec, tmp_path / "out")
        assert result.ok
        a, b = (r["result"]["latency_seconds"] for r in result.records)
        assert a != b  # more bandwidth moved the optimum

    def test_store_warms_across_sweeps(self, tmp_path):
        cold = sweep_grid(TINY, tmp_path / "a", store=tmp_path / "store")
        warm = sweep_grid(TINY, tmp_path / "b", store=tmp_path / "store")
        assert warm.store_hit_rate >= 0.9
        assert warm.telemetry["evaluations"] == 0
        assert _strategies(cold) == _strategies(warm)

    def test_perfbench_grid_store_keeps_finished_searches(self, tmp_path):
        """The toolflow benchmark's grid: its cold sweep writes only group
        records, and its warm sweep neither searches nor evaluates."""
        from repro.dse.store import CostStore

        spec = GridSpec(
            models=("vgg_e",),
            devices=("zc706",),
            transfer_bytes=(2 * 1024 * 1024,),
            fleet_sizes=(1, 2),
        )
        store = tmp_path / "store"
        cold = sweep_grid(spec, tmp_path / "cold", store=store, workers=2)
        assert cold.ok
        entries = CostStore(store).load_shard(store / "log.jsonl")
        assert entries
        assert all(set(entry) == {"key", "created", "group"}
                   for entry in entries.values())
        warm = sweep_grid(spec, tmp_path / "warm", store=store, workers=2)
        assert warm.ok
        for record in warm.records:
            telemetry = record["result"]["telemetry"]
            assert telemetry["evaluations"] == 0
            assert telemetry["groups_searched"] == 0
        assert warm.records_digest() == cold.records_digest()

    def test_summary_and_to_dict(self, tmp_path):
        result = sweep_grid(TINY, tmp_path / "out", store=tmp_path / "store")
        text = result.summary()
        assert "2 computed" in text
        assert "cost store" in text
        payload = result.to_dict()
        assert payload["points"] == 2
        assert payload["store"]["root"] == str(tmp_path / "store")


class TestToolflowEntryPoint:
    def test_toolflow_sweep_grid_accepts_dict_and_file(self, tmp_path):
        from repro.toolflow import sweep_grid as tf_sweep

        spec_dict = {"models": ["tiny_cnn"], "devices": ["testchip"]}
        by_dict = tf_sweep(spec_dict, tmp_path / "a")
        assert by_dict.ok and by_dict.computed == 1
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec_dict))
        by_file = tf_sweep(path, tmp_path / "b")
        assert _strategies(by_dict) == _strategies(by_file)


class TestJournalReplay:
    """Satellite pin: duplicate journal lines must never double-count a
    point, re-run a finished one, or flip a success back to failed."""

    def test_duplicate_lines_are_counted_and_ignored_on_resume(
        self, tmp_path
    ):
        out = tmp_path / "out"
        first = sweep_grid(TINY, out, store=tmp_path / "store")
        journal = out / "journal.jsonl"
        lines = journal.read_text().splitlines()
        journal.write_text("\n".join(lines + [lines[0], lines[1]]) + "\n")
        resumed = sweep_grid(TINY, out, store=tmp_path / "store", resume=True)
        assert resumed.computed == 0  # nothing re-ran
        assert resumed.resumed == 2  # nothing double-counted
        assert resumed.journal_duplicates == 2
        assert _strategies(resumed) == _strategies(first)
        assert "duplicate" in resumed.summary()

    def test_first_successful_record_is_pinned(self, tmp_path):
        from repro.check.artifacts import append_envelope_line

        engine = SweepEngine(TINY, tmp_path / "out")
        engine.out_dir.mkdir(parents=True)
        point = TINY.expand()[0]
        base = {"point_id": point.point_id, "point": point.to_dict(),
                "result": {}, "elapsed_s": 0.0, "error": None}
        for record in (
            dict(base, ok=True, result={"marker": "first"}),
            dict(base, ok=True, result={"marker": "late-duplicate"}),
        ):
            append_envelope_line(engine.journal_path, POINT_KIND, record)
        records, skipped, duplicates = engine.completed_records()
        assert skipped == 0 and duplicates == 1
        assert records[point.point_id]["result"]["marker"] == "first"

    def test_failure_is_superseded_by_a_later_success(self, tmp_path):
        from repro.check.artifacts import append_envelope_line

        engine = SweepEngine(TINY, tmp_path / "out")
        engine.out_dir.mkdir(parents=True)
        point = TINY.expand()[0]
        base = {"point_id": point.point_id, "point": point.to_dict(),
                "result": {}, "elapsed_s": 0.0}
        for record in (
            dict(base, ok=False, error="worker died"),
            dict(base, ok=True, error=None, result={"marker": "retry"}),
            dict(base, ok=False, error="stale late record"),
        ):
            append_envelope_line(engine.journal_path, POINT_KIND, record)
        records, _, duplicates = engine.completed_records()
        assert duplicates == 2
        pinned = records[point.point_id]
        assert pinned["ok"] and pinned["result"]["marker"] == "retry"


class TestRecordsDigest:
    def test_digest_ignores_volatile_fields(self, tmp_path):
        from repro.dse.sweep import records_digest

        result = sweep_grid(TINY, tmp_path / "out", store=tmp_path / "store")
        digest = result.records_digest()
        mutated = [dict(r) for r in result.records]
        mutated[0]["elapsed_s"] = 999.0
        mutated[0]["source"] = "resumed"
        mutated[0]["result"] = dict(
            mutated[0]["result"], telemetry={"evaluations": 12345}
        )
        assert records_digest(mutated) == digest

    def test_digest_sees_outcome_changes(self, tmp_path):
        from repro.dse.sweep import records_digest

        result = sweep_grid(TINY, tmp_path / "out")
        digest = result.records_digest()
        mutated = [dict(r) for r in result.records]
        mutated[0] = dict(mutated[0], ok=False, error="tampered")
        assert records_digest(mutated) != digest


class TestInterrupt:
    """Satellite pin: an interrupt mid-sweep surfaces as a one-line
    typed SweepInterrupted whose message is the recovery instruction,
    and --resume then finishes bit-identical."""

    def test_interrupt_raises_typed_error_and_resume_finishes(
        self, tmp_path
    ):
        from repro.errors import SweepInterrupted

        clean = sweep_grid(TINY, tmp_path / "clean")
        out = tmp_path / "out"
        engine = SweepEngine(TINY, out)

        def interrupt_after_first_point(line: str) -> None:
            if line.startswith("  "):  # the first per-point status line
                raise KeyboardInterrupt

        with pytest.raises(SweepInterrupted) as excinfo:
            engine.run(log=interrupt_after_first_point)
        message = str(excinfo.value)
        assert "1 of 2" in message
        assert "--resume" in message
        assert "\n" not in message
        # The journal kept the finished point; resume does only the rest.
        resumed = sweep_grid(TINY, out, resume=True)
        assert resumed.resumed == 1
        assert resumed.computed == 1
        assert resumed.records_digest() == clean.records_digest()


class TestFaultedSweeps:
    def test_inline_sweep_strips_lethal_faults(self, tmp_path):
        clean = sweep_grid(TINY, tmp_path / "clean")
        faulted = sweep_grid(
            TINY, tmp_path / "out",
            faults="kill:p=1.0;fsync-drop:p=1.0", fault_seed=3,
        )
        assert faulted.ok
        assert faulted.records_digest() == clean.records_digest()

    def test_pooled_kills_exhaust_retries_into_failure_records(
        self, tmp_path
    ):
        result = sweep_grid(
            TWO_JOBS, tmp_path / "out", workers=2,
            faults="kill:p=1.0,point=sweep.point_start",
            fault_seed=1, max_retries=1,
        )
        assert result.failed == 2
        for record in result.records:
            assert not record["ok"]
            assert "retries exhausted" in record["error"]
        assert result.supervision.get("worker_deaths", 0) >= 4
        assert result.supervision.get("requeues", 0) >= 2
        assert result.supervision.get("retries_exhausted") == 2
        assert "supervision" in result.summary()

    def test_bad_fault_spec_is_a_typed_error(self, tmp_path):
        from repro.faults.spec import FaultError

        with pytest.raises(FaultError):
            sweep_grid(TINY, tmp_path / "out", faults="haunt:p=0.5")

    def test_journal_write_failure_degrades_not_kills(
        self, tmp_path, monkeypatch
    ):
        from repro.dse import sweep as sweep_module

        def always_fails(path, kind, payload):
            raise OSError("injected journal failure")

        monkeypatch.setattr(
            sweep_module, "append_envelope_line", always_fails
        )
        engine = SweepEngine(TINY, tmp_path / "out")
        with pytest.warns(RuntimeWarning, match="journal write failed"):
            result = engine.run()
        assert result.ok  # the sweep itself still completed
        assert result.supervision.get("journal_write_errors") == 2
