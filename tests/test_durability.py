"""The kill-point torture harness and the crash-consistency guarantee.

The contract under test (see ``src/repro/check/durability.py`` and
``docs/durability.md``):

* the four workloads together cover **every** registered crash point;
* a child hard-killed at any point leaves on-disk state that verifies
  (valid, absent, or typed error), recovers, and digests identical to
  an uninterrupted run;
* a multi-worker sweep under seeded kills + EIO produces records
  checksum-equal to the fault-free sweep, with every intervention
  counted in telemetry;
* ``repro doctor`` runs the seconds-scale probe.
"""

from __future__ import annotations

import pytest

from repro.check.durability import (
    WORKLOADS,
    CellResult,
    TortureReport,
    durability_probe,
    run_chaos_sweep,
    run_kill_point_matrix,
    save_torture_report,
    uncovered_points,
)
from repro.errors import ReproError
from repro.faults.process import (
    clear_process_faults,
    fork_available,
    registered_crash_points,
)

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="requires fork (POSIX)"
)


@pytest.fixture(autouse=True)
def _disarm():
    clear_process_faults()
    yield
    clear_process_faults()


class TestCoverage:
    def test_every_registered_point_is_tortured(self):
        assert uncovered_points() == []

    def test_workload_points_are_registered(self):
        known = registered_crash_points()
        for workload in WORKLOADS.values():
            for point in workload.points:
                assert point in known, (workload.name, point)

    def test_the_four_write_paths_are_present(self):
        assert set(WORKLOADS) == {"artifact", "journal", "cost_store", "sweep"}


@needs_fork
class TestKillPointMatrix:
    def test_fast_workloads_survive_every_kill(self, tmp_path):
        report = run_kill_point_matrix(
            tmp_path, workloads=["artifact", "journal", "cost_store"]
        )
        assert report.ok, report.summary()
        assert len(report.cells) == 7  # 3 + 2 + 2 points
        for cell in report.cells:
            assert cell.outcome == "killed", (cell.point, cell.outcome)
            assert cell.verified and cell.recovered and cell.digest_equal

    def test_full_matrix_covers_all_points_and_passes(self, tmp_path):
        lines = []
        report = run_kill_point_matrix(tmp_path, log=lines.append)
        assert report.ok, report.summary()
        tortured = {(cell.workload, cell.point) for cell in report.cells}
        assert len(tortured) == len(report.cells)
        assert {point for _, point in tortured} == set(
            registered_crash_points()
        )
        assert report.uncovered == []
        assert any("torturing" in line for line in lines)

    def test_unknown_workload_is_harness_misuse(self, tmp_path):
        with pytest.raises(ReproError, match="unknown torture workload"):
            run_kill_point_matrix(tmp_path, workloads=["artifact", "ghosts"])

    def test_report_artifact_roundtrips(self, tmp_path):
        from repro.check.artifacts import load_envelope

        report = run_kill_point_matrix(tmp_path, workloads=["journal"])
        path = tmp_path / "report.json"
        save_torture_report(path, report)
        payload = load_envelope(path, expected_kind="torture_report").payload
        assert payload["ok"] is True
        assert len(payload["cells"]) == 2


class TestReportShapes:
    def test_cell_ok_requires_every_stage(self):
        cell = CellResult(
            workload="w", point="p", outcome="killed",
            verified=True, recovered=True, digest_equal=True,
        )
        assert cell.ok
        for broken in (
            CellResult("w", "p", "error", True, True, True),
            CellResult("w", "p", "killed", False, True, True),
            CellResult("w", "p", "killed", True, False, True),
            CellResult("w", "p", "killed", True, True, False),
        ):
            assert not broken.ok

    def test_uncovered_points_fail_the_report(self):
        good = CellResult("w", "p", "killed", True, True, True)
        assert TortureReport(cells=[good]).ok
        assert not TortureReport(cells=[good], uncovered=["lost.point"]).ok
        assert "UNCOVERED" in TortureReport(
            cells=[good], uncovered=["lost.point"]
        ).summary()

    def test_diverged_chaos_fails_the_report(self):
        good = CellResult("w", "p", "killed", True, True, True)
        report = TortureReport(cells=[good], chaos={"equal": False})
        assert not report.ok
        assert "DIVERGED" in report.summary()
        report.chaos = {"equal": True, "supervision": {"worker_deaths": 3}}
        assert report.ok
        assert "checksum-equal" in report.summary()


@needs_fork
class TestChaosSweep:
    def test_chaos_sweep_is_checksum_equal_to_fault_free(self, tmp_path):
        outcome = run_chaos_sweep(tmp_path, workers=2, seed=7)
        assert outcome["equal"], outcome
        assert outcome["chaos_ok"]
        assert outcome["reference_digest"] == outcome["chaos_digest"]
        # The faults are real: seed 7 kills at least one worker, and
        # every intervention is visible, never silent.
        assert isinstance(outcome["supervision"], dict)
        assert outcome["supervision"]["worker_deaths"] >= 1, outcome
        assert isinstance(outcome["telemetry"], dict)


@needs_fork
class TestDoctorProbe:
    def test_probe_passes_and_summarizes(self, tmp_path):
        summary = durability_probe(tmp_path)
        assert "kill(s) survived" in summary

    def test_doctor_runs_the_probe(self, tmp_path):
        from repro.check.consistency import doctor

        report = doctor(workdir=tmp_path)
        assert report.ok, report.summary()
        assert "durability-probe" in [r.name for r in report.results]
