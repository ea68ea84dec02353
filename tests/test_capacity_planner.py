"""Capacity planner tests: objective, feasibility, artifacts, baseline."""

import pytest

from repro.capacity import (
    CapacityError,
    TenantDemand,
    board_cost_units,
    load_capacity_plan,
    plan_capacity,
    plan_per_model_fleets,
)
from repro.errors import ArtifactError
from repro.hardware.device import get_device
from repro.hardware.power import device_power_model
from repro.nn import models


def demand_pair(**overrides):
    base = dict(num_requests=40, slo_latency_s=0.002)
    base.update(overrides)
    return [
        TenantDemand(
            "vision", models.tiny_cnn(), "poisson:mean=40000", **base
        ),
        TenantDemand(
            "detect",
            models.tiny_cnn(height=24, width=24),
            "mmpp:mean=60000,burst=5",
            **base,
        ),
    ]


@pytest.fixture(scope="module")
def plan():
    return plan_capacity(
        demand_pair(),
        devices=("testchip",),
        max_replicas=2,
        batch_sizes=(1, 4),
        seed=7,
    )


class TestBoardCost:
    def test_zc706_is_the_unit(self):
        assert board_cost_units("zc706") == pytest.approx(1.0)

    def test_bigger_boards_cost_more(self):
        assert board_cost_units("zcu102") > board_cost_units("zc706")
        assert board_cost_units("testchip") < board_cost_units("zc706")


class TestPlan:
    def test_meets_every_slo(self, plan):
        frequency_hz = get_device(plan.device).frequency_hz
        for demand in plan.demands:
            metrics = plan.tenant_metrics[demand["name"]]
            assert metrics["offered"] == metrics["requests"]
            slo_cycles = demand["slo_latency_s"] * frequency_hz
            assert metrics["p95_latency_cycles"] <= slo_cycles

    def test_picks_the_cheapest_feasible(self, plan):
        # All candidates were feasible here, so the plan is the
        # smallest fleet with the smallest batch cap.
        assert plan.replicas == 1
        assert plan.board_cost == pytest.approx(
            board_cost_units("testchip")
        )
        assert plan.feasible == plan.candidates == 8

    def test_deterministic(self, plan):
        again = plan_capacity(
            demand_pair(),
            devices=("testchip",),
            max_replicas=2,
            batch_sizes=(1, 4),
            seed=7,
        )
        assert again == plan
        assert again.trace_digest == plan.trace_digest

    def test_energy_agrees_with_power_helper(self, plan):
        """The plan's energy is the shared power-model charge, rebuilt."""
        device = get_device(plan.device)
        power_model = device_power_model(device)
        from repro.toolflow import compile_model

        expected = 0.0
        for demand_args, name in (
            (models.tiny_cnn(), "vision"),
            (models.tiny_cnn(height=24, width=24), "detect"),
        ):
            strategy = compile_model(demand_args, device=device).strategy
            per_inference = (
                power_model.strategy_dynamic_energy_per_inference_j(strategy)
            )
            expected += (
                per_inference * plan.tenant_metrics[name]["requests"]
            )
        expected += (
            power_model.static_w * plan.replicas * plan.makespan_seconds
        )
        assert plan.energy_j == pytest.approx(expected, rel=1e-9)

    def test_branching_model_demand(self):
        demands = [
            TenantDemand(
                "resnet", models.tiny_resnet(), "poisson:mean=40000",
                num_requests=40, slo_latency_s=0.002,
            ),
            demand_pair()[0],
        ]
        graph_plan = plan_capacity(
            demands, devices=("testchip",), max_replicas=1, batch_sizes=(4,)
        )
        metrics = graph_plan.tenant_metrics["resnet"]
        assert metrics["requests"] == metrics["offered"] == 40

    def test_infeasible_raises(self):
        with pytest.raises(CapacityError, match="no feasible fleet"):
            plan_capacity(
                demand_pair(slo_latency_s=1e-9),
                devices=("testchip",),
                max_replicas=1,
                batch_sizes=(1,),
            )

    def test_validation(self):
        with pytest.raises(CapacityError):
            plan_capacity([])
        with pytest.raises(CapacityError):
            plan_capacity(
                [
                    TenantDemand("a", models.tiny_cnn(), "poisson:mean=1000"),
                    TenantDemand("a", models.tiny_cnn(), "poisson:mean=1000"),
                ]
            )
        with pytest.raises(CapacityError):
            plan_capacity(demand_pair(), devices=())
        with pytest.raises(CapacityError):
            plan_capacity(demand_pair(), max_replicas=0)
        from repro.errors import TrafficError

        # A malformed arrival spec fails at demand construction with
        # the traffic grammar's own diagnostic.
        with pytest.raises(TrafficError):
            TenantDemand("a", models.tiny_cnn(), "nonsense:spec=1")
        with pytest.raises(CapacityError):
            TenantDemand(
                "a", models.tiny_cnn(), "poisson:mean=1000", num_requests=0
            )


class TestArtifact:
    def test_roundtrip(self, plan, tmp_path):
        path = plan.save(tmp_path / "plan.json")
        assert load_capacity_plan(path) == plan

    def test_corruption_rejected(self, plan, tmp_path):
        path = plan.save(tmp_path / "plan.json")
        path.write_text(path.read_text().replace("testchip", "zc706", 1))
        with pytest.raises(ArtifactError):
            load_capacity_plan(path)

    def test_repro_check_passes(self, plan, tmp_path):
        from repro.cli import main

        path = plan.save(tmp_path / "plan.json")
        assert main(["check", str(path)]) == 0

    def test_summary_names_every_tenant(self, plan):
        text = plan.summary()
        assert "vision" in text and "detect" in text
        assert plan.trace_digest[:12] in text


class TestBaseline:
    def test_baseline_never_cheaper(self, plan):
        baseline = plan_per_model_fleets(
            demand_pair(),
            devices=("testchip",),
            max_replicas=2,
            batch_sizes=(1, 4),
            seed=7,
        )
        # Dedicated fleets need one board per model at minimum; the
        # shared plan consolidates onto fewer boards.
        assert baseline.board_cost >= plan.board_cost
        assert set(baseline.fleets) == {"vision", "detect"}

    def test_baseline_infeasible_raises(self):
        with pytest.raises(CapacityError, match="dedicated fleet"):
            plan_per_model_fleets(
                demand_pair(slo_latency_s=1e-9),
                devices=("testchip",),
                max_replicas=1,
                batch_sizes=(1,),
            )
