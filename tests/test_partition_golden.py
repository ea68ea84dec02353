"""Golden digests of the multi-FPGA partitioner.

Each scenario partitions a model and hashes what the plan exposes.
Chain plans hash ``plan.to_dict()``, ``plan.report()`` and the search
telemetry counters (wall time excluded); :data:`PLAN_GOLDEN` hashes the
same chain plans without the counters, so a change that only moves the
branch-and-bound node and cut counts shows there as unchanged.  Plan consumers hash their
outputs: a survivor re-plan, a fleet simulation's stage and transfer
spans, and a fleet-size-2 sweep point's result.  DAG plans hash a
layout-independent view: per stage the device, node names, segment
kinds and latency, plus transfer bytes and the pipeline numbers.  The
digests are hard-coded, so any change to a cut point, a stage strategy,
a report line or a search counter fails here with the scenario's name.

Regenerate only for a deliberate behaviour change::

    PYTHONPATH=src python tests/test_partition_golden.py
"""

from __future__ import annotations

import functools
import hashlib
import json
import tempfile

import pytest

from repro.dse.grid import GridSpec
from repro.nn import models
from repro.partition import Link
from repro.resilience import replan_survivors
from repro.toolflow import partition_model, sweep_grid

GOLDEN = {
    "chain_tiny_cnn_x1": "b0a3eb69278abb734ab47743904f35018c83bd0c65f0abff51c5c0e372d42c0b",
    "chain_tiny_cnn_x2": "c583d473a156435af61a334c62b1aaf7afab9d7fe0b6e4e7ba82cc58864420ae",
    "chain_tiny_cnn_x3": "5b078af86e2e965ed70516270d90e078fcdfe0e557cc8e7391301470be7b1434",
    "chain_tiny_cnn_binding_budget": "ae8592783f651ecd4b147076ee36056d501081a1b2fe57f1990bcea86ac453ae",
    "chain_vgg_fused_prefix_2mb": "919f6f8368b83ddcd91dd89920523b7250806456f68154603291de0bbe2cdb60",
    "chain_slow_link_collapse": "2154568b43d0d7a5d9ac89c6ccc73a2165c9812685bbc52e6c227895c67b2b8f",
    "chain_heterogeneous_fleet": "2751b5e4fc392475a3d0dcadc5d9e108f072049877a5263c32ed194cc291ff5b",
    "replan_vgg_e_survivor": "a4ff204006ba3ab3f1cdfb4738d35e2586cd8054f772aab8d04e799d10beea5c",
    "simulate_tiny_cnn_x2_spans": "4c45168e9e2df32539f9b2c6a1e031403f23f92d6d45fa5d0259ce47bc61ec2a",
    "sweep_fleet_size_2_point": "166125a7d7cbd79d35ba5fc806ed2ac2cbd401292e1b84c2a24ff67e326e3093",
    "dag_tiny_resnet_x2": "a308cf11c23e54106a78fb1272933dbd2d24532b7c0d203932534771ec2e9496",
    "dag_tiny_branch_x2": "c75461b778e1bfb1c6404cd1795adb170be4ca70c23a6a09817d8714d8940311",
    "dag_googlenet_graph_zc706_x2": "7882f31d3c014767d25837962fb71fcb66ddc1f1b5392533938bf0e9ecc61d00",
}

PLAN_GOLDEN = {
    "chain_tiny_cnn_x1": "16a0bb802afc43b39731831174cf15be3c22bcfb8b2788fd3b171790ed9e6488",
    "chain_tiny_cnn_x2": "d43dea199b032ee5a66081ce73d6b811f452e410c7c0ee5bfea2a2948d421750",
    "chain_tiny_cnn_x3": "7052310d7d47ed5c7e24397d285f39fc14b3ce2250f62d85107d13d5e952d987",
    "chain_tiny_cnn_binding_budget": "242c1e217dab07231eecdda371756320473b1241ddcec9ca77df2f20d3f6d159",
    "chain_vgg_fused_prefix_2mb": "abe19a55cd089aad77dd57c424274c9fee8e7213a05bec89ca549f8c602db236",
    "chain_slow_link_collapse": "3853fc7f66dcd363a22cbef896028d80d524ac139e710a78fd8330ffb64bc681",
    "chain_heterogeneous_fleet": "a031d503178b87ed01b06cab65df3948d4892a0d85e403780a8eeda2caa639f3",
}


def _digest(*parts) -> str:
    text = json.dumps(parts, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()


def _counters(telemetry) -> dict:
    counters = telemetry.to_dict()
    del counters["wall_time_s"]
    return counters


def _chain_digest(plan) -> str:
    return _digest(
        json.dumps(plan.to_dict(), sort_keys=True),
        plan.report(),
        _counters(plan.telemetry),
    )


def _plan_digest(plan) -> str:
    return _digest(json.dumps(plan.to_dict(), sort_keys=True), plan.report())


def _dag_digest(plan) -> str:
    stages = [
        (
            p.device.name,
            p.strategy.node_names(),
            [s.kind for s in p.strategy.segments],
            p.latency_seconds,
        )
        for p in plan.placements
    ]
    return _digest(
        stages,
        [t.tensor_bytes for t in plan.transfers],
        plan.bottleneck_seconds,
        plan.latency_seconds,
        plan.baseline_latency_seconds,
    )


def _vgg_e_pair():
    return partition_model(models.vgg_fused_prefix(), devices="zc706,zc706")


# -- chain plans --------------------------------------------------------------
#
# Each builder returns the plan itself, cached, so the full and the
# plan-only digest are taken from one partitioning run.


@functools.lru_cache(maxsize=None)
def chain_tiny_cnn_x1():
    return partition_model(models.tiny_cnn(), devices="testchip")


@functools.lru_cache(maxsize=None)
def chain_tiny_cnn_x2():
    return partition_model(models.tiny_cnn(), devices="testchip,testchip")


@functools.lru_cache(maxsize=None)
def chain_tiny_cnn_x3():
    return partition_model(models.tiny_cnn(), devices="testchip,testchip,testchip")


@functools.lru_cache(maxsize=None)
def chain_tiny_cnn_binding_budget():
    # 8000 bytes per stage moves the cut off the unconstrained optimum.
    return partition_model(
        models.tiny_cnn(),
        devices="testchip,testchip",
        transfer_constraint_bytes=8000,
    )


@functools.lru_cache(maxsize=None)
def chain_vgg_fused_prefix_2mb():
    return partition_model(
        models.vgg_fused_prefix(),
        devices="zc706,zc706",
        transfer_constraint_bytes=2 * 2**20,
    )


@functools.lru_cache(maxsize=None)
def chain_slow_link_collapse():
    return partition_model(
        models.tiny_cnn(),
        devices="testchip,testchip",
        link=Link(bandwidth_bytes_per_s=1e3),
    )


@functools.lru_cache(maxsize=None)
def chain_heterogeneous_fleet():
    return partition_model(models.tiny_cnn(), devices="testchip,zc706")


# -- chain plan consumers -----------------------------------------------------


def replan_vgg_e_survivor():
    survivor = replan_survivors(_vgg_e_pair(), 1)
    return _digest(json.dumps(survivor.to_dict(), sort_keys=True), survivor.report())


def simulate_tiny_cnn_x2_spans():
    plan = partition_model(models.tiny_cnn(), devices="testchip,testchip")
    sim = plan.simulate(seed=0)
    return _digest(
        [(s.stage_id, s.device_name, s.start_s, s.end_s) for s in sim.stages],
        [
            (t.link_index, t.tensor_bytes, t.start_s, t.end_s)
            for t in sim.transfers
        ],
    )


def sweep_fleet_size_2_point():
    spec = GridSpec(models=("tiny_cnn",), devices=("testchip",), fleet_sizes=(2,))
    with tempfile.TemporaryDirectory() as out:
        result = sweep_grid(spec, out)
    body = dict(result.records[0]["result"])
    del body["telemetry"]
    return _digest(body)


# -- DAG plans ----------------------------------------------------------------


def dag_tiny_resnet_x2():
    return _dag_digest(
        partition_model(models.tiny_resnet(), devices="testchip,testchip")
    )


def dag_tiny_branch_x2():
    return _dag_digest(
        partition_model(models.tiny_branch(), devices="testchip,testchip")
    )


def dag_googlenet_graph_zc706_x2():
    return _dag_digest(
        partition_model(models.googlenet_graph(), devices="zc706,zc706")
    )


CHAIN_PLANS = {
    fn.__name__: fn
    for fn in (
        chain_tiny_cnn_x1,
        chain_tiny_cnn_x2,
        chain_tiny_cnn_x3,
        chain_tiny_cnn_binding_budget,
        chain_vgg_fused_prefix_2mb,
        chain_slow_link_collapse,
        chain_heterogeneous_fleet,
    )
}

SCENARIOS = {
    **{
        name: functools.partial(lambda build: _chain_digest(build()), build)
        for name, build in CHAIN_PLANS.items()
    },
    **{
        fn.__name__: fn
        for fn in (
            replan_vgg_e_survivor,
            simulate_tiny_cnn_x2_spans,
            sweep_fleet_size_2_point,
            dag_tiny_resnet_x2,
            dag_tiny_branch_x2,
            dag_googlenet_graph_zc706_x2,
        )
    },
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_digest(name):
    assert SCENARIOS[name]() == GOLDEN[name], (
        f"partition scenario {name!r} changed behaviour"
    )


@pytest.mark.parametrize("name", sorted(PLAN_GOLDEN))
def test_plan_digest(name):
    assert _plan_digest(CHAIN_PLANS[name]()) == PLAN_GOLDEN[name], (
        f"partition scenario {name!r} changed its plan"
    )


if __name__ == "__main__":
    print("GOLDEN = {")
    for scenario, func in SCENARIOS.items():
        print(f'    "{scenario}": "{func()}",')
    print("}\n\nPLAN_GOLDEN = {")
    for scenario, build in CHAIN_PLANS.items():
        print(f'    "{scenario}": "{_plan_digest(build())}",')
    print("}")
