"""Golden digests of the multi-FPGA partitioner.

Each scenario partitions a model and hashes what the plan exposes.
Chain plans hash ``plan.to_dict()``, ``plan.report()`` and the search
telemetry counters (wall time excluded).  Plan consumers hash their
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
    "chain_tiny_cnn_x1": "688551bd37ed0a667f3ee398ef79ae85538f93ecbf465c60a265446073449812",
    "chain_tiny_cnn_x2": "6901cad5ba3a80e15789c356511092d34faddae1b49737910f167fb28a80c20e",
    "chain_tiny_cnn_x3": "52ec063c60f1f635e7c39879b3f47b84828ac699a2b6ec989bf47df8aea82e63",
    "chain_tiny_cnn_binding_budget": "1a1ba0131004dd87f18d18f83e3c81c1f597085e83cee03702ca565fba006f75",
    "chain_vgg_fused_prefix_2mb": "d385f2b7bd363eafc58af1d8da77d3405cae04192cd5fdc345c198c289170563",
    "chain_slow_link_collapse": "99d942700e19a6880e2fc8911ed6cd2018f557445289b66cd329d52656097828",
    "chain_heterogeneous_fleet": "e5b99d37eed3ad1d2e34d7973c01b1648d3c77870b4e93dcd6987608f4d266c5",
    "replan_vgg_e_survivor": "a4ff204006ba3ab3f1cdfb4738d35e2586cd8054f772aab8d04e799d10beea5c",
    "simulate_tiny_cnn_x2_spans": "4c45168e9e2df32539f9b2c6a1e031403f23f92d6d45fa5d0259ce47bc61ec2a",
    "sweep_fleet_size_2_point": "166125a7d7cbd79d35ba5fc806ed2ac2cbd401292e1b84c2a24ff67e326e3093",
    "dag_tiny_resnet_x2": "a308cf11c23e54106a78fb1272933dbd2d24532b7c0d203932534771ec2e9496",
    "dag_tiny_branch_x2": "c75461b778e1bfb1c6404cd1795adb170be4ca70c23a6a09817d8714d8940311",
    "dag_googlenet_graph_zc706_x2": "7882f31d3c014767d25837962fb71fcb66ddc1f1b5392533938bf0e9ecc61d00",
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


def chain_tiny_cnn_x1():
    return _chain_digest(partition_model(models.tiny_cnn(), devices="testchip"))


def chain_tiny_cnn_x2():
    return _chain_digest(
        partition_model(models.tiny_cnn(), devices="testchip,testchip")
    )


def chain_tiny_cnn_x3():
    return _chain_digest(
        partition_model(models.tiny_cnn(), devices="testchip,testchip,testchip")
    )


def chain_tiny_cnn_binding_budget():
    # 8000 bytes per stage moves the cut off the unconstrained optimum.
    return _chain_digest(
        partition_model(
            models.tiny_cnn(),
            devices="testchip,testchip",
            transfer_constraint_bytes=8000,
        )
    )


def chain_vgg_fused_prefix_2mb():
    return _chain_digest(
        partition_model(
            models.vgg_fused_prefix(),
            devices="zc706,zc706",
            transfer_constraint_bytes=2 * 2**20,
        )
    )


def chain_slow_link_collapse():
    return _chain_digest(
        partition_model(
            models.tiny_cnn(),
            devices="testchip,testchip",
            link=Link(bandwidth_bytes_per_s=1e3),
        )
    )


def chain_heterogeneous_fleet():
    return _chain_digest(
        partition_model(models.tiny_cnn(), devices="testchip,zc706")
    )


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


SCENARIOS = {
    fn.__name__: fn
    for fn in (
        chain_tiny_cnn_x1,
        chain_tiny_cnn_x2,
        chain_tiny_cnn_x3,
        chain_tiny_cnn_binding_budget,
        chain_vgg_fused_prefix_2mb,
        chain_slow_link_collapse,
        chain_heterogeneous_fleet,
        replan_vgg_e_survivor,
        simulate_tiny_cnn_x2_spans,
        sweep_fleet_size_2_point,
        dag_tiny_resnet_x2,
        dag_tiny_branch_x2,
        dag_googlenet_graph_zc706_x2,
    )
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_digest(name):
    assert SCENARIOS[name]() == GOLDEN[name], (
        f"partition scenario {name!r} changed behaviour"
    )


if __name__ == "__main__":
    for scenario, func in SCENARIOS.items():
        print(f'    "{scenario}": "{func()}",')
