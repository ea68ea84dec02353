"""Tests for repro.check: the artifact envelope, invariant validators,
corrupted-artifact fuzzing, and the doctor."""

import dataclasses
import json

import pytest

from repro.check import (
    ENVELOPE_VERSION,
    atomic_write_text,
    load_envelope,
    parse_envelope,
    payload_sha256,
    save_artifact,
    verify_fleet_config,
    verify_plan,
    verify_strategy,
    wrap_payload,
)
from repro.errors import (
    ArtifactError,
    ArtifactIntegrityError,
    ArtifactMismatchError,
    ArtifactSchemaError,
    ArtifactVersionError,
    ReproError,
    VerificationError,
)
from repro.hardware.device import get_device
from repro.nn import models
from repro.optimizer.dp import optimize
from repro.optimizer.serialize import (
    load_strategy,
    save_strategy,
    strategy_from_dict,
)


class Tampered:
    """Duck-typed stand-in overriding select attributes of a base object.

    The real Strategy/PartitionPlan constructors reject inconsistent
    states, so corrupted artifacts are modeled by attribute override —
    exactly what the validators' duck typing must catch.
    """

    def __init__(self, base, **overrides):
        self._base = base
        self._overrides = overrides

    def __getattr__(self, name):
        if name in self._overrides:
            return self._overrides[name]
        return getattr(self._base, name)


@pytest.fixture(scope="module")
def strategy():
    net = models.tiny_cnn()
    dev = get_device("testchip")
    return optimize(net, dev, net.feature_map_bytes())


@pytest.fixture(scope="module")
def plan():
    from repro.toolflow import partition_model

    return partition_model(models.tiny_cnn(), devices="testchip,testchip")


class TestEnvelope:
    def test_wrap_and_parse_roundtrip(self):
        payload = {"a": 1, "b": [2, 3]}
        document = wrap_payload("strategy", payload, digests={"network": "x"})
        envelope = parse_envelope(document, expected_kind="strategy")
        assert envelope.payload == payload
        assert envelope.kind == "strategy"
        assert envelope.schema_version == ENVELOPE_VERSION
        assert not envelope.is_legacy

    def test_kind_mismatch(self):
        document = wrap_payload("strategy", {"a": 1})
        with pytest.raises(ArtifactMismatchError) as excinfo:
            parse_envelope(document, expected_kind="partition_plan")
        assert excinfo.value.code == "E_KIND"

    def test_checksum_mismatch(self):
        document = wrap_payload("strategy", {"a": 1})
        document["payload"]["a"] = 2
        with pytest.raises(ArtifactIntegrityError) as excinfo:
            parse_envelope(document)
        assert excinfo.value.code == "E_CHECKSUM"
        assert excinfo.value.json_path == "$.payload"

    def test_too_new_version(self):
        document = wrap_payload("strategy", {"a": 1})
        document["schema_version"] = ENVELOPE_VERSION + 1
        with pytest.raises(ArtifactVersionError) as excinfo:
            parse_envelope(document)
        assert excinfo.value.code == "E_VERSION"

    def test_older_envelope_version(self):
        document = wrap_payload("strategy", {"a": 1})
        document["schema_version"] = 0
        with pytest.raises(ArtifactVersionError) as excinfo:
            parse_envelope(document)
        assert excinfo.value.code == "E_VERSION"
        assert excinfo.value.json_path == "$.schema_version"

    def test_non_object_document(self):
        with pytest.raises(ArtifactSchemaError) as excinfo:
            parse_envelope([1, 2, 3])
        assert excinfo.value.code == "E_DOC"

    def test_unrecognizable_payload(self):
        with pytest.raises(ArtifactSchemaError) as excinfo:
            parse_envelope({"what": "even"})
        assert excinfo.value.code == "E_FIELD_MISSING"

    def test_missing_file(self, tmp_path):
        with pytest.raises(ArtifactIntegrityError) as excinfo:
            load_envelope(tmp_path / "nope.json")
        assert excinfo.value.code == "E_IO"

    def test_invalid_json_reports_position(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"repro_artifact": "strategy",')
        with pytest.raises(ArtifactIntegrityError) as excinfo:
            load_envelope(path)
        assert excinfo.value.code == "E_JSON"
        assert "line" in str(excinfo.value)

    def test_non_utf8_bytes(self, tmp_path):
        path = tmp_path / "binary.json"
        path.write_bytes(b'{"repro_artifact": \xff\xfe}')
        with pytest.raises(ArtifactIntegrityError) as excinfo:
            load_envelope(path)
        assert excinfo.value.code == "E_ENCODING"

    def test_payload_sha256_is_order_insensitive(self):
        assert payload_sha256({"a": 1, "b": 2}) == payload_sha256(
            {"b": 2, "a": 1}
        )

    def test_atomic_write_leaves_no_temp_files(self, tmp_path):
        path = tmp_path / "artifact.json"
        atomic_write_text(path, "hello")
        atomic_write_text(path, "world")
        assert path.read_text() == "world"
        assert [p.name for p in tmp_path.iterdir()] == ["artifact.json"]

    def test_save_artifact_shape(self, tmp_path):
        path = save_artifact(tmp_path / "a.json", "strategy", {"x": 1})
        document = json.loads(path.read_text())
        assert document["repro_artifact"] == "strategy"
        assert document["payload"] == {"x": 1}
        assert document["payload_sha256"] == payload_sha256({"x": 1})


#: A strategy payload exactly as PR <= 4 wrote it: a bare dict, no
#: envelope, no weight_mode/winograd_m extensions.  Pinned verbatim so a
#: migration regression cannot hide behind re-serialization.
FROZEN_LEGACY_STRATEGY = """\
{
  "schema_version": 1,
  "network": "tiny_cnn",
  "device": "testchip",
  "latency_cycles": 4810,
  "feature_transfer_bytes": 13824,
  "groups": [
    {"range": [0, 1],
     "layers": [{"name": "conv1", "algorithm": "conventional",
                 "parallelism": 64}]},
    {"range": [1, 3],
     "layers": [{"name": "conv2", "algorithm": "winograd",
                 "parallelism": 32},
                {"name": "pool1", "algorithm": "pool",
                 "parallelism": 16}]},
    {"range": [3, 4],
     "layers": [{"name": "conv3", "algorithm": "conventional",
                 "parallelism": 64}]}
  ]
}
"""


class TestLegacyMigration:
    def test_frozen_pre_envelope_strategy_loads(self, tmp_path):
        path = tmp_path / "legacy.json"
        path.write_text(FROZEN_LEGACY_STRATEGY)
        envelope = load_envelope(path, expected_kind="strategy")
        assert envelope.is_legacy
        assert envelope.producer == "pre-envelope"
        reloaded = load_strategy(path, models.tiny_cnn().accelerated_prefix())
        assert reloaded.latency_cycles == 4810

    def test_legacy_plan_payload_sniffed(self, plan, tmp_path):
        path = tmp_path / "legacy_plan.json"
        path.write_text(json.dumps(plan.to_dict()))
        envelope = load_envelope(path, expected_kind="partition_plan")
        assert envelope.is_legacy
        from repro.partition.plan import load_plan

        reloaded = load_plan(path, plan.network)
        assert reloaded.num_stages == plan.num_stages

    def test_legacy_wrong_kind_rejected(self, tmp_path):
        path = tmp_path / "legacy.json"
        path.write_text(FROZEN_LEGACY_STRATEGY)
        with pytest.raises(ArtifactMismatchError) as excinfo:
            load_envelope(path, expected_kind="partition_plan")
        assert excinfo.value.code == "E_KIND"


class TestVerifyStrategy:
    def test_clean_strategy_verifies(self, strategy):
        report = verify_strategy(
            strategy,
            transfer_constraint_bytes=strategy.network.feature_map_bytes(),
        )
        assert report.ok
        assert report.raise_if_failed() is report

    def test_tampered_latency_caught(self, strategy):
        bad_design = dataclasses.replace(
            strategy.designs[0],
            latency_cycles=strategy.designs[0].latency_cycles + 1,
        )
        tampered = Tampered(
            strategy, designs=[bad_design] + list(strategy.designs[1:])
        )
        report = verify_strategy(tampered)
        assert not report.ok
        assert any(v.code == "V_CYCLES" for v in report.violations)
        with pytest.raises(VerificationError):
            report.raise_if_failed()

    def test_transfer_budget_violation(self, strategy):
        report = verify_strategy(strategy, transfer_constraint_bytes=1)
        assert any(v.code == "V_TRANSFER" for v in report.violations)

    def test_non_tiling_boundaries_caught(self, strategy):
        shifted = Tampered(
            strategy,
            boundaries=[(1, 1 + (b - a)) for a, b in strategy.boundaries],
        )
        report = verify_strategy(shifted, check_cost_model=False)
        assert any(v.code == "V_TILING" for v in report.violations)


class TestVerifyPlan:
    def test_clean_plan_verifies(self, plan):
        assert verify_plan(plan).ok

    def test_wrong_transfer_bytes_caught(self, plan):
        if not plan.transfers:
            pytest.skip("single-stage plan has no transfers")
        bad = dataclasses.replace(
            plan.transfers[0], tensor_bytes=plan.transfers[0].tensor_bytes + 8
        )
        tampered = Tampered(plan, transfers=[bad] + list(plan.transfers[1:]))
        report = verify_plan(tampered, check_cost_model=False)
        assert any(v.code == "V_LINKS" for v in report.violations)

    def test_fleet_config_violations(self):
        from types import SimpleNamespace

        from repro.hardware.device import ResourceVector

        # FPGADevice itself refuses these values at construction, so a
        # duck-typed impostor models a fleet config gone bad on disk.
        broken_device = SimpleNamespace(
            name="haunted",
            frequency_hz=0,
            bandwidth_bytes_per_s=0.0,
            resources=ResourceVector(bram18k=0, dsp=64, ff=1, lut=1),
            max_fusion_depth=0,
        )
        broken_link = SimpleNamespace(
            bandwidth_bytes_per_s=0.0, latency_s=-1.0
        )
        fleet = SimpleNamespace(
            name="haunted", devices=[broken_device], links=[broken_link]
        )
        report = verify_fleet_config(fleet)
        codes = {v.code for v in report.violations}
        assert codes == {"V_FLEET"}
        assert len(report.violations) >= 5


class TestCorruptionFuzz:
    """Seeded corruption of real artifacts must always surface as an
    ArtifactError subclass carrying an error code — never a KeyError,
    ValueError, or silent success with damaged data."""

    @pytest.fixture(scope="class")
    def artifact_paths(self, tmp_path_factory):
        from repro.toolflow import compile_model, partition_model

        root = tmp_path_factory.mktemp("fuzz")
        net = models.tiny_cnn()
        dev = get_device("testchip")
        strategy = optimize(net, dev, net.feature_map_bytes())
        spath = save_strategy(strategy, root / "strategy.json")
        plan = partition_model(net, devices="testchip,testchip")
        ppath = plan.save(root / "plan.json")
        dag = models.tiny_resnet()
        dag_spath = save_strategy(
            compile_model(dag, "testchip").strategy, root / "dag_strategy.json"
        )
        dag_ppath = partition_model(dag, devices="testchip,testchip").save(
            root / "dag_plan.json"
        )
        return [spath, ppath, dag_spath, dag_ppath]

    def _load(self, path):
        from repro.partition.plan import load_plan

        # Probes are named after their source: trunc_dag_plan_3.json.
        model = (
            models.tiny_resnet() if "dag" in path.name
            else models.tiny_cnn().accelerated_prefix()
        )
        if "plan" in path.name:
            return load_plan(path, model)
        return load_strategy(path, model)

    def test_truncations_always_raise_artifact_error(
        self, artifact_paths, tmp_path
    ):
        import random

        rng = random.Random(1234)
        for source in artifact_paths:
            data = source.read_bytes()
            for trial in range(25):
                cut = rng.randrange(0, len(data))
                probe = tmp_path / f"trunc_{source.stem}_{trial}.json"
                probe.write_bytes(data[:cut])
                with pytest.raises(ArtifactError) as excinfo:
                    self._load(probe)
                assert excinfo.value.code
                assert excinfo.value.json_path

    def test_byte_flips_never_escape_repro_errors(
        self, artifact_paths, tmp_path
    ):
        import random

        rng = random.Random(99)
        for source in artifact_paths:
            data = bytearray(source.read_bytes())
            for trial in range(40):
                corrupted = bytearray(data)
                for _ in range(rng.randint(1, 4)):
                    position = rng.randrange(0, len(corrupted))
                    corrupted[position] ^= 1 << rng.randrange(0, 8)
                probe = tmp_path / f"flip_{source.stem}_{trial}.json"
                probe.write_bytes(bytes(corrupted))
                try:
                    self._load(probe)
                except ArtifactError as exc:
                    assert exc.code
                except ReproError:
                    pass  # still a precise, typed failure
                # A flip inside free-text (e.g. the producer string) can
                # leave the payload checksum intact; that is a clean load.


class TestDoctor:
    def test_quick_doctor_passes(self, tmp_path):
        from repro.check.consistency import doctor

        report = doctor(workdir=tmp_path)
        assert report.ok, report.summary()
        names = [result.name for result in report.results]
        assert "corruption-detection" in names
        assert "sim-consistency" in names
        assert "dp-vs-oracle" not in names

    def test_deep_doctor_passes(self, tmp_path):
        from repro.check.consistency import doctor

        report = doctor(deep=True, workdir=tmp_path)
        assert report.ok, report.summary()
        names = [result.name for result in report.results]
        assert "dp-vs-oracle" in names
        assert "serving-smoke" in names
        payload = report.to_dict()
        assert payload["ok"] is True
        assert len(payload["checks"]) == len(report.results)


class TestAdmission:
    def test_compile_verify_output_bit_identical(self):
        from repro.toolflow import compile_model

        verified = compile_model(models.tiny_cnn(), device="testchip")
        unverified = compile_model(
            models.tiny_cnn(), device="testchip", verify=False
        )
        assert verified.strategy.report() == unverified.strategy.report()
        assert verified.project.files == unverified.project.files

    def test_serve_admission_rejects_tampered_strategy(self, strategy):
        from repro.serve.scheduler import FleetScheduler

        bad_design = dataclasses.replace(
            strategy.designs[0],
            latency_cycles=strategy.designs[0].latency_cycles + 1,
        )
        tampered = Tampered(
            strategy, designs=[bad_design] + list(strategy.designs[1:])
        )
        with pytest.raises(VerificationError):
            FleetScheduler.for_strategy(tampered)
        # The escape hatch still admits it.
        fleet = FleetScheduler.for_strategy(tampered, verify=False)
        assert fleet is not None

    def test_strategy_from_dict_never_raises_keyerror(self, strategy):
        from repro.optimizer.serialize import strategy_to_dict
        from repro.toolflow import compile_model

        # A chain payload, a graph payload with a split block and one
        # with a fused block; every key at every depth goes missing once.
        cases = [(strategy_to_dict(strategy), strategy.network)]
        for device in ("testchip", "zc706"):
            graph = compile_model(models.tiny_resnet(), device).strategy
            cases.append((strategy_to_dict(graph), graph.graph))
        for payload, model in cases:
            for damaged, key in _without_each_key(payload):
                try:
                    strategy_from_dict(damaged, model)
                except ArtifactError as exc:
                    assert exc.code
                except KeyError as exc:  # pragma: no cover
                    pytest.fail(
                        f"KeyError escaped for missing {key!r}: {exc}"
                    )


def _without_each_key(payload):
    """Copies of ``payload`` with one dict key removed, at every depth."""
    if isinstance(payload, dict):
        for key in payload:
            yield {k: v for k, v in payload.items() if k != key}, key
            for inner, missing in _without_each_key(payload[key]):
                yield {**payload, key: inner}, missing
    elif isinstance(payload, list):
        for index, item in enumerate(payload):
            for inner, missing in _without_each_key(item):
                yield payload[:index] + [inner] + payload[index + 1:], missing


class TestDurabilityFuzz:
    """The PR 5 fuzz contract extended to the durability artifacts:
    cost-store shards, sweep journals, traffic traces and recovery
    logs.  Seeded truncation, byte flips and torn tails must surface
    as typed errors or counted self-heals — never an unhandled crash,
    never silent acceptance of damaged data."""

    TRIALS = 12

    @pytest.fixture(scope="class")
    def corpus(self, tmp_path_factory):
        from repro.check.artifacts import append_envelope_line
        from repro.check.durability import _store_entries
        from repro.dse.store import CostStore
        from repro.resilience import ResiliencePolicy, save_recovery_log
        from repro.traffic import TrafficTrace

        root = tmp_path_factory.mktemp("durafuzz")
        CostStore(root / "store").put_many(_store_entries())
        journal = root / "journal.jsonl"
        for point_id in ("alpha", "bravo", "charlie"):
            append_envelope_line(
                journal, "sweep_point", {"point_id": point_id, "ok": True}
            )
        trace = TrafficTrace.record(
            {"vision": "poisson:mean=4000"}, num_requests=16, seed=3
        ).save(root / "trace.json")
        recovery = save_recovery_log(
            root / "recovery.json",
            ResiliencePolicy(),
            {"events": [{"kind": "detect", "cycle": 10}], "rebuilds": 1},
        )
        return {
            "store_root": root / "store",
            "journal": journal,
            "traffic_trace": trace,
            "recovery_log": recovery,
        }

    # -- per-kind probes: typed error, counted heal, or clean load ----------

    def _probe_shards(self, store_root, mutate, scratch):
        import shutil

        from repro.check.durability import _store_entries
        from repro.dse.store import CostStore

        shutil.copytree(store_root, scratch)
        store = CostStore(scratch)
        for shard in store.shard_paths():
            shard.write_bytes(mutate(shard.read_bytes()))
        strict_failures = 0
        fresh = CostStore(scratch)
        for shard in fresh.shard_paths():
            try:
                fresh.load_shard(shard)
            except ArtifactError as exc:
                assert exc.code and exc.json_path
                strict_failures += 1
        healer = CostStore(scratch)
        for key in _store_entries():
            healer.get(key)  # hit, miss or healed miss — never a crash
        if strict_failures:
            # The lookup path counted the damage it healed around.
            assert healer.corrupt_shards + healer.corrupt_entries >= 1

    def _probe_journal(self, journal, mutate, scratch):
        from repro.check.artifacts import read_envelope_lines

        scratch.write_bytes(mutate(journal.read_bytes()))
        envelopes, skipped = read_envelope_lines(
            scratch, expected_kind="sweep_point"
        )
        assert skipped >= 0
        for envelope in envelopes:
            assert envelope.payload["point_id"] in ("alpha", "bravo", "charlie")

    def _probe_artifact(self, source, mutate, scratch, loader):
        scratch.write_bytes(mutate(source.read_bytes()))
        try:
            loader(scratch)
        except ArtifactError as exc:
            assert exc.code
        except ReproError:
            pass  # still a precise, typed failure

    def _run_fuzz(self, corpus, tmp_path, mutators, tag):
        from functools import partial

        from repro.check.artifacts import load_envelope
        from repro.traffic import load_trace

        for trial, mutate in enumerate(mutators):
            self._probe_shards(
                corpus["store_root"], mutate, tmp_path / f"{tag}_store_{trial}"
            )
            self._probe_journal(
                corpus["journal"], mutate, tmp_path / f"{tag}_journal_{trial}"
            )
            self._probe_artifact(
                corpus["traffic_trace"], mutate,
                tmp_path / f"{tag}_trace_{trial}.json", load_trace,
            )
            self._probe_artifact(
                corpus["recovery_log"], mutate,
                tmp_path / f"{tag}_recovery_{trial}.json",
                partial(load_envelope, expected_kind="recovery_log"),
            )

    def test_seeded_truncation(self, corpus, tmp_path):
        import random

        rng = random.Random(4242)

        def truncator(data: bytes) -> bytes:
            return data[: rng.randrange(0, len(data))]

        self._run_fuzz(
            corpus, tmp_path, [truncator] * self.TRIALS, "trunc"
        )

    def test_seeded_byte_flips(self, corpus, tmp_path):
        import random

        rng = random.Random(777)

        def flipper(data: bytes) -> bytes:
            corrupted = bytearray(data)
            for _ in range(rng.randint(1, 4)):
                position = rng.randrange(0, len(corrupted))
                corrupted[position] ^= 1 << rng.randrange(0, 8)
            return bytes(corrupted)

        self._run_fuzz(corpus, tmp_path, [flipper] * self.TRIALS, "flip")

    def test_torn_tail(self, corpus, tmp_path):
        import random

        rng = random.Random(5)

        def tearer(data: bytes) -> bytes:
            # A crash mid-append: the file ends with a partial replay
            # of its own tail, cut at a seeded offset, no newline.
            tail = data[-min(len(data), 200):]
            return data + tail[: rng.randrange(1, len(tail))]

        self._run_fuzz(corpus, tmp_path, [tearer] * self.TRIALS, "torn")

    def test_torn_journal_tail_costs_exactly_the_torn_line(
        self, corpus, tmp_path
    ):
        from repro.check.artifacts import read_envelope_lines

        data = corpus["journal"].read_bytes()
        lines = data.splitlines(keepends=True)
        torn = tmp_path / "torn.jsonl"
        torn.write_bytes(b"".join(lines[:2]) + lines[2][: len(lines[2]) // 2])
        envelopes, skipped = read_envelope_lines(
            torn, expected_kind="sweep_point"
        )
        assert [e.payload["point_id"] for e in envelopes] == ["alpha", "bravo"]
        assert skipped == 1
