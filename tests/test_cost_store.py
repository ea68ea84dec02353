"""The persistent cost store: addressing, persistence, damage, concurrency.

The contract under test (see ``src/repro/dse/store.py``):

* keys address the same entry in every process (no hash randomization);
* the store holds only finished searches, each with its engines;
* a store-backed search returns bit-identical strategies to a
  store-less one, while skipping the searches it recalls;
* any on-disk damage surfaces as a typed ``ArtifactError`` from the
  strict loader and as a transparent recompute from the lookup path;
* two processes flushing overlapping keys never lose or tear entries.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import subprocess
import sys
from dataclasses import replace

import pytest

from repro.dse.store import (
    KEY_VERSION,
    SEARCH_VERSION,
    CostStore,
    group_from_dict,
    group_to_dict,
    implementation_from_dict,
    implementation_to_dict,
    key_digest,
    resolve_store,
    stable_key_text,
)
from repro.errors import ArtifactError
from repro.hardware.device import get_device
from repro.nn import models
from repro.optimizer.branch_and_bound import GroupSearch
from repro.optimizer.dp import optimize, optimize_many
from repro.optimizer.serialize import strategy_to_dict
from repro.perf.cost import EvalContext
from repro.perf.implement import Algorithm
from tests.test_search_golden import TRUNCATING_BUDGET


def _first_key_and_impl(tiny_net, testchip):
    """One real (cache key, Implementation) pair from a live search."""
    context = EvalContext()
    optimize(tiny_net, testchip, tiny_net.feature_map_bytes(), context=context)
    key, impl = next(iter(context._cache.items()))
    return key, impl


def _first_group(tiny_net, testchip):
    """One real (group key, engines) pair from a live, feasible search."""
    context = EvalContext()
    GroupSearch(tiny_net, testchip, context=context).precompute()
    return next(
        (key, choices) for key, choices in context._groups.items() if choices
    )


class TestAddressing:
    def test_key_text_is_deterministic_across_processes(
        self, tiny_net, testchip
    ):
        """repr() of a cache key must not embed memory addresses, and a
        group key's algorithm set must not depend on the hash seed."""
        key, _ = _first_key_and_impl(tiny_net, testchip)
        text = stable_key_text(key)
        assert "0x" not in text
        # Conventional-only in effect: convs get CONVENTIONAL, pools keep
        # POOL; three members, so a set's repr order would vary by seed.
        script = (
            "from repro.nn import models\n"
            "from repro.hardware.device import get_device\n"
            "from repro.optimizer.branch_and_bound import GroupSearch\n"
            "from repro.optimizer.dp import optimize\n"
            "from repro.perf.cost import EvalContext\n"
            "from repro.perf.implement import Algorithm\n"
            "from repro.dse.store import key_digest\n"
            "net = models.tiny_cnn()\n"
            "ctx = EvalContext()\n"
            "optimize(net, get_device('testchip'), "
            "net.feature_map_bytes(), context=ctx)\n"
            "print('\\n'.join(sorted(key_digest(k) for k in ctx._cache)))\n"
            "ctx = EvalContext()\n"
            "GroupSearch(net, get_device('testchip'), algorithms=("
            "Algorithm.POOL, Algorithm.LRN, Algorithm.CONVENTIONAL), "
            "context=ctx).precompute()\n"
            "print('\\n'.join(sorted(key_digest(k) for k in ctx._groups)))\n"
        )
        context = EvalContext()
        optimize(
            tiny_net, testchip, tiny_net.feature_map_bytes(), context=context
        )
        ours = sorted(key_digest(k) for k in context._cache)
        pinned = EvalContext()
        GroupSearch(
            tiny_net, testchip,
            algorithms=(Algorithm.CONVENTIONAL, Algorithm.LRN, Algorithm.POOL),
            context=pinned,
        ).precompute()
        assert pinned._groups
        ours += sorted(key_digest(k) for k in pinned._groups)
        for seed in ("1", "4"):
            result = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True, text=True, check=True,
                env={**os.environ, "PYTHONHASHSEED": seed},
            )
            assert result.stdout.split() == ours, seed

    def test_digest_is_salted_with_key_version(
        self, tiny_net, testchip, monkeypatch
    ):
        import repro.dse.store as store_mod

        key, _ = _first_key_and_impl(tiny_net, testchip)
        before = key_digest(key)
        assert len(before) == 64
        monkeypatch.setattr(store_mod, "KEY_VERSION", KEY_VERSION + 1)
        assert key_digest(key) != before


class TestImplementationRoundtrip:
    def test_roundtrip_every_field(self, tiny_net, testchip):
        _, impl = _first_key_and_impl(tiny_net, testchip)
        rebuilt = implementation_from_dict(implementation_to_dict(impl))
        assert rebuilt == impl

    def test_roundtrip_with_weight_mode_none(self, tiny_net, testchip):
        _, impl = _first_key_and_impl(tiny_net, testchip)
        impl = replace(impl, weight_mode=None)
        rebuilt = implementation_from_dict(implementation_to_dict(impl))
        assert rebuilt == impl

    def test_damaged_entry_raises_typed_error(self, tiny_net, testchip):
        _, impl = _first_key_and_impl(tiny_net, testchip)
        entry = implementation_to_dict(impl)
        entry["algorithm"] = "quantum"
        with pytest.raises(ArtifactError) as exc:
            implementation_from_dict(entry)
        assert exc.value.code
        assert "algorithm" in exc.value.json_path


class TestStoreTier:
    def test_cold_then_warm_context(self, tiny_net, testchip, tmp_path):
        budget = tiny_net.feature_map_bytes()
        store = CostStore(tmp_path / "store")
        cold = EvalContext(store=store)
        optimize(tiny_net, testchip, budget, context=cold)
        assert cold.stats.store_hits == 0
        assert cold.stats.evaluations > 0

        warm = EvalContext(store=CostStore(tmp_path / "store"))
        optimize(tiny_net, testchip, budget, context=warm)
        assert warm.stats.evaluations == 0
        assert warm.stats.store_hits > 0
        assert warm.stats.store_hit_rate == 1.0

    def test_store_backed_strategy_is_bit_identical(
        self, tiny_net, testchip, tmp_path
    ):
        budget = tiny_net.feature_map_bytes()
        plain = optimize(tiny_net, testchip, budget)
        cold = optimize(
            tiny_net, testchip, budget, context=EvalContext(store=tmp_path / "s")
        )
        warm = optimize(
            tiny_net, testchip, budget, context=EvalContext(store=tmp_path / "s")
        )
        assert (
            strategy_to_dict(plain)
            == strategy_to_dict(cold)
            == strategy_to_dict(warm)
        )

    def test_optimize_many_shares_the_store(
        self, tiny_net, testchip, tmp_path
    ):
        budgets = [tiny_net.feature_map_bytes(), 1 << 20]
        first = optimize_many(
            tiny_net, testchip, budgets, context=EvalContext(store=tmp_path / "s")
        )
        second = optimize_many(
            tiny_net, testchip, budgets, context=EvalContext(store=tmp_path / "s")
        )
        assert [strategy_to_dict(s) for s in first] == [
            strategy_to_dict(s) for s in second
        ]
        probe = EvalContext(store=CostStore(tmp_path / "s"))
        optimize(tiny_net, testchip, budgets[0], context=probe)
        assert probe.stats.evaluations == 0

    def test_eval_context_coerces_path_store(self, tiny_net, testchip, tmp_path):
        context = EvalContext(store=tmp_path / "s")
        assert isinstance(context.store, CostStore)
        optimize(
            tiny_net, testchip, tiny_net.feature_map_bytes(), context=context
        )
        context.flush_store()
        assert CostStore(tmp_path / "s").stats().entries > 0

    def test_flush_store_reports_and_drains(self, tiny_net, testchip, tmp_path):
        context = EvalContext(store=CostStore(tmp_path / "s"))
        # optimize() flushes internally; re-flush must be a no-op.
        optimize(
            tiny_net, testchip, tiny_net.feature_map_bytes(), context=context
        )
        assert context.flush_store() == 0

    def test_telemetry_reports_cache_tiers(self, tiny_net, testchip, tmp_path):
        budget = tiny_net.feature_map_bytes()
        optimize(
            tiny_net, testchip, budget, context=EvalContext(store=tmp_path / "s")
        )
        warm = EvalContext(store=CostStore(tmp_path / "s"))
        optimize(tiny_net, testchip, budget, context=warm)
        counters = warm.stats.to_dict()
        assert "cache_tiers" not in counters
        assert counters["evaluations"] == counters["cache_hits"] == 0
        assert counters["groups_searched"] == 0
        assert counters["store_hits"] > 0
        assert counters["store_hit_rate"] == 1.0
        assert "store group hits" in warm.stats.summary()

    def test_store_holds_only_group_records(self, tiny_net, testchip, tmp_path):
        context = EvalContext(store=tmp_path / "s")
        optimize(
            tiny_net, testchip, tiny_net.feature_map_bytes(), context=context
        )
        store = CostStore(tmp_path / "s")
        entries = store.load_shard(store.log_path)
        assert len(entries) == context.stats.groups_searched
        assert all(set(entry) == {"key", "created", "group"}
                   for entry in entries.values())


class TestDamage:
    def _warm_store(self, tiny_net, testchip, root):
        optimize(
            tiny_net, testchip, tiny_net.feature_map_bytes(),
            context=EvalContext(store=root),
        )
        return CostStore(root)

    def test_corrupt_shard_raises_typed_error_strictly(
        self, tiny_net, testchip, tmp_path
    ):
        store = self._warm_store(tiny_net, testchip, tmp_path / "s")
        victim = store.shard_paths()[0]
        victim.write_text(victim.read_text()[: victim.stat().st_size // 2])
        with pytest.raises(ArtifactError) as exc:
            CostStore(store.root).load_shard(victim)
        assert exc.value.code

    def test_corrupt_shard_self_heals_through_lookup(
        self, tiny_net, testchip, tmp_path
    ):
        budget = tiny_net.feature_map_bytes()
        baseline = optimize(
            tiny_net, testchip, budget, context=EvalContext(store=tmp_path / "s")
        )
        store = CostStore(tmp_path / "s")
        for victim in store.shard_paths():
            victim.write_text(
                victim.read_text().replace('"entries"', '"entr!es"', 1)
            )
        healing = CostStore(tmp_path / "s")
        context = EvalContext(store=healing)
        recomputed = optimize(tiny_net, testchip, budget, context=context)
        assert healing.corrupt_shards > 0
        assert strategy_to_dict(recomputed) == strategy_to_dict(baseline)
        # The flush rewrote every damaged shard back to validity.
        fresh = CostStore(tmp_path / "s")
        for path in fresh.shard_paths():
            fresh.load_shard(path)

    def test_damaged_single_entry_serves_a_miss(
        self, tiny_net, testchip, tmp_path
    ):
        """One bad entry inside a valid envelope: get() -> None, counted."""
        context = EvalContext(store=CostStore(tmp_path / "s"))
        optimize(
            tiny_net, testchip, tiny_net.feature_map_bytes(), context=context
        )
        key = next(key for key, choices in context._groups.items() if choices)
        store = CostStore(tmp_path / "s")
        assert store.get(key) is not None
        digest = key_digest(key)
        entry = store.load_shard(store.log_path)[digest]
        entry["group"]["layers"][0]["algorithm"] = "quantum"
        _rewrite_entry(store.log_path, digest, entry)
        fresh = CostStore(tmp_path / "s")
        assert fresh.get(key) is None
        assert fresh.corrupt_entries == 1
        # Repeated misses don't double-count the same forgotten entry.
        assert fresh.get(key) is None
        assert fresh.corrupt_entries == 1

    @pytest.mark.parametrize("seed", range(6))
    def test_truncation_fuzz_never_uncaught(
        self, tiny_net, testchip, tmp_path, seed
    ):
        """Truncating the log anywhere yields a typed error or empty."""
        import random

        store = self._warm_store(tiny_net, testchip, tmp_path / "s")
        rng = random.Random(seed)
        victim = rng.choice(store.shard_paths())
        text = victim.read_text()
        cut = rng.randrange(0, len(text))
        victim.write_text(text[:cut])
        fresh = CostStore(tmp_path / "s")
        try:
            fresh.load_shard(victim)
        except ArtifactError as exc:
            assert exc.code
        # The lookup path must stay silent and serve misses.
        healing = CostStore(tmp_path / "s")
        entries = healing._entries()
        assert isinstance(entries, dict)


def _group_entries(root):
    """``digest -> (shard path, entry)`` of every group entry on disk."""
    store = CostStore(root)
    return {
        digest: (path, entry)
        for path in store.shard_paths()
        for digest, entry in store.load_shard(path).items()
        if "group" in entry
    }


def _rewrite_entry(path, digest, entry):
    """Replace one entry in every log record that holds it, each record
    staying a valid, checksummed envelope."""
    from repro.check.artifacts import envelope_line
    from repro.dse.store import SHARD_KIND

    lines = []
    for line in path.read_text().splitlines(keepends=True):
        payload = json.loads(line)["payload"]
        if digest in payload["entries"]:
            payload["entries"][digest] = entry
            line = envelope_line(SHARD_KIND, payload)
        lines.append(line)
    path.write_text("".join(lines))


def _flip_bit(text):
    return chr(ord(text[0]) ^ 1) + text[1:]


#: Damage to one feasible group entry, each inside a valid envelope.
_ENTRY_DAMAGE = {
    "flipped_algorithm": lambda g: g["layers"][0].update(
        algorithm=_flip_bit(g["layers"][0]["algorithm"])
    ),
    "flipped_weight_mode": lambda g: g["layers"][0].update(
        weight_mode=_flip_bit(g["layers"][0]["weight_mode"])
    ),
    "off_menu_parallelism": lambda g: g["layers"][0].update(
        parallelism=g["layers"][0]["parallelism"] ^ (1 << 20)
    ),
    "truncated": lambda g: g.pop("layers"),
    "extra_layer": lambda g: g["layers"].append(dict(g["layers"][0])),
    "missing_layer": lambda g: g["layers"].pop(),
    "infeasible_with_layers": lambda g: g.update(feasible=False),
    "mistyped": lambda g: g.update(feasible="yes"),
}


class TestGroupEntries:
    """What completed searches chose, in the same shards."""

    def test_group_choices_roundtrip(self, tiny_net, testchip):
        context = EvalContext()
        GroupSearch(tiny_net, testchip, context=context).precompute()
        assert context._groups
        for key, choices in context._groups.items():
            rebuilt = group_from_dict(group_to_dict(choices), len(key.layers))
            assert rebuilt == choices

    def test_group_digest_is_salted_with_search_version(
        self, tiny_net, testchip, monkeypatch
    ):
        import repro.dse.store as store_mod

        group_key, _ = _first_group(tiny_net, testchip)
        before = key_digest(group_key)
        monkeypatch.setattr(store_mod, "SEARCH_VERSION", SEARCH_VERSION + 1)
        assert key_digest(group_key) != before

    def test_fresh_process_recalls_every_design(self, zc706, tmp_path):
        # conv2_1 .. conv3_3: conv3_2 and conv3_3 share a signature.
        root = tmp_path / "s"
        script = (
            "import sys\n"
            "from repro.nn import models\n"
            "from repro.hardware.device import get_device\n"
            "from repro.optimizer.branch_and_bound import GroupSearch\n"
            "from repro.perf.cost import EvalContext\n"
            "ctx = EvalContext(store=sys.argv[1])\n"
            "GroupSearch(models.vgg16().slice(3, 9), get_device('zc706'), "
            "context=ctx).precompute()\n"
            "ctx.flush_store()\n"
        )
        subprocess.run(
            [sys.executable, "-c", script, str(root)], check=True
        )
        network = models.vgg16().slice(3, 9)
        context = EvalContext(store=CostStore(root))
        warm = GroupSearch(network, zc706, context=context)
        for start in range(len(network)):
            for stop in range(start + 1, len(network) + 1):
                fresh = GroupSearch(network, zc706, node_budget=0).fusion(
                    start, stop
                )
                assert warm.fusion(start, stop) == fresh
        assert context.stats.groups_searched == 0
        assert context.stats.nodes_visited == 0
        assert context.stats.evaluations == 0

    def test_truncated_search_writes_no_group_entry(self, zc706, tmp_path):
        network = models.alexnet().prefix(8)
        context = EvalContext(store=CostStore(tmp_path / "s"))
        search = GroupSearch(
            network, zc706, node_budget=TRUNCATING_BUDGET, context=context
        )
        search.precompute()
        context.flush_store()
        store = CostStore(tmp_path / "s")
        truncated = {(0, 8), (1, 8)}
        for start in range(len(network)):
            for stop in range(start + 1, len(network) + 1):
                key = search._group_key(start, stop)
                if (start, stop) in truncated:
                    assert store.get(key) is None
                    assert context.recall_group(key) is None
                else:
                    assert store.get(key) is not None
        assert len(_group_entries(tmp_path / "s")) == 36 - len(truncated)
        # Another search on the context re-runs the truncated two only.
        before = context.stats.groups_searched
        GroupSearch(
            network, zc706, node_budget=TRUNCATING_BUDGET, context=context
        ).precompute()
        assert context.stats.groups_searched - before == len(truncated)

    @pytest.mark.parametrize("damage", sorted(_ENTRY_DAMAGE))
    def test_damaged_group_entry_is_a_miss(
        self, tiny_net, testchip, tmp_path, damage
    ):
        root = tmp_path / "s"
        budget = tiny_net.feature_map_bytes()
        baseline = optimize(
            tiny_net, testchip, budget, context=EvalContext(store=root)
        )
        # A feasible range led by a conv engine, which has a weight mode.
        digest, (path, entry) = next(
            (digest, found)
            for digest, found in sorted(_group_entries(root).items())
            if found[1]["group"]["feasible"]
            and found[1]["group"]["layers"][0]["weight_mode"] is not None
        )
        _ENTRY_DAMAGE[damage](entry["group"])
        _rewrite_entry(path, digest, entry)

        healing = CostStore(root)
        context = EvalContext(store=healing)
        recomputed = optimize(tiny_net, testchip, budget, context=context)
        assert strategy_to_dict(recomputed) == strategy_to_dict(baseline)
        # Only the damaged range is searched again ...
        assert context.stats.groups_searched == 1
        # ... a schema error is counted (an off-menu choice is well
        # formed, so the search sees the miss instead) ...
        assert healing.corrupt_entries == (
            0 if damage == "off_menu_parallelism" else 1
        )
        # ... and the flush wrote the good entry back.
        warm = EvalContext(store=CostStore(root))
        optimize(tiny_net, testchip, budget, context=warm)
        assert warm.stats.groups_searched == 0

    def test_bit_flipped_group_shard_heals(self, tiny_net, testchip, tmp_path):
        root = tmp_path / "s"
        budget = tiny_net.feature_map_bytes()
        baseline = optimize(
            tiny_net, testchip, budget, context=EvalContext(store=root)
        )
        path, _ = next(iter(_group_entries(root).values()))
        data = bytearray(path.read_bytes())
        data[len(data) // 2] ^= 0x01
        path.write_bytes(bytes(data))
        with pytest.raises(ArtifactError):
            CostStore(root).load_shard(path)
        context = EvalContext(store=CostStore(root))
        recomputed = optimize(tiny_net, testchip, budget, context=context)
        assert strategy_to_dict(recomputed) == strategy_to_dict(baseline)
        assert context.stats.groups_searched >= 1
        CostStore(root).load_shard(path)  # the flush rewrote the shard


class TestHygiene:
    def test_stats_counts_entries_and_bytes(self, tiny_net, testchip, tmp_path):
        optimize(
            tiny_net, testchip, tiny_net.feature_map_bytes(),
            context=EvalContext(store=tmp_path / "s"),
        )
        stats = CostStore(tmp_path / "s").stats()
        assert stats.entries > 0
        assert stats.shards > 0
        assert stats.bytes > 0
        assert stats.corrupt_shards == 0
        assert stats.to_dict()["entries"] == stats.entries
        assert "cost store" in stats.summary()

    def test_gc_by_count_keeps_newest(self, tiny_net, testchip, tmp_path):
        optimize(
            tiny_net, testchip, tiny_net.feature_map_bytes(),
            context=EvalContext(store=tmp_path / "s"),
        )
        store = CostStore(tmp_path / "s")
        before = store.stats().entries
        evicted = store.gc(max_entries=5)
        assert evicted == before - 5
        assert CostStore(tmp_path / "s").stats().entries == 5

    def test_gc_by_age_evicts_old_entries(self, tiny_net, testchip, tmp_path):
        optimize(
            tiny_net, testchip, tiny_net.feature_map_bytes(),
            context=EvalContext(store=tmp_path / "s"),
        )
        store = CostStore(tmp_path / "s")
        # Everything was written "now": a generous age bound keeps all,
        # a zero bound evicts all.
        assert store.gc(max_age_s=3600.0) == 0
        evicted = CostStore(tmp_path / "s").gc(max_age_s=0.0)
        assert evicted > 0
        assert CostStore(tmp_path / "s").stats().entries == 0

    def test_gc_compacts_damaged_shards(self, tiny_net, testchip, tmp_path):
        optimize(
            tiny_net, testchip, tiny_net.feature_map_bytes(),
            context=EvalContext(store=tmp_path / "s"),
        )
        store = CostStore(tmp_path / "s")
        victim = store.shard_paths()[0]
        victim.write_text("not json at all")
        CostStore(tmp_path / "s").gc()
        stats = CostStore(tmp_path / "s").stats()
        assert stats.corrupt_shards == 0

    def test_clear_removes_everything(self, tiny_net, testchip, tmp_path):
        optimize(
            tiny_net, testchip, tiny_net.feature_map_bytes(),
            context=EvalContext(store=tmp_path / "s"),
        )
        store = CostStore(tmp_path / "s")
        removed = store.clear()
        assert removed > 0
        assert CostStore(tmp_path / "s").stats().entries == 0

    def test_stale_key_version_shard_reads_empty(
        self, tiny_net, testchip, tmp_path
    ):
        from repro.check.artifacts import append_envelope_line
        from repro.dse.store import SHARD_KIND

        store = CostStore(tmp_path / "s")
        store.root.mkdir(parents=True)
        path = store.log_path
        append_envelope_line(
            path,
            SHARD_KIND,
            {"key_version": KEY_VERSION + 1, "entries": {"x": {"impl": {}}}},
        )
        assert store.load_shard(path) == {}

    def test_point_entry_log_starts_cold_once(self, tiny_net, testchip, tmp_path):
        """A log of key_version 1 (per-point entries beside the group
        entries) is stale, not damage: one cold run, then warm."""
        from repro.check.artifacts import append_envelope_line
        from repro.dse.store import SHARD_KIND

        key, impl = _first_key_and_impl(tiny_net, testchip)
        store = CostStore(tmp_path / "s")
        store.root.mkdir(parents=True)
        old = {"key": stable_key_text(key), "created": 0.0,
               "impl": implementation_to_dict(impl)}
        append_envelope_line(
            store.log_path, SHARD_KIND,
            {"key_version": 1, "entries": {"0" * 64: old}},
        )
        budget = tiny_net.feature_map_bytes()
        cold = EvalContext(store=store)
        optimize(tiny_net, testchip, budget, context=cold)
        assert store.corrupt_shards == store.corrupt_entries == 0
        assert cold.stats.store_hits == 0 and cold.stats.groups_searched > 0
        warm = EvalContext(store=CostStore(tmp_path / "s"))
        optimize(tiny_net, testchip, budget, context=warm)
        assert warm.stats.groups_searched == warm.stats.evaluations == 0
        assert CostStore(tmp_path / "s").stats().corrupt_shards == 0

    def test_point_entry_log_compacts_at_first_flush(
        self, tiny_net, testchip, tmp_path
    ):
        """A read that meets a stale record sets the compaction flag, so
        a key_version 1 log plus one flush is one current record."""
        from repro.check.artifacts import append_envelope_line
        from repro.dse.store import SHARD_KIND

        key, impl = _first_key_and_impl(tiny_net, testchip)
        store = CostStore(tmp_path / "s")
        store.root.mkdir(parents=True)
        old = {"key": stable_key_text(key), "created": 0.0,
               "impl": implementation_to_dict(impl)}
        append_envelope_line(
            store.log_path, SHARD_KIND,
            {"key_version": 1, "entries": {"0" * 64: old}},
        )
        optimize(
            tiny_net, testchip, tiny_net.feature_map_bytes(),
            context=EvalContext(store=store),
        )
        assert store.corrupt_shards == 0
        stats = CostStore(tmp_path / "s").stats()
        assert stats.shards == 1
        assert stats.entries > 0
        assert stats.corrupt_shards == 0

    def test_resolve_store_coercions(self, tmp_path):
        assert resolve_store(None) is None
        store = CostStore(tmp_path)
        assert resolve_store(store) is store
        assert isinstance(resolve_store(tmp_path / "x"), CostStore)


def _concurrent_writer(args):
    """Worker for the two-process overlap test (module-level: picklable)."""
    root, offset = args
    from repro.hardware.device import get_device
    from repro.nn import models

    network = models.tiny_cnn()
    device = get_device("testchip")
    budgets = [network.feature_map_bytes(), (1 << 20) + offset]
    for budget in budgets:
        optimize(network, device, budget, context=EvalContext(store=root))
    return True


class TestConcurrency:
    def test_two_processes_overlapping_keys(self, tmp_path):
        """Concurrent flushes into one store: no corruption, no loss."""
        root = str(tmp_path / "shared")
        ctx = multiprocessing.get_context("fork")
        with ctx.Pool(2) as pool:
            results = pool.map(
                _concurrent_writer, [(root, 0), (root, 4096)]
            )
        assert results == [True, True]
        store = CostStore(root)
        stats = store.stats()
        assert stats.corrupt_shards == 0
        assert stats.entries > 0
        for path in store.shard_paths():
            store.load_shard(path)  # every shard loads cleanly

    def test_refresh_adds_other_writers_records(self, tmp_path):
        from repro.check.durability import _store_entries

        entries = list(_store_entries().items())
        root = tmp_path / "s"
        CostStore(root).put_many(dict(entries[:1]))
        reader = CostStore(root)
        assert reader.get(entries[0][0]) is not None
        CostStore(root).put_many(dict(entries[1:2]))  # another writer
        assert reader.get(entries[1][0]) is None  # a view is not live
        reader.refresh()
        assert reader.get(entries[1][0]) is not None
        assert reader._read_to[1] == reader.log_path.stat().st_size
        # A compaction replaces the file: the next refresh reads it whole.
        CostStore(root).gc()
        CostStore(root).put_many(dict(entries[2:]))
        reader.refresh()
        assert all(reader.get(key) is not None for key, _ in entries)
        assert reader.corrupt_shards == 0

    def test_shard_files_are_valid_json_envelopes(
        self, tiny_net, testchip, tmp_path
    ):
        optimize(
            tiny_net, testchip, tiny_net.feature_map_bytes(),
            context=EvalContext(store=tmp_path / "s"),
        )
        paths = CostStore(tmp_path / "s").shard_paths()
        assert paths
        for path in paths:
            for line in path.read_text().splitlines():
                document = json.loads(line)
                assert document["repro_artifact"] == "cost_store_shard"


def _tiny_run(root, device_name):
    """A store-backed compile of tiny_cnn (module-level: a fork target)."""
    network = models.tiny_cnn()
    return optimize(
        network, get_device(device_name), network.feature_map_bytes(),
        context=EvalContext(store=root),
    )


def _healed_entries(root):
    """The log's entries, loaded strictly, without their timestamps."""
    store = CostStore(root)
    return {
        digest: {k: v for k, v in entry.items() if k != "created"}
        for digest, entry in store.load_shard(store.log_path).items()
    }


class TestFlushShape:
    """A flush appends one record: one fsync, nothing rewritten."""

    def test_cold_flush_is_one_fsync(self, tmp_path, monkeypatch):
        import os

        from repro.toolflow import compile_model

        fsyncs = []
        real_fsync = os.fsync

        def counting_fsync(fd):
            fsyncs.append(fd)
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", counting_fsync)
        store = CostStore(tmp_path / "s")
        context = EvalContext(store=store)
        compile_model(
            models.catalog()["vgg_e"](), device="zc706",
            transfer_constraint_bytes=2 * 1024 * 1024,
            context=context,
        )
        assert len(fsyncs) == 1
        assert store.stats().entries == context.stats.groups_searched == 1

    def test_flush_keeps_old_bytes_as_prefix(self, tmp_path):
        root = tmp_path / "s"
        _tiny_run(root, "testchip")
        before = CostStore(root).log_path.read_bytes()
        _tiny_run(root, "zc706")  # another device: all fresh entries
        after = CostStore(root).log_path.read_bytes()
        assert len(after) > len(before)
        assert after.startswith(before)


class TestCompaction:
    """A run that met a damaged record rewrites the log at its flush."""

    def _damaged_store(self, root):
        """A two-record log whose first record is damaged."""
        _tiny_run(root, "testchip")
        _tiny_run(root, "zc706")
        log = CostStore(root).log_path
        first, second = log.read_text().splitlines(keepends=True)
        log.write_text(first.replace('"entries"', '"entr!es"', 1) + second)
        return log

    def test_damaged_record_compacts_at_flush(self, tmp_path):
        root = tmp_path / "s"
        log = self._damaged_store(root)
        with pytest.raises(ArtifactError):
            CostStore(root).load_shard(log)
        survivor = set(
            json.loads(log.read_text().splitlines()[1])["payload"]["entries"]
        )
        healing = CostStore(root)
        _tiny_run(healing, "testchip")
        assert healing.corrupt_shards == 1
        healed = CostStore(root).load_shard(log)  # strict: no damage left
        assert len(log.read_text().splitlines()) == 1
        assert survivor <= set(healed)
        network = models.tiny_cnn()
        for device_name in ("testchip", "zc706"):
            warm = EvalContext(store=CostStore(root))
            optimize(
                network, get_device(device_name),
                network.feature_map_bytes(), context=warm,
            )
            assert warm.stats.evaluations == 0

    @pytest.mark.parametrize(
        "point", ["atomic.temp_written", "atomic.synced", "atomic.replaced"]
    )
    def test_kill_inside_compaction(self, tmp_path, point):
        import shutil

        from repro.faults.process import fork_available, run_to_kill

        if not fork_available():
            pytest.skip("requires fork (POSIX)")
        pristine = tmp_path / "pristine"
        old = self._damaged_store(pristine).read_bytes()
        done = tmp_path / "done"
        shutil.copytree(pristine, done)
        baseline = strategy_to_dict(_tiny_run(done, "testchip"))
        healed = _healed_entries(done)

        victim = tmp_path / "victim"
        shutil.copytree(pristine, victim)
        outcome = run_to_kill(_tiny_run, point, args=(victim, "testchip"))
        assert outcome == "killed"
        # The log is the old file until the rename lands, then the new.
        if point == "atomic.replaced":
            assert _healed_entries(victim) == healed
        else:
            assert CostStore(victim).log_path.read_bytes() == old
        rerun = _tiny_run(victim, "testchip")
        assert strategy_to_dict(rerun) == baseline
        assert _healed_entries(victim) == healed


class TestOldLayout:
    """A store left in the 256-shard layout is never read."""

    def _old_store(self, root, tiny_net, testchip):
        from repro.check.artifacts import save_artifact
        from repro.dse.store import SHARD_KIND

        key, choices = _first_group(tiny_net, testchip)
        digest = key_digest(key)
        (root / "shards").mkdir(parents=True)
        (root / "locks").mkdir()
        save_artifact(
            root / "shards" / f"{digest[:2]}.json",
            SHARD_KIND,
            {
                "key_version": KEY_VERSION,
                "entries": {
                    digest: {
                        "key": stable_key_text(key),
                        "created": 0.0,
                        "group": group_to_dict(choices),
                    }
                },
            },
        )
        (root / "locks" / f"{digest[:2]}.lock").touch()
        return key

    def test_old_layout_entries_are_misses(self, tiny_net, testchip, tmp_path):
        root = tmp_path / "s"
        key = self._old_store(root, tiny_net, testchip)
        store = CostStore(root)
        assert store.get(key) is None
        assert store.corrupt_shards == store.corrupt_entries == 0
        stats = store.stats()
        assert stats.entries == stats.corrupt_shards == 0
        context = EvalContext(store=store)
        optimize(
            tiny_net, testchip, tiny_net.feature_map_bytes(), context=context
        )
        assert context.stats.store_hits == 0  # the store starts cold once
        assert CostStore(root).get(key) is not None

    @pytest.mark.parametrize("action", ["clear", "gc"])
    def test_cache_command_deletes_old_layout(
        self, tiny_net, testchip, tmp_path, capsys, action
    ):
        from repro.cli import main

        root = tmp_path / "s"
        self._old_store(root, tiny_net, testchip)
        assert main(["cache", action, "--dir", str(root)]) == 0
        assert not (root / "shards").exists()
        assert not (root / "locks").exists()


class TestLocking:
    """Shard-lock acquisition: bounded retry, typed failure, lockless
    fallback on filesystems that cannot ``flock`` at all."""

    def test_unsupported_flock_degrades_to_lockless(
        self, tiny_net, testchip, tmp_path, monkeypatch
    ):
        import errno

        from repro.dse import store as store_module

        def no_flock(fd, op):
            raise OSError(errno.ENOTSUP, "flock unsupported here")

        monkeypatch.setattr(store_module.fcntl, "flock", no_flock)
        store = CostStore(tmp_path / "s")
        key, choices = _first_group(tiny_net, testchip)
        store.put_many({key: choices})
        assert store.lock_fallbacks == 1
        assert store._locks_unsupported  # cached: no re-probing
        store.put_many({key: choices})
        assert store.lock_fallbacks == 2
        assert store.lock_retries == 0  # permanent, so never retried
        # The lockless write still landed a valid entry.
        fresh = CostStore(tmp_path / "s")
        assert fresh.get(key) is not None

    def test_persistent_contention_is_a_typed_error(
        self, tiny_net, testchip, tmp_path, monkeypatch
    ):
        import errno

        from repro.dse import store as store_module

        def busy_flock(fd, op):
            raise OSError(errno.EAGAIN, "resource temporarily unavailable")

        monkeypatch.setattr(store_module.fcntl, "flock", busy_flock)
        monkeypatch.setattr(store_module, "LOCK_BACKOFF_S", 0.001)
        store = CostStore(tmp_path / "s")
        key, choices = _first_group(tiny_net, testchip)
        with pytest.raises(ArtifactError) as excinfo:
            store.put_many({key: choices})
        assert excinfo.value.code == "E_LOCK"
        assert "attempts" in str(excinfo.value)
        assert store.lock_retries == store_module.LOCK_ATTEMPTS - 1
        assert not store._locks_unsupported  # transient, not permanent

    def test_reader_that_cannot_lock_reads_anyway(
        self, tiny_net, testchip, tmp_path, monkeypatch
    ):
        import errno
        import fcntl as real_fcntl

        from repro.dse import store as store_module

        key, choices = _first_group(tiny_net, testchip)
        CostStore(tmp_path / "s").put_many({key: choices})
        real_flock = real_fcntl.flock

        def no_shared_flock(fd, op):
            if op == real_fcntl.LOCK_SH:
                raise OSError(errno.EACCES, "read-only store")
            return real_flock(fd, op)

        monkeypatch.setattr(store_module.fcntl, "flock", no_shared_flock)
        reader = CostStore(tmp_path / "s")
        assert reader.get(key) is not None
        assert reader.lock_fallbacks == 1
        assert reader.lock_retries == 0

    def test_transient_contention_recovers(
        self, tiny_net, testchip, tmp_path, monkeypatch
    ):
        import errno
        import fcntl as real_fcntl

        from repro.dse import store as store_module

        state = {"attempts": 0}
        real_flock = real_fcntl.flock

        def flaky_flock(fd, op):
            if op == real_fcntl.LOCK_EX:
                state["attempts"] += 1
                if state["attempts"] < 3:
                    raise OSError(errno.EAGAIN, "locked")
            return real_flock(fd, op)

        monkeypatch.setattr(store_module.fcntl, "flock", flaky_flock)
        monkeypatch.setattr(store_module, "LOCK_BACKOFF_S", 0.001)
        store = CostStore(tmp_path / "s")
        key, choices = _first_group(tiny_net, testchip)
        store.put_many({key: choices})
        assert store.lock_retries == 2
        assert store.lock_fallbacks == 0
        assert CostStore(tmp_path / "s").get(key) is not None


class TestStoreDegradation:
    """EvalContext survives a dying store: memory-only, counted, and
    bit-identical results."""

    def test_read_failure_degrades_to_memory_only(
        self, tiny_net, testchip, tmp_path
    ):
        class ExplodingStore(CostStore):
            def get(self, key):
                raise OSError("disk on fire")

        budget = tiny_net.feature_map_bytes()
        context = EvalContext(store=ExplodingStore(tmp_path / "s"))
        with pytest.warns(RuntimeWarning, match="cost store unavailable"):
            degraded = optimize(tiny_net, testchip, budget, context=context)
        assert context.store is None
        assert context.stats.store_degraded == 1
        baseline = optimize(tiny_net, testchip, budget)
        assert strategy_to_dict(degraded) == strategy_to_dict(baseline)

    def test_flush_failure_degrades_not_raises(
        self, tiny_net, testchip, tmp_path
    ):
        class ReadOnlyStore(CostStore):
            def put_many(self, entries):
                raise OSError("read-only filesystem")

        context = EvalContext(store=ReadOnlyStore(tmp_path / "s"))
        # optimize() flushes internally, so the degradation (and its
        # one warning) happens there; the later explicit flush is a
        # quiet no-op that reports zero writes.
        with pytest.warns(RuntimeWarning, match="cost store unavailable"):
            optimize(
                tiny_net, testchip, tiny_net.feature_map_bytes(),
                context=context,
            )
        flushed = context.flush_store()
        assert flushed == 0
        assert context.store is None
        assert context.stats.store_degraded == 1
