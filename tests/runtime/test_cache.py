"""Persistent emission cache: cold/warm equivalence, corruption and
poisoning recovery, LRU bounds."""

from __future__ import annotations

import json
import sqlite3

from repro.core import DDBDDConfig, ddbdd_synthesize
from repro.runtime.emission import EmissionCell, EmissionRecord
from repro.runtime.fleet import reset_fleet
from repro.runtime.signature import SIGNATURE_VERSION
from repro.runtime.tiers import CacheTelemetry, SqliteTier, TieredEmissionCache
from tests.conftest import assert_equivalent, random_gate_network
from tests.runtime.helpers import net_dump


def _sqlite_rows(tmp_path):
    """``[(key, payload)]`` of the tier-2 store under ``tmp_path``."""
    db = tmp_path / f"v{SIGNATURE_VERSION}.sqlite"
    assert db.exists()
    with sqlite3.connect(db) as conn:
        return list(conn.execute("SELECT key, payload FROM records"))


def _sqlite_set_payload(tmp_path, key, payload):
    db = tmp_path / f"v{SIGNATURE_VERSION}.sqlite"
    with sqlite3.connect(db) as conn:
        conn.execute("UPDATE records SET payload = ? WHERE key = ?", (payload, key))


def _record(tag: int = 0) -> EmissionRecord:
    return EmissionRecord(
        cells=(EmissionCell(("v0", "v1"), "0001"),),
        out_ref="c0",
        out_neg=False,
        out_depth=1 + tag % 3,
        states_visited=tag,
        bdd_size=3,
        num_inputs=2,
    )


# ----------------------------------------------------------------------
# Flow-level behaviour
# ----------------------------------------------------------------------
def test_cold_then_warm_matches_serial(tmp_path):
    net = random_gate_network(4, n_pi=10, n_gates=50, n_po=5)
    serial = ddbdd_synthesize(net, DDBDDConfig())
    def cfg() -> DDBDDConfig:
        return DDBDDConfig(cache="readwrite", cache_dir=str(tmp_path), verify_level=1)

    cold = ddbdd_synthesize(net, cfg())
    warm = ddbdd_synthesize(net, cfg())
    assert net_dump(cold.network) == net_dump(serial.network)
    assert net_dump(warm.network) == net_dump(serial.network)
    assert cold.runtime_stats.cache_misses > 0 and cold.runtime_stats.cache_puts > 0
    assert warm.runtime_stats.cache_misses == 0
    assert warm.runtime_stats.cache_hits == cold.runtime_stats.cache_misses
    assert_equivalent(net, warm.network, "warm-cache synthesis")


def test_cache_reuse_across_jobs_counts(tmp_path):
    net = random_gate_network(6, n_pi=10, n_gates=50, n_po=5)
    serial = ddbdd_synthesize(net, DDBDDConfig())
    ddbdd_synthesize(net, DDBDDConfig(cache="readwrite", cache_dir=str(tmp_path)))
    warm_par = ddbdd_synthesize(
        net, DDBDDConfig(jobs=4, cache="readwrite", cache_dir=str(tmp_path))
    )
    assert net_dump(warm_par.network) == net_dump(serial.network)
    assert warm_par.runtime_stats.cache_misses == 0


def test_read_mode_never_writes(tmp_path):
    net = random_gate_network(3, n_gates=30)
    result = ddbdd_synthesize(net, DDBDDConfig(cache="read", cache_dir=str(tmp_path)))
    assert result.runtime_stats.cache_hits == 0
    assert result.runtime_stats.cache_puts == 0
    # Read mode must not even materialize the tier-2 database file.
    assert not (tmp_path / f"v{SIGNATURE_VERSION}.sqlite").exists()


def test_corrupted_tier2_rows_recover(tmp_path):
    net = random_gate_network(8, n_pi=10, n_gates=50, n_po=5)
    serial = ddbdd_synthesize(net, DDBDDConfig())
    ddbdd_synthesize(net, DDBDDConfig(cache="readwrite", cache_dir=str(tmp_path)))
    rows = _sqlite_rows(tmp_path)
    assert rows
    for key, _ in rows:
        _sqlite_set_payload(tmp_path, key, "{ not json")
    # Drop the fleet's process-wide memory tier so the damaged sqlite
    # rows are actually read back.
    reset_fleet()
    redo = ddbdd_synthesize(net, DDBDDConfig(cache="readwrite", cache_dir=str(tmp_path)))
    assert net_dump(redo.network) == net_dump(serial.network)
    assert redo.runtime_stats.cache_hits == 0
    assert redo.runtime_stats.cache_misses == len(rows)
    # Satellite (a): every damaged row is counted as a healed corruption
    # and surfaces in the run's stats (and --stats render), attributed
    # to the sqlite tier.
    assert redo.runtime_stats.cache_corruptions == len(rows)
    assert f"corruptions={len(rows)}" in redo.runtime_stats.render()
    assert redo.runtime_stats.cache_tiers["sqlite"]["corruptions"] == len(rows)
    # The damaged rows were dropped and rewritten with good content.
    warm = ddbdd_synthesize(net, DDBDDConfig(cache="readwrite", cache_dir=str(tmp_path)))
    assert warm.runtime_stats.cache_misses == 0


def test_old_shard_tree_is_a_miss_and_left_alone(tmp_path):
    """A cache root from before the sqlite store holds one JSON file per
    record under ``v1/ab/<sha>.json``.  Keys are content-addressed, so
    such a tree only reads as misses: it is neither served nor touched."""
    net = random_gate_network(12, n_pi=10, n_gates=50, n_po=5)
    serial = ddbdd_synthesize(net, DDBDDConfig())
    first = ddbdd_synthesize(
        net, DDBDDConfig(cache="readwrite", cache_dir=str(tmp_path / "first"))
    )
    old_root = tmp_path / "old"
    shards = []
    for key, payload in _sqlite_rows(tmp_path / "first"):
        path = old_root / f"v{SIGNATURE_VERSION}" / key[:2] / f"{key}.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(payload, encoding="utf-8")
        shards.append((path, payload, path.stat().st_mtime_ns))
    assert shards
    reset_fleet()
    result = ddbdd_synthesize(
        net, DDBDDConfig(cache="readwrite", cache_dir=str(old_root))
    )
    assert net_dump(result.network) == net_dump(serial.network)
    assert result.runtime_stats.cache_hits == 0
    assert result.runtime_stats.cache_misses == first.runtime_stats.cache_misses
    assert set(result.runtime_stats.cache_tiers) == {"memory", "sqlite"}
    for path, payload, mtime in shards:
        assert path.read_text(encoding="utf-8") == payload
        assert path.stat().st_mtime_ns == mtime


def test_poisoned_record_rejected_by_verification(tmp_path):
    net = random_gate_network(9, n_pi=10, n_gates=50, n_po=5)
    serial = ddbdd_synthesize(net, DDBDDConfig())
    ddbdd_synthesize(net, DDBDDConfig(cache="readwrite", cache_dir=str(tmp_path)))
    poisoned = 0
    for key, payload in _sqlite_rows(tmp_path):
        obj = json.loads(payload)
        out_ref = obj["out"][0]
        if not out_ref.startswith("c"):
            continue
        # Well-formed but guaranteed wrong: invert the output cell's
        # truth table, turning the record into the complement function
        # (differs on every assignment, so spot simulation must catch
        # it regardless of sampled patterns).
        idx = int(out_ref[1:])
        fanins, truth = obj["cells"][idx]
        obj["cells"][idx] = [fanins, "".join("1" if b == "0" else "0" for b in truth)]
        _sqlite_set_payload(tmp_path, key, json.dumps(obj))
        poisoned += 1
    assert poisoned > 0
    reset_fleet()
    redo = ddbdd_synthesize(
        net, DDBDDConfig(cache="readwrite", cache_dir=str(tmp_path), verify_level=1)
    )
    assert net_dump(redo.network) == net_dump(serial.network)
    assert redo.runtime_stats.cache_rejected == poisoned
    assert_equivalent(net, redo.network, "poisoned-cache recovery")


# ----------------------------------------------------------------------
# Store unit behaviour
# ----------------------------------------------------------------------
def test_cache_roundtrip_and_counters(tmp_path):
    store = TieredEmissionCache(tmp_path)
    tele = CacheTelemetry()
    key = "ab" + "0" * 62
    assert store.get(key, tele) is None
    assert store.put(key, _record(), tele)
    assert store.get(key, tele) == _record()
    assert (tele.tiers["memory"]["misses"], tele.tiers["sqlite"]["misses"]) == (1, 1)
    assert (tele.tiers["memory"]["puts"], tele.tiers["sqlite"]["puts"]) == (1, 1)
    assert tele.tiers["memory"]["hits"] == 1
    store.invalidate(key)
    assert store.get(key) is None


def test_cache_lru_eviction(tmp_path):
    store = TieredEmissionCache(tmp_path, max_entries=5)
    keys = [f"{i:02x}" + f"{i:062x}" for i in range(12)]
    for i, key in enumerate(keys):
        assert store.put(key, _record(i))
    assert store.disk.evict_to_cap() == 7
    assert (len(store.disk), len(store.memory)) == (5, 5)
    # Both tiers keep the most recently put keys.
    assert store.disk.keys() == keys[-5:]
    assert all(store.memory.get(key) is not None for key in keys[-5:])


def test_cache_garbage_payload_is_a_miss(tmp_path):
    tier = SqliteTier(tmp_path)
    key = "cd" + "0" * 62
    assert tier.put(key, _record())[0]
    garbage = {"cells": [[["q9"], "01"]], "out": ["c0", 0, 1], "stats": [0, 0, 1]}
    _sqlite_set_payload(tmp_path, key, json.dumps(garbage))
    assert tier.get(key) == (None, 1), "one miss, one corruption"
    assert tier.keys() == [], "a structurally invalid record must be deleted"


def test_cache_corruptions_counter_accumulates(tmp_path):
    tier = SqliteTier(tmp_path)
    keys = [f"{i:02x}" + "0" * 62 for i in range(3)]
    for key in keys:
        assert tier.put(key, _record())[0]
        _sqlite_set_payload(tmp_path, key, '{"cells": [[')
    reads = [tier.get(key) for key in keys]
    assert all(record is None for record, _ in reads)
    corruptions = sum(corrupt for _, corrupt in reads)
    assert corruptions == 3
    # The slots healed: a fresh put + get round-trips again.
    assert tier.put(keys[0], _record())[0]
    record, corrupt = tier.get(keys[0])
    assert record == _record()
    assert corruptions + corrupt == 3


def _count_heals(monkeypatch, tier: SqliteTier) -> list:
    """The corruptions ``tier`` reports from its heals (the return
    values of ``_heal``) from now on, one entry per heal attempt."""
    heal = tier._heal
    healed: list = []

    def counted(exc):
        healed.append(heal(exc))
        return healed[-1]

    monkeypatch.setattr(tier, "_heal", counted)
    return healed


def test_keys_survive_vanishing_store_file(tmp_path, monkeypatch):
    tier = SqliteTier(tmp_path)
    key = "ef" + "0" * 62
    assert tier.put(key, _record())[0]
    assert tier.keys() == [key]
    # Another process healed the shared store away under us.
    for path in tmp_path.iterdir():
        path.unlink()
    healed = _count_heals(monkeypatch, tier)
    assert tier.keys() == []
    assert len(tier) == 0
    assert sum(healed) == 0, "a vanished store is no corruption"
    # The next put sets a new file up from scratch.
    assert tier.put(key, _record())[0]
    assert tier.get(key) == (_record(), 0)


def test_cache_threaded_puts_against_eviction(tmp_path, monkeypatch):
    # Hammer one store from a writer thread (puts + invalidations) while
    # the main thread loops eviction and listing.  The contract is
    # crash-freedom and cap enforcement, not a specific surviving set.
    import threading

    tier = SqliteTier(tmp_path, max_entries=8)
    healed = _count_heals(monkeypatch, tier)
    errors = []

    def writer():
        try:
            for i in range(120):
                key = f"{i % 16:02x}" + f"{i:062x}"
                assert tier.put(key, _record(i))[0]
                if i % 3 == 0:
                    tier.invalidate(key)
        except Exception as exc:  # pragma: no cover - the test's point
            errors.append(exc)

    thread = threading.Thread(target=writer)
    thread.start()
    try:
        for _ in range(200):
            tier.evict_to_cap()
            tier.keys()
            len(tier)
    finally:
        thread.join()
    assert not errors, f"writer thread crashed: {errors}"
    tier.evict_to_cap()
    assert len(tier) <= 8
    assert sum(healed) == 0
