"""Tiered content-addressed store: per-tier LRU/corruption/promotion
behaviour, cross-process-safe tier-2 writes and cross-daemon claim
leases."""

from __future__ import annotations

import json
import sqlite3
import threading

from repro.resilience import faults as fault_mod
from repro.runtime.emission import EmissionCell, EmissionRecord
from repro.runtime.signature import SIGNATURE_VERSION
import repro.runtime.tiers as tiers_mod
from repro.runtime.tiers import (
    CacheTelemetry,
    MemoryTier,
    SqliteTier,
    TieredEmissionCache,
    TIER_NAMES,
    TIER_OPS,
)


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


def _key(i: int) -> str:
    return f"{i:02x}" + f"{i:062x}"


# ----------------------------------------------------------------------
# Tier 1: memory
# ----------------------------------------------------------------------
def test_memory_tier_lru_and_counters():
    tier = MemoryTier(max_entries=3)
    evicted = [tier.put(_key(i), _record(i)) for i in range(3)]
    # A read refreshes recency, so key 0 survives the next eviction.
    reads = [tier.get(_key(0))]
    evicted.append(tier.put(_key(3), _record(3)))
    reads.append(tier.get(_key(1)))  # the true LRU victim
    reads.append(tier.get(_key(0)))
    # Four puts, one eviction; two hits, one miss.
    assert evicted == [0, 0, 0, 1]
    assert reads == [_record(0), None, _record(0)]
    assert len(tier) == 3
    tier.invalidate(_key(0))
    assert tier.get(_key(0)) is None
    tier.clear()
    assert len(tier) == 0


# ----------------------------------------------------------------------
# Tier 2: sqlite
# ----------------------------------------------------------------------
def test_sqlite_tier_roundtrip_and_read_mode_creates_nothing(tmp_path):
    tier = SqliteTier(tmp_path)
    lookups = [tier.get(_key(1))]
    # A pure read against an absent store must not materialize the file.
    assert not tier.path.exists()
    assert tier.put(_key(1), _record(1)) == (True, False, 0)
    assert tier.path.exists()
    lookups.append(tier.get(_key(1)))
    assert lookups == [(None, 0), (_record(1), 0)], "one miss, then one hit"
    assert tier.keys() == [_key(1)]
    tier.invalidate(_key(1))
    assert tier.get(_key(1))[0] is None


def test_sqlite_tier_malformed_row_heals_and_counts(tmp_path):
    tier = SqliteTier(tmp_path)
    assert tier.put(_key(2), _record())[0]
    with sqlite3.connect(tier.path) as conn:
        conn.execute("UPDATE records SET payload = '{ not json'")
    record, corrupt = tier.get(_key(2))
    assert record is None and corrupt == 1
    # The heal is reported once: a read of the healed slot is clean.
    assert tier.get(_key(2)) == (None, 0)
    # The row was deleted: the slot round-trips again.
    assert tier.put(_key(2), _record())[0]
    assert tier.get(_key(2))[0] == _record()


def test_sqlite_tier_damaged_file_heals_wholesale(tmp_path):
    tier = SqliteTier(tmp_path)
    assert tier.put(_key(3), _record())[0]
    tier.path.write_bytes(b"this is not a sqlite database at all")
    record, corrupt = tier.get(_key(3))
    assert record is None and corrupt == 1
    assert not tier.path.exists(), "damaged db must be unlinked"
    assert tier.put(_key(3), _record())[0]
    assert tier.get(_key(3))[0] == _record()


def test_sqlite_tier_lock_is_a_miss_not_damage(tmp_path, monkeypatch):
    """Another connection holding the write lock past the busy timeout
    makes a lookup miss; it is no corruption, and the shared file and
    its rows survive."""
    monkeypatch.setattr(tiers_mod, "_BUSY_TIMEOUT_MS", 50)
    tier = SqliteTier(tmp_path)
    assert tier.put(_key(1), _record(1))[0]
    holder = sqlite3.connect(tier.path, isolation_level=None)
    try:
        holder.execute("BEGIN IMMEDIATE")
        holder.execute("UPDATE records SET touched = touched")
        record, corrupt = tier.get(_key(1))
    finally:
        holder.execute("ROLLBACK")
        holder.close()
    assert record is None, "the lock makes the lookup miss"
    assert corrupt == 0, "a lock is no corruption"
    assert tier.path.exists(), "a lock must never unlink the shared store"
    assert tier.keys() == [_key(1)]
    assert tier.get(_key(1)) == (_record(1), 0)


def test_damage_is_told_from_a_lock_by_message_alone():
    # Python before 3.11 gives sqlite errors no ``sqlite_errorcode``.
    assert tiers_mod._is_damage(sqlite3.DatabaseError("file is not a database"))
    assert tiers_mod._is_damage(sqlite3.DatabaseError("database disk image is malformed"))
    assert not tiers_mod._is_damage(sqlite3.OperationalError("database is locked"))
    assert not tiers_mod._is_damage(sqlite3.OperationalError("no such table: records"))
    assert tiers_mod._is_lock(sqlite3.OperationalError("database is locked"))
    assert not tiers_mod._is_lock(sqlite3.DatabaseError("file is not a database"))


def test_sqlite_tier_sets_up_each_file_once(tmp_path, monkeypatch):
    """The WAL pragma and the tables are set up once per store and
    database file — again after a heal — not on every connection."""
    statements: list = []
    real_connect = sqlite3.connect

    def traced(*args, **kwargs):
        conn = real_connect(*args, **kwargs)
        conn.set_trace_callback(statements.append)
        return conn

    monkeypatch.setattr(tiers_mod.sqlite3, "connect", traced)

    def setups() -> int:
        return sum(
            1 for sql in statements if "journal_mode" in sql or sql.startswith("CREATE")
        )

    tier = SqliteTier(tmp_path)
    for i in range(3):
        assert tier.put(_key(i), _record(i))[0]
        assert tier.get(_key(i)) == (_record(i), 0)
    assert setups() == 4, "one WAL pragma and three tables"
    tier.path.write_bytes(b"this is not a sqlite database at all")
    assert tier.get(_key(0)) == (None, 1)
    assert tier.put(_key(0), _record(0))[0]
    assert setups() == 8


def test_sqlite_tier_retries_a_locked_setup(tmp_path, monkeypatch):
    """Stores that set one new file up together can see ``PRAGMA
    journal_mode=WAL`` fail with ``database is locked`` at once, without
    waiting out the busy timeout.  The setup retries, so the put still
    stores."""
    raised: list = []

    class LockedOnce(sqlite3.Connection):
        def execute(self, sql, *args):
            if sql == "PRAGMA journal_mode=WAL" and not raised:
                raised.append(sql)
                raise sqlite3.OperationalError("database is locked")
            return super().execute(sql, *args)

    real_connect = sqlite3.connect
    monkeypatch.setattr(
        tiers_mod.sqlite3,
        "connect",
        lambda *args, **kwargs: real_connect(*args, factory=LockedOnce, **kwargs),
    )
    tier = SqliteTier(tmp_path)
    assert tier.put(_key(1), _record(1)) == (True, False, 0)
    assert raised, "the first WAL pragma met the lock"
    assert tier.get(_key(1)) == (_record(1), 0)


def test_sqlite_tier_evicts_least_recently_touched(tmp_path):
    tier = SqliteTier(tmp_path, max_entries=3)
    # Below the amortized cadence, a put evicts nothing itself.
    evicted = [tier.put(_key(i), _record(i))[2] for i in range(6)]
    # Touch key 0 so it is the most recent despite being the oldest put.
    assert tier.get(_key(0))[0] is not None
    evicted.append(tier.evict_to_cap())
    assert evicted == [0, 0, 0, 0, 0, 0, 3]
    survivors = set(tier.keys())
    assert _key(0) in survivors and len(survivors) == 3


def test_sqlite_tier_concurrent_writers_share_one_file(tmp_path):
    # Satellite (a): two independent store handles (as two daemon
    # processes sharing --cache-dir would hold) hammer the same database
    # from separate threads; sqlite's transactions keep every row whole.
    a, b = SqliteTier(tmp_path), SqliteTier(tmp_path)
    errors = []

    def writer(tier, base):
        try:
            for i in range(40):
                assert tier.put(_key(base + i), _record(i))[0]
        except Exception as exc:  # pragma: no cover - the test's point
            errors.append(exc)

    threads = [
        threading.Thread(target=writer, args=(a, 0)),
        threading.Thread(target=writer, args=(b, 100)),
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    reader = SqliteTier(tmp_path)
    keys = reader.keys()
    assert len(keys) == 80
    for key in keys:
        record, corrupt = reader.get(key)
        assert record is not None and corrupt == 0


# ----------------------------------------------------------------------
# The stacked store
# ----------------------------------------------------------------------
def test_tiered_put_writes_sqlite_and_memory_not_shards(tmp_path):
    store = TieredEmissionCache(tmp_path)
    tele = CacheTelemetry()
    assert store.put(_key(4), _record(), tele)
    assert len(store.memory) == 1
    assert len(store.disk) == 1
    assert not (tmp_path / f"v{SIGNATURE_VERSION}").exists(), (
        "no one-file-per-record shard tree is ever written"
    )
    assert tele.tiers["sqlite"]["puts"] == 1
    assert tele.tiers["memory"]["puts"] == 1


def test_tiered_get_promotes_sqlite_hit_to_memory(tmp_path):
    # Prime only the persistent tier, as a fresh process on a warm root.
    assert SqliteTier(tmp_path).put(_key(5), _record(5))[0]
    store = TieredEmissionCache(tmp_path)
    tele = CacheTelemetry()
    assert store.get(_key(5), tele) == _record(5)
    assert tele.tiers["sqlite"]["hits"] == 1
    assert tele.tiers["memory"]["promotions"] == 1
    # The promoted copy now serves without touching sqlite.
    tele2 = CacheTelemetry()
    assert store.get(_key(5), tele2) == _record(5)
    assert tele2.tiers["memory"]["hits"] == 1
    assert tele2.tiers["sqlite"]["hits"] == 0


def test_tiered_invalidate_drops_every_tier(tmp_path):
    store = TieredEmissionCache(tmp_path)
    assert store.put(_key(7), _record(7))
    assert (len(store.memory), len(store.disk)) == (1, 1)
    store.invalidate(_key(7))
    assert store.get(_key(7)) is None
    assert len(store.memory) == 0
    assert len(store.disk) == 0


def test_telemetry_shape_and_totals():
    tele = CacheTelemetry()
    assert TIER_NAMES == ("memory", "sqlite")
    assert set(tele.tiers) == set(TIER_NAMES)
    for counters in tele.tiers.values():
        assert set(counters) == set(TIER_OPS)
    tele.note("memory", "hits")
    tele.note("sqlite", "hits", 2)
    assert tele.total("hits") == 3
    payload = json.loads(json.dumps(tele.as_dict()))
    assert payload["sqlite"]["hits"] == 2


# ----------------------------------------------------------------------
# Batched reads and writes (one connection per wave)
# ----------------------------------------------------------------------
def _corrupt_payload(tier: SqliteTier, key: str) -> None:
    conn = sqlite3.connect(tier.path)
    try:
        with conn:
            conn.execute("UPDATE records SET payload = '{ not json' WHERE key = ?", (key,))
    finally:
        conn.close()


def test_get_many_deletes_a_malformed_row_and_hits_the_rest(tmp_path):
    tier = SqliteTier(tmp_path)
    stored, torn, _ = tier.put_many([(_key(i), _record(i)) for i in range(4)])
    assert stored and torn == [False] * 4
    _corrupt_payload(tier, _key(2))
    wanted = [_key(i) for i in range(5)]
    found, corrupt = tier.get_many(wanted)
    assert found == {_key(i): _record(i) for i in (0, 1, 3)}
    assert corrupt == 1
    assert (len(found), len(wanted) - len(found)) == (3, 2)
    assert tier.keys() == [_key(0), _key(1), _key(3)], "the malformed row is deleted"


def test_batches_heal_a_damaged_file(tmp_path):
    tier = SqliteTier(tmp_path)
    assert tier.put_many([(_key(i), _record(i)) for i in range(3)])[0]
    tier.path.write_bytes(b"this is not a sqlite database at all")
    # A write into a damaged file is dropped, as a single put is...
    assert tier.put_many([(_key(3), _record(3))]) == (False, [False], 0)
    # ...and the next read heals it: every key misses, the file goes.
    found, corrupt = tier.get_many([_key(i) for i in range(4)])
    assert found == {} and corrupt == 1
    assert not tier.path.exists(), "damaged db must be unlinked"
    items = [(_key(i), _record(i)) for i in range(2)]
    assert tier.put_many(items) == (True, [False, False], 0)
    assert tier.get_many([_key(0), _key(1)]) == (dict(items), 0)


def test_batches_under_a_held_lock_miss_and_drop(tmp_path, monkeypatch):
    monkeypatch.setattr(tiers_mod, "_BUSY_TIMEOUT_MS", 50)
    tier = SqliteTier(tmp_path)
    assert tier.put_many([(_key(1), _record(1)), (_key(2), _record(2))])[0]
    holder = sqlite3.connect(tier.path, isolation_level=None)
    try:
        holder.execute("BEGIN IMMEDIATE")
        holder.execute("UPDATE records SET touched = touched")
        found, corrupt = tier.get_many([_key(1), _key(2)])
        assert tier.put_many([(_key(3), _record(3))]) == (False, [False], 0)
    finally:
        holder.execute("ROLLBACK")
        holder.close()
    assert found == {}, "the lock makes every key miss"
    assert corrupt == 0, "a lock is no corruption"
    assert tier.path.exists(), "a lock must never unlink the shared store"
    assert tier.keys() == [_key(1), _key(2)]


def test_corrupt_shard_tears_the_nth_record_of_a_batch(tmp_path):
    store = TieredEmissionCache(tmp_path)
    tele = CacheTelemetry()
    items = [(_key(i), _record(i)) for i in range(4)]
    with fault_mod.activated("corrupt_shard@put=3"):
        assert store.put_many(items, tele) == 4
    assert tele.tiers["sqlite"]["puts"] == 4
    # The torn third record skipped the memory tier.
    assert tele.tiers["memory"]["puts"] == 3
    assert sorted(store.memory._data) == [_key(0), _key(1), _key(3)]
    store.memory.clear()
    found = store.get_many([key for key, _ in items], tele)
    assert sorted(found) == [_key(0), _key(1), _key(3)]
    assert tele.tiers["sqlite"]["corruptions"] == 1
    # Detected and deleted: the slot round-trips again.
    assert store.put_many([items[2]]) == 1
    store.memory.clear()
    assert store.get_many([_key(2)]) == {_key(2): _record(2)}


def test_a_torn_record_replaced_later_in_its_batch_stays_replaced(tmp_path):
    tier = SqliteTier(tmp_path)
    with fault_mod.activated("corrupt_shard@put=1"):
        stored, torn, _ = tier.put_many([(_key(1), _record(1)), (_key(1), _record(2))])
    assert stored and torn == [True, False]
    assert tier.get(_key(1)) == (_record(2), 0)


def test_batches_count_as_key_by_key_calls(tmp_path):
    def run(batched: bool):
        store = TieredEmissionCache(tmp_path / str(batched))
        tele = CacheTelemetry()
        items = [(_key(i), _record(i)) for i in range(4)]
        keys = [_key(i) for i in range(6)]
        if batched:
            stored = store.put_many(items, tele)
            store.memory.invalidate(_key(0))
            store.memory.invalidate(_key(1))
            _corrupt_payload(store.disk, _key(1))
            found = store.get_many(keys, tele)
        else:
            stored = sum(store.put(key, record, tele) for key, record in items)
            store.memory.invalidate(_key(0))
            store.memory.invalidate(_key(1))
            _corrupt_payload(store.disk, _key(1))
            found = {}
            for key in keys:
                record = store.get(key, tele)
                if record is not None:
                    found[key] = record
        return tele.as_dict(), stored, found

    batched = run(True)
    assert batched == run(False)
    tele, stored, found = batched
    assert stored == 4
    assert found == {_key(i): _record(i) for i in (0, 2, 3)}
    # Keys 2 and 3 hit memory; of 0, 1, 4 and 5, sqlite serves key 0
    # (promoted), heals key 1 and misses the rest.
    assert tele == {
        "memory": {"hits": 2, "misses": 4, "puts": 4, "evictions": 0,
                   "corruptions": 0, "promotions": 1},
        "sqlite": {"hits": 1, "misses": 3, "puts": 4, "evictions": 0,
                   "corruptions": 1, "promotions": 0},
    }


# ----------------------------------------------------------------------
# Cross-daemon singleflight claims (the tier-2 lease table)
# ----------------------------------------------------------------------
def test_claim_many_wins_then_holds(tmp_path):
    tier = SqliteTier(tmp_path)
    grants = tier.claim_many([_key(1), _key(2)], "daemon-a:1")
    assert {status for status, _, _ in grants.values()} == {"won"}
    gen = grants[_key(1)][1]
    assert grants[_key(2)][1] == gen, "one wave shares one generation"
    # A second daemon sees both keys held by the first.
    other = SqliteTier(tmp_path)
    held = other.claim_many([_key(1), _key(3)], "daemon-b:2")
    assert held[_key(1)] == ("held", gen, "daemon-a:1")
    assert held[_key(3)][0] == "won"
    assert held[_key(3)][1] > gen, "generations are monotonic"


def test_claim_state_and_wait_bump(tmp_path):
    tier = SqliteTier(tmp_path)
    assert tier.claim_state(_key(4)) is None
    (status, gen, owner) = tier.claim_many([_key(4)], "d:1")[_key(4)]
    assert (status, owner) == ("won", "d:1")
    assert tier.claim_state(_key(4)) == ("d:1", gen, 0)
    assert tier.bump_claim_wait(_key(4), gen) is True
    assert tier.claim_state(_key(4)) == ("d:1", gen, 1)
    # Bumping a generation that no longer exists reports False.
    assert tier.bump_claim_wait(_key(4), gen + 99) is False
    tier.release_claims([(_key(4), gen)])
    assert tier.claim_state(_key(4)) is None
    assert tier.bump_claim_wait(_key(4), gen) is False


def test_release_is_generation_guarded(tmp_path):
    tier = SqliteTier(tmp_path)
    (_, gen, _) = tier.claim_many([_key(5)], "dead:1")[_key(5)]
    # A waiter reaps the stale lease: new generation, new owner.
    status, gen2, owner = tier.reap_claim(_key(5), gen, "live:2")
    assert (status, owner) == ("won", "live:2") and gen2 > gen
    # The dead owner's late release must NOT touch the fresh lease.
    tier.release_claims([(_key(5), gen)])
    assert tier.claim_state(_key(5)) == ("live:2", gen2, 0)
    tier.release_claims([(_key(5), gen2)])
    assert tier.claim_state(_key(5)) is None


def test_reap_claim_ladder(tmp_path):
    tier = SqliteTier(tmp_path)
    # gone: no lease at all (holder released; re-check the store).
    assert tier.reap_claim(_key(6), 7, "x:1") == ("gone", 0, "")
    (_, gen, _) = tier.claim_many([_key(6)], "a:1")[_key(6)]
    # held: the lease changed hands first — watch the new generation.
    assert tier.reap_claim(_key(6), gen - 1, "x:1") == ("held", gen, "a:1")
    # won: exact-generation takeover resets the waits column.
    assert tier.bump_claim_wait(_key(6), gen)
    status, gen2, _ = tier.reap_claim(_key(6), gen, "x:1")
    assert status == "won"
    assert tier.claim_state(_key(6)) == ("x:1", gen2, 0)


def test_claims_degrade_on_damaged_database(tmp_path):
    tier = SqliteTier(tmp_path)
    assert tier.put(_key(7), _record())[0]
    tier.path.write_bytes(b"garbage, not sqlite")
    grants = tier.claim_many([_key(7)], "d:1")
    assert grants[_key(7)] == ("error", 0, ""), "degrade to uncoordinated compute"
    assert tier.reap_claim(_key(7), 1, "d:1") == ("error", 0, "")


def test_contended_claims_and_puts_never_drop_or_corrupt(tmp_path):
    """Satellite: concurrent writers (records + claims on one database)
    under sqlite lock contention — every put survives, LRU touch
    counters stay sane, and each claim key has exactly one winner."""
    handles = [SqliteTier(tmp_path) for _ in range(3)]
    claim_keys = [_key(200 + i) for i in range(8)]
    wins: list = []
    errors: list = []

    def hammer(idx: int, tier: SqliteTier) -> None:
        try:
            won = []
            for i in range(30):
                assert tier.put(_key(idx * 1000 + i), _record(i))[0]
                if i < len(claim_keys):
                    status, gen, _ = tier.claim_many(
                        [claim_keys[i]], f"d:{idx}"
                    )[claim_keys[i]]
                    if status == "won":
                        won.append((claim_keys[i], gen))
                    else:
                        assert status == "held"
                        tier.bump_claim_wait(claim_keys[i], gen)
            wins.append(won)
        except Exception as exc:  # pragma: no cover - the test's point
            errors.append(exc)

    threads = [
        threading.Thread(target=hammer, args=(i, t))
        for i, t in enumerate(handles)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(120)
    assert not errors, errors
    reader = SqliteTier(tmp_path)
    record_keys = reader.keys()
    assert len(record_keys) == 90, "no put may be dropped under contention"
    with sqlite3.connect(reader.path) as conn:
        touched = [row[0] for row in conn.execute("SELECT touched FROM records")]
    assert all(isinstance(t, float) and t > 0 for t in touched)
    # Exactly one winner per claim key across all threads.
    flat = [key for won in wins for key, _ in won]
    assert sorted(flat) == sorted(claim_keys)
    for won in wins:
        reader.release_claims(won)
    assert all(reader.claim_state(k) is None for k in claim_keys)
    # The records table is untouched by claim traffic.
    for key in record_keys:
        record, corrupt = reader.get(key)
        assert record is not None and corrupt == 0
