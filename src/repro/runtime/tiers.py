"""Tiered content-addressed store for supernode emission records.

The fleet scheduler (:mod:`repro.runtime.fleet`) serves many concurrent
synthesis requests from one process, so the emission cache is a stack
of tiers behind one interface:

* **Tier 1 — memory** (:class:`MemoryTier`): a bounded in-process LRU
  of verified :class:`~repro.runtime.emission.EmissionRecord` objects.
  Shared by every request in the process, so a daemon's near-duplicate
  traffic is served without touching disk at all.
* **Tier 2 — sqlite** (:class:`SqliteTier`): the persistent store, one
  WAL-mode sqlite file per cache root.  Every write is a transaction, so
  two daemons sharing a ``--cache-dir`` cannot tear or double-apply an
  entry; reads bump a ``touched`` column for LRU eviction.

:meth:`TieredEmissionCache.get` walks memory → sqlite and promotes a
sqlite hit into memory; :meth:`TieredEmissionCache.put` writes sqlite
first (the durable copy), then memory.  Their batch forms
:meth:`~TieredEmissionCache.get_many` and
:meth:`~TieredEmissionCache.put_many` do the same for a whole wave over
one sqlite connection (one ``SELECT … IN`` read, one write
transaction); the fleet uses those, and the single-key calls are
batches of one.  Per-tier hit/miss/put/eviction/corruption/promotion
counts are recorded into an optional per-run :class:`CacheTelemetry`,
built from what the tier operations return, which the engine folds
into :class:`~repro.runtime.stats.RuntimeStats.cache_tiers`; the tiers
themselves keep no counters.

The tier-2 store also carries the **cross-daemon singleflight claim
table**: transactional claim-or-wait rows with generation-stamped
leases (see :meth:`SqliteTier.claim_many`), so two daemons sharing a
cache root compute each signature once fleet-wide, and a daemon that
dies mid-flight is reaped by a waiter on a deterministic tick budget.

Every operation is best-effort: corruption — a malformed sqlite
payload, even a damaged sqlite file — degrades to a miss, heals the
offending row (or file) and is reported to the caller as a corruption;
a lock held past the busy timeout is a miss or a dropped put, never
damage.  A broken cache must never break synthesis.
"""

from __future__ import annotations

import json
import logging
import sqlite3
import threading
import time
from collections import OrderedDict
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

from repro.resilience import faults as fault_mod
from repro.runtime.emission import EmissionRecord, RecordError
from repro.runtime.signature import SIGNATURE_VERSION

logger = logging.getLogger(__name__)

#: Stable tier names (the keys of ``RuntimeStats.cache_tiers`` and the
#: ``tier`` label of the ``ddbdd_cache_tier_ops_total`` metric family).
TIER_MEMORY = "memory"
TIER_SQLITE = "sqlite"
TIER_NAMES = (TIER_MEMORY, TIER_SQLITE)

#: Stable per-tier counter names.
TIER_OPS = ("hits", "misses", "puts", "evictions", "corruptions", "promotions")

#: Default entry cap of the persistent store; at a few KB per record
#: this bounds it to tens of MB.
DEFAULT_MAX_ENTRIES = 8192

#: Default entry cap of the in-process memory tier; records are a few
#: KB, so this bounds tier 1 to single-digit MB per cache root.
DEFAULT_MEMORY_ENTRIES = 2048

#: Enforce the sqlite LRU cap once per this many puts (amortizes the
#: count query).
_EVICT_EVERY = 64

#: How long a sqlite operation waits on another process's write lock
#: before giving up (degrading to a miss / dropped put).
_BUSY_TIMEOUT_MS = 5000

#: Keys per ``IN (…)`` list of a batched statement: older sqlite
#: builds allow 999 parameters per statement.
_KEYS_PER_STATEMENT = 500

#: Pause between attempts at a new file's one-time setup
#: (:meth:`SqliteTier._setup`).
_SETUP_RETRY_S = 0.01

#: Primary result codes of a damaged database file: ``SQLITE_CORRUPT``
#: and ``SQLITE_NOTADB``.
_DAMAGE_CODES = (11, 26)

#: The messages sqlite gives those codes; Python before 3.11 exposes
#: only the message, not ``sqlite_errorcode``.
_DAMAGE_MESSAGES = (
    "database disk image is malformed",
    "file is not a database",
    "file is encrypted or is not a database",
)

#: Primary result codes of a lock another connection holds,
#: ``SQLITE_BUSY`` and ``SQLITE_LOCKED``, and their messages.
_LOCK_CODES = (5, 6)
_LOCK_MESSAGES = ("database is locked", "database table is locked")


def _reports(exc: sqlite3.Error, codes: Tuple[int, ...], messages: Tuple[str, ...]) -> bool:
    """Whether ``exc`` carries one of the primary result ``codes`` or,
    where it has no code, one of their ``messages``."""
    code = getattr(exc, "sqlite_errorcode", None)
    if code is not None:
        return (code & 0xFF) in codes
    message = str(exc).lower()
    return any(text in message for text in messages)


def _is_damage(exc: sqlite3.Error) -> bool:
    """Whether ``exc`` reports a damaged database file, as opposed to a
    lock held past the busy timeout or another passing failure."""
    return _reports(exc, _DAMAGE_CODES, _DAMAGE_MESSAGES)


def _is_lock(exc: sqlite3.Error) -> bool:
    """Whether ``exc`` reports a lock another connection holds."""
    return _reports(exc, _LOCK_CODES, _LOCK_MESSAGES)


def _key_chunks(keys: List[str]) -> Iterator[Tuple[List[str], str]]:
    """``keys`` in slices of at most :data:`_KEYS_PER_STATEMENT`, each
    with its ``?, ?, …`` placeholder list."""
    for start in range(0, len(keys), _KEYS_PER_STATEMENT):
        chunk = keys[start:start + _KEYS_PER_STATEMENT]
        yield chunk, ", ".join("?" * len(chunk))


class CacheTelemetry:
    """Per-run recorder of tier-level cache activity.

    The tiers are shared across requests, so each run records its *own*
    activity here and folds it into its
    :class:`~repro.runtime.stats.RuntimeStats` — the per-run stats never
    double-count another request's traffic.
    """

    def __init__(self) -> None:
        self.tiers: Dict[str, Dict[str, int]] = {
            tier: {op: 0 for op in TIER_OPS} for tier in TIER_NAMES
        }

    def note(self, tier: str, op: str, n: int = 1) -> None:
        """Record ``n`` occurrences of ``op`` on ``tier``."""
        if n:
            self.tiers[tier][op] += n

    def total(self, op: str) -> int:
        """Sum of ``op`` across every tier."""
        return sum(counters[op] for counters in self.tiers.values())

    def as_dict(self) -> Dict[str, Dict[str, int]]:
        """JSON-ready snapshot (the ``cache_tiers`` stats payload)."""
        return {tier: dict(counters) for tier, counters in self.tiers.items()}


class MemoryTier:
    """Tier 1: a bounded in-process LRU of emission records.

    Lock-guarded because the fleet shares one instance across concurrent
    request threads.  Eviction is strict LRU (reads refresh recency),
    with the cap enforced synchronously on every put.
    """

    def __init__(self, max_entries: int = DEFAULT_MEMORY_ENTRIES) -> None:
        self.max_entries = max(1, max_entries)
        self._lock = threading.Lock()
        self._data: "OrderedDict[str, EmissionRecord]" = OrderedDict()

    def get(self, key: str) -> Optional[EmissionRecord]:
        with self._lock:
            record = self._data.get(key)
            if record is not None:
                self._data.move_to_end(key)
            return record

    def put(self, key: str, record: EmissionRecord) -> int:
        """Store a record; returns how many entries were evicted."""
        with self._lock:
            self._data[key] = record
            self._data.move_to_end(key)
            evicted = 0
            while len(self._data) > self.max_entries:
                self._data.popitem(last=False)
                evicted += 1
            return evicted

    def invalidate(self, key: str) -> None:
        with self._lock:
            self._data.pop(key, None)

    def clear(self) -> None:
        with self._lock:
            self._data.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)


class SqliteTier:
    """Tier 2: the persistent cross-process-safe store (sqlite, WAL).

    One database file per cache root, ``v{SIGNATURE_VERSION}.sqlite`` —
    a signature-format bump strands old entries instead of corrupting
    new runs.

    Durability model: every write is one sqlite transaction (WAL
    journal), so concurrent writers — including separate daemon
    processes sharing the directory — serialize through sqlite's file
    locks and an interrupted writer can never leave a half-written row.
    Connections are opened per operation, and a batched read or write
    (:meth:`get_many`, :meth:`put_many`) is one operation: nothing is
    shared across ``fork`` and no file descriptor outlives the call.
    The WAL journal mode and the tables are set up once per store and
    database file, not on every connection.

    Reads bump a ``touched`` column so :meth:`evict_to_cap` (amortized,
    every :data:`_EVICT_EVERY` puts) drops the least recently *used*
    rows.  A malformed payload is deleted and counted as a corruption;
    a damaged database file (``SQLITE_CORRUPT``, ``SQLITE_NOTADB``) is
    unlinked wholesale (with its WAL side-files) so the slot heals on
    the next put.  Any other sqlite error — a lock held past the busy
    timeout above all — is a miss or a dropped put and leaves the file
    alone.
    """

    def __init__(
        self,
        root: Union[str, Path],
        max_entries: int = DEFAULT_MAX_ENTRIES,
    ) -> None:
        self.root = Path(root)
        self.path = self.root / f"v{SIGNATURE_VERSION}.sqlite"
        self.max_entries = max_entries
        self._lock = threading.Lock()
        self._puts_since_evict = 0
        #: Whether the current database file has its WAL journal mode
        #: and tables (reset when the file is missing or healed).
        self._ready = False

    # ------------------------------------------------------------------
    def _connect(self, create: bool) -> Optional[sqlite3.Connection]:
        """A fresh connection, or ``None`` when the store does not exist
        and ``create`` is false (read mode must not materialize files)."""
        if not self.path.exists():
            if not create:
                return None
            self.root.mkdir(parents=True, exist_ok=True)
            self._ready = False
        conn = sqlite3.connect(str(self.path), timeout=_BUSY_TIMEOUT_MS / 1000.0)
        try:
            conn.execute("PRAGMA synchronous=NORMAL")
            if not self._ready:
                self._setup(conn)
                self._ready = True
        except BaseException:
            conn.close()
            raise
        return conn

    @contextmanager
    def _open(self, create: bool) -> Iterator[Optional[sqlite3.Connection]]:
        """:meth:`_connect` as a context: the connection (or ``None``)
        is closed however the block ends.  Takes no lock; every caller
        holds ``self._lock`` around the block and its :meth:`_heal`."""
        conn = self._connect(create)
        try:
            yield conn
        finally:
            if conn is not None:
                conn.close()

    @staticmethod
    def _setup(conn: sqlite3.Connection) -> None:
        """Give the database file its WAL journal mode and tables.

        When several stores set one new file up together, ``PRAGMA
        journal_mode=WAL`` fails with ``database is locked`` at once
        rather than waiting out the busy timeout.  A lock error is
        therefore retried until that timeout runs out; damage and any
        other error are raised at once.
        """
        deadline = time.monotonic() + _BUSY_TIMEOUT_MS / 1000.0
        while True:
            try:
                conn.execute("PRAGMA journal_mode=WAL")
                conn.execute(
                    "CREATE TABLE IF NOT EXISTS records ("
                    "key TEXT PRIMARY KEY, payload TEXT NOT NULL, touched REAL NOT NULL)"
                )
                conn.execute(
                    "CREATE TABLE IF NOT EXISTS claims ("
                    "key TEXT PRIMARY KEY, owner TEXT NOT NULL, "
                    "generation INTEGER NOT NULL, waits INTEGER NOT NULL DEFAULT 0)"
                )
                conn.execute(
                    "CREATE TABLE IF NOT EXISTS claim_gen ("
                    "id INTEGER PRIMARY KEY CHECK (id = 1), gen INTEGER NOT NULL)"
                )
                return
            except sqlite3.Error as exc:
                if not _is_lock(exc) or time.monotonic() >= deadline:
                    raise
            time.sleep(_SETUP_RETRY_S)

    def _heal(self, exc: sqlite3.Error) -> int:
        """Drop the database file (and WAL side-files) wholesale if
        ``exc`` reports damage; returns the corruptions observed (0 for
        a lock or any other passing error, which leaves the file be)."""
        if not _is_damage(exc):
            return 0
        self._ready = False
        logger.debug("unlinking damaged sqlite cache %s", self.path)
        for suffix in ("", "-wal", "-shm"):
            try:
                Path(str(self.path) + suffix).unlink()
            except OSError:
                pass
        return 1

    # ------------------------------------------------------------------
    def get(self, key: str) -> Tuple[Optional[EmissionRecord], int]:
        """``(record_or_None, corruptions_observed)`` for one lookup."""
        found, corrupt = self.get_many([key])
        return found.get(key), corrupt

    def put(self, key: str, record: EmissionRecord) -> Tuple[bool, bool, int]:
        """Store a record; returns ``(stored, torn, evicted)``.

        ``torn`` reports an injected ``corrupt_shard@put=N`` fault: the
        committed row was overwritten with garbage after the fact, and
        the next read must detect and heal it.
        """
        stored, torn, evicted = self.put_many([(key, record)])
        return stored, torn[0], evicted

    def get_many(self, keys: Sequence[str]) -> Tuple[Dict[str, EmissionRecord], int]:
        """``({key: record}, corruptions_observed)`` for a batch of
        lookups over one connection: one ``SELECT … WHERE key IN (…)``,
        then one transaction that deletes the malformed rows and bumps
        ``touched`` on the hits.  Each key fares as under :meth:`get`:
        a malformed payload is deleted, counted and missed while the
        rest of the batch stands; a damaged file heals and every key
        misses, as does every key when a lock outlasts the busy timeout.
        """
        found: Dict[str, EmissionRecord] = {}
        wanted = list(dict.fromkeys(keys))
        if not wanted:
            return found, 0
        with self._lock:
            try:
                with self._open(create=False) as conn:
                    if conn is None:
                        return found, 0
                    malformed: List[str] = []
                    for chunk, marks in _key_chunks(wanted):
                        # One payload at a time: a wave's JSON is never
                        # all in memory at once.
                        for key, payload in conn.execute(
                            f"SELECT key, payload FROM records WHERE key IN ({marks})", chunk
                        ):
                            try:
                                found[key] = EmissionRecord.from_json_obj(json.loads(payload))
                            except (ValueError, RecordError):
                                malformed.append(key)
                    if malformed or found:
                        with conn:
                            for chunk, marks in _key_chunks(malformed):
                                conn.execute(f"DELETE FROM records WHERE key IN ({marks})", chunk)
                            # LRU recency bookkeeping only — never a result.
                            now = time.time()  # repolint: disable=DD502
                            for chunk, marks in _key_chunks(list(found)):
                                conn.execute(
                                    f"UPDATE records SET touched = ? WHERE key IN ({marks})",
                                    [now, *chunk],
                                )
            except sqlite3.Error as exc:
                return {}, self._heal(exc)
            return found, len(malformed)

    def put_many(
        self, items: Sequence[Tuple[str, EmissionRecord]]
    ) -> Tuple[bool, List[bool], int]:
        """Store a batch in one transaction; returns ``(stored, torn,
        evicted)`` with one ``torn`` flag per item.

        Each record fares as under :meth:`put`: once the batch commits,
        an injected ``corrupt_shard@put=N`` fault counts one put per
        record, in order, and tears the N-th; a lock or a damaged file
        drops the whole batch; eviction counts every record.
        """
        if not items:
            return True, [], 0
        with self._lock:
            try:
                with self._open(create=True) as conn:
                    assert conn is not None
                    # LRU recency bookkeeping only — never a result.
                    now = time.time()  # repolint: disable=DD502
                    with conn:
                        conn.executemany(
                            "INSERT OR REPLACE INTO records (key, payload, touched) "
                            "VALUES (?, ?, ?)",
                            (
                                (key, json.dumps(record.to_json_obj(), separators=(",", ":")), now)
                                for key, record in items
                            ),
                        )
                    torn = [fault_mod.note_put() for _ in items]
                    if any(torn):
                        # A torn record that a later copy of its key
                        # replaced in the batch stays replaced.
                        last = {key: i for i, (key, _record) in enumerate(items)}
                        with conn:
                            conn.executemany(
                                "UPDATE records SET payload = ? WHERE key = ?",
                                [
                                    ('{"cells": [[', key)
                                    for i, (key, _record) in enumerate(items)
                                    if torn[i] and last[key] == i
                                ],
                            )
            except sqlite3.Error:
                return False, [False] * len(items), 0
            self._puts_since_evict += len(items)
            evicted = 0
            if self._puts_since_evict >= _EVICT_EVERY:
                self._puts_since_evict %= _EVICT_EVERY
                evicted = self._evict_locked()
            return True, torn, evicted

    def invalidate(self, key: str) -> None:
        with self._lock:
            try:
                with self._open(create=False) as conn:
                    if conn is None:
                        return
                    with conn:
                        conn.execute("DELETE FROM records WHERE key = ?", (key,))
            except sqlite3.Error as exc:
                self._heal(exc)

    def evict_to_cap(self) -> int:
        """Drop least-recently-touched rows beyond ``max_entries``."""
        with self._lock:
            return self._evict_locked()

    def _evict_locked(self) -> int:
        try:
            with self._open(create=False) as conn:
                if conn is None:
                    return 0
                (count,) = conn.execute("SELECT COUNT(*) FROM records").fetchone()
                excess = int(count) - self.max_entries
                if excess <= 0:
                    return 0
                with conn:
                    conn.execute(
                        "DELETE FROM records WHERE key IN ("
                        "SELECT key FROM records ORDER BY touched ASC, key ASC LIMIT ?)",
                        (excess,),
                    )
                return excess
        except sqlite3.Error as exc:
            self._heal(exc)
            return 0

    # ------------------------------------------------------------------
    # Cross-daemon singleflight claims.
    #
    # A claim row is a lease: "owner is computing key right now".  Rows
    # are generation-stamped from a monotonic counter table, so every
    # lease instance is distinguishable — a waiter that decides to reap
    # a stale lease can only delete the *exact* lease it watched go
    # silent, never a fresh one that replaced it in the meantime.
    # Every method is best-effort: any sqlite error degrades to
    # "no coordination" (the caller computes independently), because
    # claims are a dedup optimization, never a correctness gate.
    # ------------------------------------------------------------------
    @staticmethod
    def _next_generation(conn: sqlite3.Connection) -> int:
        conn.execute("INSERT OR IGNORE INTO claim_gen (id, gen) VALUES (1, 0)")
        conn.execute("UPDATE claim_gen SET gen = gen + 1 WHERE id = 1")
        return int(
            conn.execute("SELECT gen FROM claim_gen WHERE id = 1").fetchone()[0]
        )

    def claim_many(
        self, keys: Sequence[str], owner: str
    ) -> Dict[str, Tuple[str, int, str]]:
        """Atomically claim every key in one transaction.

        Returns ``{key: ("won", generation, owner)}`` for freshly
        claimed keys, ``("held", generation, holder)`` for keys another
        process already holds, and ``("error", 0, "")`` for all of them
        when sqlite failed (degrade to uncoordinated compute).  One
        ``BEGIN IMMEDIATE`` transaction per wave keeps the overhead at
        two lock acquisitions per wave, not per key.
        """
        out: Dict[str, Tuple[str, int, str]] = {
            key: ("error", 0, "") for key in keys
        }
        if not keys:
            return out
        with self._lock:
            try:
                with self._open(create=True) as conn:
                    assert conn is not None
                    conn.isolation_level = None
                    conn.execute("BEGIN IMMEDIATE")
                    try:
                        staged: Dict[str, Tuple[str, int, str]] = {}
                        generation: Optional[int] = None
                        for key in keys:
                            row = conn.execute(
                                "SELECT owner, generation FROM claims WHERE key = ?",
                                (key,),
                            ).fetchone()
                            if row is not None:
                                staged[key] = ("held", int(row[1]), str(row[0]))
                                continue
                            if generation is None:
                                generation = self._next_generation(conn)
                            conn.execute(
                                "INSERT INTO claims (key, owner, generation, waits) "
                                "VALUES (?, ?, ?, 0)",
                                (key, owner, generation),
                            )
                            staged[key] = ("won", generation, owner)
                        conn.execute("COMMIT")
                        out.update(staged)
                    except BaseException:
                        conn.execute("ROLLBACK")
                        raise
            except sqlite3.Error:
                pass
        return out

    def release_claims(self, leases: Sequence[Tuple[str, int]]) -> None:
        """Release held leases (``(key, generation)`` pairs).

        The generation guard means a lease that was already reaped (and
        re-issued to someone else) is left alone.
        """
        if not leases:
            return
        with self._lock:
            try:
                with self._open(create=False) as conn:
                    if conn is None:
                        return
                    with conn:
                        conn.executemany(
                            "DELETE FROM claims WHERE key = ? AND generation = ?",
                            [(key, gen) for key, gen in leases],
                        )
            except sqlite3.Error:
                pass

    def claim_state(self, key: str) -> Optional[Tuple[str, int, int]]:
        """``(owner, generation, waits)`` of the live lease, or ``None``."""
        with self._lock:
            try:
                with self._open(create=False) as conn:
                    if conn is None:
                        return None
                    row = conn.execute(
                        "SELECT owner, generation, waits FROM claims WHERE key = ?",
                        (key,),
                    ).fetchone()
                    if row is None:
                        return None
                    return str(row[0]), int(row[1]), int(row[2])
            except sqlite3.Error:
                return None

    def bump_claim_wait(self, key: str, generation: int) -> bool:
        """Tick the lease's ``waits`` column (telemetry that a waiter is
        parked on it); False when that exact lease no longer exists."""
        with self._lock:
            try:
                with self._open(create=False) as conn:
                    if conn is None:
                        return False
                    with conn:
                        cur = conn.execute(
                            "UPDATE claims SET waits = waits + 1 "
                            "WHERE key = ? AND generation = ?",
                            (key, generation),
                        )
                    return cur.rowcount > 0
            except sqlite3.Error:
                return False

    def reap_claim(
        self, key: str, generation: int, owner: str
    ) -> Tuple[str, int, str]:
        """Take over a stale lease: atomically replace lease
        ``generation`` with a fresh one owned by ``owner``.

        Returns ``("won", new_generation, owner)`` on takeover,
        ``("held", current_generation, holder)`` when the lease changed
        hands first (watch the new one), ``("gone", 0, "")`` when the
        lease vanished (the holder released it — re-check the store,
        then re-claim), or ``("error", 0, "")`` on sqlite failure.
        """
        with self._lock:
            try:
                with self._open(create=True) as conn:
                    assert conn is not None
                    conn.isolation_level = None
                    conn.execute("BEGIN IMMEDIATE")
                    try:
                        row = conn.execute(
                            "SELECT owner, generation FROM claims WHERE key = ?",
                            (key,),
                        ).fetchone()
                        if row is None:
                            result = ("gone", 0, "")
                        elif int(row[1]) != generation:
                            result = ("held", int(row[1]), str(row[0]))
                        else:
                            new_gen = self._next_generation(conn)
                            conn.execute(
                                "UPDATE claims SET owner = ?, generation = ?, waits = 0 "
                                "WHERE key = ?",
                                (owner, new_gen, key),
                            )
                            result = ("won", new_gen, owner)
                        conn.execute("COMMIT")
                        return result  # type: ignore[return-value]
                    except BaseException:
                        conn.execute("ROLLBACK")
                        raise
            except sqlite3.Error:
                return ("error", 0, "")

    def keys(self) -> List[str]:
        """Every key currently stored (deterministic order)."""
        with self._lock:
            try:
                with self._open(create=False) as conn:
                    if conn is None:
                        return []
                    rows = conn.execute("SELECT key FROM records ORDER BY key").fetchall()
                    return [r[0] for r in rows]
            except sqlite3.Error as exc:
                self._heal(exc)
                return []

    def __len__(self) -> int:
        return len(self.keys())


class TieredEmissionCache:
    """The tiers behind one interface (see module docstring).

    One instance per cache root, shared process-wide via the fleet's
    store registry — tier 1 is only useful if every request hitting the
    same root shares it.
    """

    def __init__(
        self,
        root: Union[str, Path],
        max_entries: int = DEFAULT_MAX_ENTRIES,
        memory_entries: int = DEFAULT_MEMORY_ENTRIES,
    ) -> None:
        self.root = Path(root)
        self.memory = MemoryTier(min(memory_entries, max_entries))
        self.disk = SqliteTier(root, max_entries=max_entries)

    # ------------------------------------------------------------------
    def get(
        self, key: str, tele: Optional[CacheTelemetry] = None
    ) -> Optional[EmissionRecord]:
        """Walk memory → sqlite; promote a sqlite hit into memory."""
        return self.get_many([key], tele).get(key)

    def put(
        self,
        key: str,
        record: EmissionRecord,
        tele: Optional[CacheTelemetry] = None,
    ) -> bool:
        """Write-through: sqlite (durable) first, then memory.

        A torn tier-2 write (injected ``corrupt_shard`` fault) skips the
        memory population — the semantic is "the writer died mid-commit",
        and a phantom tier-1 copy would hide the damage from the very
        read that is supposed to detect and heal it.
        """
        return self.put_many([(key, record)], tele) == 1

    def get_many(
        self, keys: Sequence[str], tele: Optional[CacheTelemetry] = None
    ) -> Dict[str, EmissionRecord]:
        """:meth:`get` for a batch of keys: the memory tier key by key,
        then its misses in one sqlite read
        (:meth:`SqliteTier.get_many`), whose hits are promoted into
        memory.  Returns the hits by key; every counter moves as one
        :meth:`get` per distinct key would move it, save that the memory
        tier is walked before any hit is promoted: near its cap, a
        promotion no longer evicts a later key of the same batch before
        that key is looked up."""
        found: Dict[str, EmissionRecord] = {}
        missed: List[str] = []
        for key in dict.fromkeys(keys):
            record = self.memory.get(key)
            if record is not None:
                found[key] = record
            else:
                missed.append(key)
        if tele:
            tele.note(TIER_MEMORY, "hits", len(found))
            tele.note(TIER_MEMORY, "misses", len(missed))
        if not missed:
            return found
        disk_found, corrupt = self.disk.get_many(missed)
        if tele:
            tele.note(TIER_SQLITE, "corruptions", corrupt)
            tele.note(TIER_SQLITE, "misses", len(missed) - len(disk_found))
            tele.note(TIER_SQLITE, "hits", len(disk_found))
            tele.note(TIER_MEMORY, "promotions", len(disk_found))
        for key in missed:
            record = disk_found.get(key)
            if record is not None:
                found[key] = record
                evicted = self.memory.put(key, record)
                if tele:
                    tele.note(TIER_MEMORY, "evictions", evicted)
        return found

    def put_many(
        self,
        items: Sequence[Tuple[str, EmissionRecord]],
        tele: Optional[CacheTelemetry] = None,
    ) -> int:
        """:meth:`put` for a batch: sqlite in one transaction
        (:meth:`SqliteTier.put_many`), then memory for every record that
        was not torn.  Returns how many records were stored; every
        counter moves as one :meth:`put` per record would move it."""
        if not items:
            return 0
        stored, torn, evicted = self.disk.put_many(items)
        if tele:
            tele.note(TIER_SQLITE, "puts", len(items) if stored else 0)
            tele.note(TIER_SQLITE, "evictions", evicted)
        if not stored:
            return 0
        for (key, record), was_torn in zip(items, torn):
            if not was_torn:
                mem_evicted = self.memory.put(key, record)
                if tele:
                    tele.note(TIER_MEMORY, "puts")
                    tele.note(TIER_MEMORY, "evictions", mem_evicted)
        return len(items)

    def invalidate(self, key: str) -> None:
        """Drop one entry from every tier (failed hit re-verification)."""
        self.memory.invalidate(key)
        self.disk.invalidate(key)


__all__ = [
    "CacheTelemetry",
    "DEFAULT_MAX_ENTRIES",
    "DEFAULT_MEMORY_ENTRIES",
    "MemoryTier",
    "SqliteTier",
    "TieredEmissionCache",
    "TIER_MEMORY",
    "TIER_NAMES",
    "TIER_OPS",
    "TIER_SQLITE",
]
