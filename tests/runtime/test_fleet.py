"""Fleet scheduler: singleflight dedup across concurrent requests,
fair-share admission, store selection — and the PR's acceptance line:
K simultaneous requests, each byte-identical to its clean serial run,
with every duplicated signature computed exactly once."""

from __future__ import annotations

import hashlib
import threading
import time

import pytest

from repro.benchgen import build_circuit
from repro.core import DDBDDConfig, ddbdd_synthesize
from repro.runtime.fleet import get_fleet, reset_fleet
from repro.runtime.pool import JobRunner
from repro.runtime.signature import dag_size
from repro.runtime.stats import RuntimeStats
from repro.runtime.tiers import SqliteTier, TieredEmissionCache
from repro.utils import usable_cpus
from tests.conftest import random_gate_network
from tests.runtime.helpers import net_dump

import repro.runtime.fleet as fleet_mod
import repro.runtime.pool as pool_mod


# ----------------------------------------------------------------------
# Store selection
# ----------------------------------------------------------------------
def test_store_for_cache_off_is_none(tmp_path):
    fleet = get_fleet()
    assert fleet.store_for(DDBDDConfig(cache="off")) is None


def test_store_for_tiered_is_shared_per_root(tmp_path):
    fleet = get_fleet()
    cfg = DDBDDConfig(cache="readwrite", cache_dir=str(tmp_path))
    a = fleet.store_for(cfg)
    b = fleet.store_for(DDBDDConfig(cache="read", cache_dir=str(tmp_path)))
    assert isinstance(a, TieredEmissionCache)
    assert a is b, "tier 1 only works if every request on a root shares it"
    other = fleet.store_for(DDBDDConfig(cache="readwrite", cache_dir=str(tmp_path / "x")))
    assert other is not a


# ----------------------------------------------------------------------
# Fair-share admission
# ----------------------------------------------------------------------
def test_allowance_splits_workers_by_weight(tmp_path):
    reset_fleet()
    fleet = get_fleet()
    fleet._shared_runner().workers  # materialize the runner
    workers = fleet._shared_runner().workers
    heavy = DDBDDConfig(jobs=workers or 1, cache="readwrite",
                        cache_dir=str(tmp_path), fleet_weight=3)
    light = DDBDDConfig(jobs=workers or 1, cache="readwrite",
                        cache_dir=str(tmp_path), fleet_weight=1)
    store = fleet.store_for(heavy)
    with fleet.register(heavy, RuntimeStats(), store=store) as hreq:
        with fleet.register(light, RuntimeStats(), store=store) as lreq:
            ha, la = fleet.allowance(hreq), fleet.allowance(lreq)
            assert ha >= 1 and la >= 1
            assert ha == min(heavy.effective_jobs, max(1, workers * 3 // 4))
            assert la == min(light.effective_jobs, max(1, workers * 1 // 4))
        # Sole remaining request: the full worker set is its share again.
        assert fleet.allowance(hreq) == min(heavy.effective_jobs, workers)
    reset_fleet()


# ----------------------------------------------------------------------
# Dispatch: the pool takes every wave it can split
# ----------------------------------------------------------------------
@pytest.mark.skipif(usable_cpus() < 2, reason="needs two usable CPUs")
def test_pool_takes_every_splittable_wave(tmp_path, monkeypatch):
    """A multi-job wave ships to the pool however small it is; a
    single-job wave and a jobs=1 request run in-process and never create
    a pool executor.  The pooled cover equals the serial one.  Only a
    batch that ships is chunked, so the chunking spy sees exactly the
    shipped batches."""
    reset_fleet()
    batches: list = []
    executors: list = []
    real_chunk = pool_mod.chunk_jobs
    real_pool = JobRunner._pool

    def spy_chunk(batch, chunks):
        batches.append((len(batch), sum(dag_size(job.dag) for job in batch)))
        return real_chunk(batch, chunks)

    def spy_pool(self):
        if self._executor is None:
            executors.append(self)
        return real_pool(self)

    monkeypatch.setattr(pool_mod, "chunk_jobs", spy_chunk)
    monkeypatch.setattr(JobRunner, "_pool", spy_pool)
    try:
        # 9sym is one single-job wave.
        ddbdd_synthesize(build_circuit("9sym"), DDBDDConfig(jobs=2, faults=None))
        serial = ddbdd_synthesize(build_circuit("misex1"), DDBDDConfig(jobs=1, faults=None))
        # A cached jobs=1 request goes through the fleet, still in-process.
        ddbdd_synthesize(build_circuit("misex1"), DDBDDConfig(
            jobs=1, cache="readwrite", cache_dir=str(tmp_path), faults=None,
        ))
        assert batches == [] and executors == []

        # misex1 is one wave of 7 jobs over 267 DAG nodes.
        pooled = ddbdd_synthesize(build_circuit("misex1"), DDBDDConfig(jobs=2, faults=None))
        assert batches == [(7, 267)]
        assert len(executors) == 1
        assert net_dump(pooled.network) == net_dump(serial.network)
    finally:
        reset_fleet()


# ----------------------------------------------------------------------
# One compute seam
# ----------------------------------------------------------------------
@pytest.mark.parametrize("jobs,cache", [(1, "off"), (1, "readwrite"), (2, "off")])
def test_every_computed_job_runs_through_the_runner(tmp_path, monkeypatch, jobs, cache):
    """Every job the fleet computes, in-process or pooled, goes through
    ``JobRunner.run_batch_outcomes``: the batches it receives add up to
    the fleet's ``jobs_computed``."""
    reset_fleet()
    sizes: list = []
    real_batch = JobRunner.run_batch_outcomes

    def spy_batch(self, batch, *args, **kwargs):
        sizes.append(len(batch))
        return real_batch(self, batch, *args, **kwargs)

    monkeypatch.setattr(JobRunner, "run_batch_outcomes", spy_batch)
    try:
        before = get_fleet().snapshot()["jobs_computed"]
        ddbdd_synthesize(build_circuit("misex1"), DDBDDConfig(
            jobs=jobs, cache=cache, cache_dir=str(tmp_path), faults=None,
        ))
        computed = get_fleet().snapshot()["jobs_computed"] - before
    finally:
        reset_fleet()
    assert computed >= 7
    assert sum(sizes) == computed


# ----------------------------------------------------------------------
# Acceptance: K concurrent identical requests
# ----------------------------------------------------------------------
def test_concurrent_identical_requests_dedup_exactly(tmp_path, monkeypatch):
    """K=4 simultaneous submissions of the same circuit: every request's
    output is byte-identical to the clean serial run, every duplicated
    signature is computed exactly once, and the duplicate count shows up
    as dedup hits."""
    K = 4
    reset_fleet()

    net = random_gate_network(13, n_pi=10, n_gates=60, n_po=6)
    clean = ddbdd_synthesize(net, DDBDDConfig(jobs=1, faults=None))

    fleet = get_fleet()
    real_compute = pool_mod.run_supernode_job_guarded

    def gated(job):
        # Hold each leader's computation until the other K-1 requests
        # have registered as followers of this signature (they register
        # all of a wave's flights before waiting on any, so this cannot
        # deadlock).  The timeout is a hang-safety valve only.
        key = job.signature()
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            with fleet._lock:
                flight = fleet._flights.get(key)
                waiting = flight.followers if flight is not None else K - 1
            if waiting >= K - 1:
                break
            time.sleep(0.001)
        return real_compute(job)

    monkeypatch.setattr(pool_mod, "run_supernode_job_guarded", gated)

    before = fleet.snapshot()
    results: list = [None] * K
    errors: list = []

    def run(i: int) -> None:
        try:
            results[i] = ddbdd_synthesize(net, DDBDDConfig(
                jobs=1, cache="readwrite", cache_dir=str(tmp_path), faults=None,
            ))
        except Exception as exc:  # pragma: no cover - surfaced below
            errors.append(exc)

    threads = [threading.Thread(target=run, args=(i,)) for i in range(K)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(120)
    assert not errors, errors
    assert all(r is not None for r in results), "a request hung"

    # Hard determinism line: every concurrent run equals the serial one.
    for r in results:
        assert net_dump(r.network) == net_dump(clean.network)
        assert (r.depth, r.area) == (clean.depth, clean.area)
        assert r.po_depths == clean.po_depths

    after = fleet.snapshot()
    stats = [r.runtime_stats for r in results]
    per_request = stats[0].cache_misses
    assert per_request > 0
    assert all(s.cache_misses == per_request for s in stats)
    # Exactly one request's worth of jobs was computed across all K...
    assert after["jobs_computed"] - before["jobs_computed"] == per_request
    # ...and every duplicate resolved as a dedup hit, none as a retry.
    duplicates = K * per_request - per_request
    assert sum(s.dedup_hits for s in stats) == duplicates
    assert sum(s.dedup_retries for s in stats) == 0
    assert after["dedup_hits"] - before["dedup_hits"] == duplicates
    assert after["flights_in_flight"] == 0
    reset_fleet()


def test_concurrent_distinct_requests_stay_independent(tmp_path):
    """Unrelated circuits in flight together: no cross-talk, each output
    byte-identical to its own clean serial run."""
    reset_fleet()
    nets = [random_gate_network(20 + i, n_pi=8, n_gates=40, n_po=4)
            for i in range(3)]
    cleans = [ddbdd_synthesize(n, DDBDDConfig(jobs=1, faults=None)) for n in nets]

    results: list = [None] * len(nets)
    errors: list = []

    def run(i: int) -> None:
        try:
            results[i] = ddbdd_synthesize(nets[i], DDBDDConfig(
                jobs=2, cache="readwrite", cache_dir=str(tmp_path), faults=None,
            ))
        except Exception as exc:  # pragma: no cover
            errors.append(exc)

    threads = [threading.Thread(target=run, args=(i,)) for i in range(len(nets))]
    for t in threads:
        t.start()
    for t in threads:
        t.join(120)
    assert not errors, errors
    for clean, result in zip(cleans, results):
        assert result is not None
        assert net_dump(result.network) == net_dump(clean.network)
        assert (result.depth, result.area) == (clean.depth, clean.area)
    reset_fleet()


def test_snapshot_shape():
    reset_fleet()
    snap = get_fleet().snapshot()
    assert set(snap) >= {
        "dedup_hits", "dedup_retries", "jobs_computed",
        "flights_in_flight", "requests_active", "stores",
    }
    assert all(isinstance(v, int) for v in snap.values())
    reset_fleet()


# ----------------------------------------------------------------------
# Cross-daemon singleflight claims
# ----------------------------------------------------------------------
def test_cold_run_claims_every_computed_key(tmp_path):
    """A clean cached run claims each missed signature before computing
    it and releases every lease afterwards — the telemetry proves it."""
    reset_fleet()
    net = random_gate_network(51, n_pi=8, n_gates=40, n_po=4)
    result = ddbdd_synthesize(net, DDBDDConfig(
        jobs=1, cache="readwrite", cache_dir=str(tmp_path), faults=None,
    ))
    claims = result.runtime_stats.claims
    misses = result.runtime_stats.cache_misses
    assert misses > 0
    assert claims.get("won") == misses
    assert claims.get("released") == misses
    assert "held" not in claims and "reaped" not in claims
    # Nothing left behind in the lease table.
    store = get_fleet().store_for(DDBDDConfig(cache="read", cache_dir=str(tmp_path)))
    assert isinstance(store, TieredEmissionCache)
    for key in store.disk.keys():
        assert store.disk.claim_state(key) is None
    reset_fleet()


def test_same_wave_duplicates_follow_one_flight(tmp_path):
    """Cold ``mux`` has two supernodes per signature in one wavefront.
    The second copy follows the first copy's in-process flight, so each
    key is computed and claimed once: the request never waits on, or
    reaps, its own lease."""
    reset_fleet()
    clean = ddbdd_synthesize(build_circuit("mux"), DDBDDConfig(jobs=1, faults=None))
    before = get_fleet().snapshot()
    result = ddbdd_synthesize(build_circuit("mux"), DDBDDConfig(
        jobs=1, cache="readwrite", cache_dir=str(tmp_path), faults=None,
    ))
    after = get_fleet().snapshot()
    stats = result.runtime_stats
    distinct = len(SqliteTier(tmp_path).keys())
    duplicates = stats.cache_misses - distinct
    assert duplicates > 0
    assert "held" not in stats.claims and "reaped" not in stats.claims
    assert stats.claims.get("won") == distinct
    assert after["jobs_computed"] - before["jobs_computed"] == distinct
    assert stats.dedup_hits == duplicates
    assert net_dump(result.network) == net_dump(clean.network)
    reset_fleet()


def test_fault_armed_duplicates_compute_solo(tmp_path):
    """A fault-armed request never follows a flight, its own included:
    each copy is computed, and nothing is claimed."""
    reset_fleet()
    clean = ddbdd_synthesize(build_circuit("mux"), DDBDDConfig(jobs=1, faults=None))
    before = get_fleet().snapshot()
    result = ddbdd_synthesize(build_circuit("mux"), DDBDDConfig(
        jobs=1, cache="readwrite", cache_dir=str(tmp_path), faults="raise@job=99",
    ))
    after = get_fleet().snapshot()
    stats = result.runtime_stats
    assert stats.dedup_hits == 0 and stats.claims == {}
    assert after["jobs_computed"] - before["jobs_computed"] == stats.cache_misses
    assert net_dump(result.network) == net_dump(clean.network)
    reset_fleet()


def test_cache_claims_off_disables_coordination(tmp_path):
    reset_fleet()
    net = random_gate_network(52, n_pi=8, n_gates=30, n_po=4)
    result = ddbdd_synthesize(net, DDBDDConfig(
        jobs=1, cache="readwrite", cache_dir=str(tmp_path),
        cache_claims=False, faults=None,
    ))
    assert result.runtime_stats.claims == {}
    reset_fleet()


def test_dead_daemon_lease_is_reaped_and_recomputed(tmp_path, monkeypatch):
    """Acceptance: a claim-holder that died mid-flight (its lease rows
    sit in the shared store, its process will never release them) is
    reaped by a waiter on the tick budget, and the waiter's clean retry
    is byte-identical to an uncontended run."""
    reset_fleet()
    net = random_gate_network(53, n_pi=8, n_gates=35, n_po=4)
    clean = ddbdd_synthesize(net, DDBDDConfig(jobs=1, faults=None))

    # Learn the run's signatures from a throwaway warm root, then plant
    # a dead daemon's leases for all of them in a fresh root.
    warm = ddbdd_synthesize(net, DDBDDConfig(
        jobs=1, cache="readwrite", cache_dir=str(tmp_path / "warm"), faults=None,
    ))
    keys = TieredEmissionCache(tmp_path / "warm").disk.keys()
    assert len(keys) == warm.runtime_stats.cache_misses and keys
    reset_fleet()

    cold_root = tmp_path / "cold"
    dead = SqliteTier(cold_root)
    grants = dead.claim_many(keys, "deadhost:99999")
    assert all(status == "won" for status, _, _ in grants.values())

    # Shrink the reap budget so the test does not poll for 5 seconds.
    monkeypatch.setattr(fleet_mod, "CLAIM_POLL_S", 0.001)
    monkeypatch.setattr(fleet_mod, "CLAIM_REAP_TICKS", 3)

    result = ddbdd_synthesize(net, DDBDDConfig(
        jobs=1, cache="readwrite", cache_dir=str(cold_root), faults=None,
    ))
    assert net_dump(result.network) == net_dump(clean.network)
    assert (result.depth, result.area) == (clean.depth, clean.area)

    claims = result.runtime_stats.claims
    assert claims.get("held") == len(keys), "every key was seen leased"
    assert claims.get("reaped") == len(keys), "every stale lease was taken over"
    assert claims.get("released") == len(keys)
    # The reaper computed the records itself and left no leases behind.
    reader = SqliteTier(cold_root)
    assert sorted(reader.keys()) == sorted(keys)
    for key in keys:
        assert reader.claim_state(key) is None
    reset_fleet()


def test_warm_wave_verifies_a_repeated_key_once(tmp_path, monkeypatch):
    """A warm ``ttt2`` at verify_level 1 has a wavefront holding one
    signature twice.  The wave looks its distinct keys up once and
    verifies each hit once: the key's second copy shares the first
    copy's verdict, and the cover is the pinned one."""
    from repro.network import network_to_blif
    from tests.flow.test_golden_equivalence import TABLE1_BLIF_SHA256

    reset_fleet()

    def config() -> DDBDDConfig:
        return DDBDDConfig(
            jobs=1, cache="readwrite", cache_dir=str(tmp_path), verify_level=1
        )

    ddbdd_synthesize(build_circuit("ttt2"), config())
    verified: list = []
    waves: list = []
    real_verify = fleet_mod.verify_record
    real_run_wave = fleet_mod.FleetScheduler.run_wave

    def counted_verify(*args):
        verified.append(args[0])
        return real_verify(*args)

    def recorded_run_wave(self, req, items):
        before = len(verified)
        outcomes = real_run_wave(self, req, items)
        waves.append(([item.key for item in items], len(verified) - before))
        return outcomes

    monkeypatch.setattr(fleet_mod, "verify_record", counted_verify)
    monkeypatch.setattr(fleet_mod.FleetScheduler, "run_wave", recorded_run_wave)
    warm = ddbdd_synthesize(build_circuit("ttt2"), config())
    stats = warm.runtime_stats
    assert stats.cache_misses == 0 and stats.cache_rejected == 0
    assert any(len(set(keys)) < len(keys) for keys, _ in waves), "a repeated key"
    for keys, calls in waves:
        assert calls == len(set(keys)), "one verification per distinct key"
    blif = network_to_blif(warm.network)
    assert hashlib.sha256(blif.encode()).hexdigest() == TABLE1_BLIF_SHA256["ttt2"]
    reset_fleet()
