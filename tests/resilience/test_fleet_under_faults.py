"""Singleflight under faults: a leader whose in-flight computation is
killed — by an injected worker crash or by outright request death —
must release every deduped waiter, and each waiter must retry
independently and still produce the clean-serial output.  A
fault-armed request's result is never handed to a waiter."""

from __future__ import annotations

import threading
import time

from repro.core import DDBDDConfig, ddbdd_synthesize
from repro.runtime.fleet import get_fleet, reset_fleet
from tests.conftest import random_gate_network
from tests.runtime.helpers import net_dump

import repro.runtime.pool as pool_mod


def _start_followers(net, tmp_path, n):
    """``(threads, results, errors)`` — clean requests over the shared
    cache root, started immediately."""
    results: list = [None] * n
    errors: list = []

    def run(i: int) -> None:
        try:
            results[i] = ddbdd_synthesize(net, DDBDDConfig(
                jobs=1, cache="readwrite", cache_dir=str(tmp_path), faults=None,
            ))
        except Exception as exc:  # pragma: no cover - surfaced below
            errors.append(exc)

    threads = [threading.Thread(target=run, args=(i,)) for i in range(n)]
    for t in threads:
        t.start()
    return threads, results, errors


def _wait_for_flights(fleet, timeout=30.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if fleet.snapshot()["flights_in_flight"] > 0:
            return
        time.sleep(0.001)
    raise AssertionError("leader never registered a flight")


def test_crashed_worker_leader_releases_waiters_who_retry(tmp_path, monkeypatch):
    """A fault-armed leader (worker crash in flight) publishes its
    flights as unshareable; both deduped waiters retry independently and
    match the clean serial run byte for byte."""
    reset_fleet()
    fleet = get_fleet()
    net = random_gate_network(30, n_pi=10, n_gates=60, n_po=6)
    clean = ddbdd_synthesize(net, DDBDDConfig(jobs=1, faults=None))

    # Hold the leader's first publish until both waiters have hooked
    # onto a flight, so the dedup overlap is deterministic, then let the
    # run flow freely.
    released = threading.Event()
    real_publish = fleet._publish

    def gated_publish(key, flight, outcome):
        if not released.is_set() and flight.owner.config.faults is not None:
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline and not released.is_set():
                if flight.followers >= 2:
                    released.set()
                time.sleep(0.001)
        real_publish(key, flight, outcome)

    monkeypatch.setattr(fleet, "_publish", gated_publish)

    leader_result: list = []
    leader_errors: list = []

    def leader() -> None:
        try:
            # cache="read": the leader never pre-populates tier 2, so
            # the waiters' only shortcut is the leader's flights.
            leader_result.append(ddbdd_synthesize(net, DDBDDConfig(
                jobs=2, cache="read", cache_dir=str(tmp_path),
                faults="crash_worker@job=2",
            )))
        except Exception as exc:  # pragma: no cover
            leader_errors.append(exc)

    lt = threading.Thread(target=leader, name="fault-leader")
    lt.start()
    _wait_for_flights(fleet)
    threads, results, errors = _start_followers(net, tmp_path, 2)

    lt.join(120)
    for t in threads:
        t.join(120)
    assert not leader_errors, leader_errors
    assert not errors, errors
    assert leader_result and all(r is not None for r in results), "a request hung"

    # The leader recovered its crashed worker and still matched serial.
    assert net_dump(leader_result[0].network) == net_dump(clean.network)
    pool_rows = [f for f in leader_result[0].runtime_stats.failures
                 if f.kind == "pool"]
    assert len(pool_rows) >= 1

    # Both waiters were released, refused the fault-armed result, and
    # recomputed on their own — byte-identical output.
    for r in results:
        assert net_dump(r.network) == net_dump(clean.network)
        assert r.runtime_stats.dedup_retries >= 1
        assert r.runtime_stats.dedup_hits + r.runtime_stats.dedup_retries > 0
    assert fleet.snapshot()["flights_in_flight"] == 0
    reset_fleet()


def test_dead_leader_fail_publishes_and_waiters_recover(tmp_path, monkeypatch):
    """A leader that dies outright (its computation raises) fail-publishes
    every owned flight on the way out; waiters never hang and retry to
    the correct result."""
    reset_fleet()
    fleet = get_fleet()
    net = random_gate_network(31, n_pi=10, n_gates=60, n_po=6)
    clean = ddbdd_synthesize(net, DDBDDConfig(jobs=1, faults=None))

    real_compute = pool_mod.run_supernode_job_guarded

    def bomb(job):
        if threading.current_thread().name == "doomed-leader":
            # Let the waiters hook on before dying, so the release path
            # (not mere timing) is what frees them.
            key = job.signature()
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline:
                with fleet._lock:
                    flight = fleet._flights.get(key)
                    if flight is not None and flight.followers >= 2:
                        break
                time.sleep(0.001)
            raise RuntimeError("leader died mid-flight")
        return real_compute(job)

    monkeypatch.setattr(pool_mod, "run_supernode_job_guarded", bomb)

    leader_errors: list = []

    def leader() -> None:
        try:
            ddbdd_synthesize(net, DDBDDConfig(
                jobs=1, cache="readwrite", cache_dir=str(tmp_path), faults=None,
            ))
        except RuntimeError as exc:
            leader_errors.append(exc)

    lt = threading.Thread(target=leader, name="doomed-leader")
    lt.start()
    _wait_for_flights(fleet)
    threads, results, errors = _start_followers(net, tmp_path, 2)

    lt.join(120)
    for t in threads:
        t.join(120)
    assert leader_errors, "the leader was supposed to die"
    assert not errors, errors
    assert all(r is not None for r in results), "a waiter hung on a dead flight"

    for r in results:
        assert net_dump(r.network) == net_dump(clean.network)
        assert r.runtime_stats.dedup_retries >= 1
    # No orphaned flights left behind by the dead request.
    assert fleet.snapshot()["flights_in_flight"] == 0
    assert fleet.snapshot()["requests_active"] == 0
    reset_fleet()
