"""Fleet behaviour through the daemon: concurrent submits deduplicate
across requests, byte-identical outputs, fleet/dedup telemetry on
``/metrics``, and queue priority mapping onto fleet admission weights."""

from __future__ import annotations

import time

import pytest

from repro.runtime.fleet import get_fleet, reset_fleet
from repro.serve import ServerConfig
from repro.serve.protocol import parse_submit
from tests.serve.helpers import DaemonHarness

import repro.runtime.pool as pool_mod


def test_concurrent_submits_dedup_and_match(tmp_path, monkeypatch):
    reset_fleet()
    fleet = get_fleet()
    # Inline compute, gated until the second request hooks onto the
    # flight — makes the dedup overlap deterministic instead of a race.
    real_compute = pool_mod.run_supernode_job_guarded

    def gated(job):
        key = job.signature()
        deadline = time.monotonic() + 20
        while time.monotonic() < deadline:
            with fleet._lock:
                flight = fleet._flights.get(key)
                waiting = flight.followers if flight is not None else 1
            if waiting >= 1:
                break
            time.sleep(0.001)
        return real_compute(job)

    monkeypatch.setattr(pool_mod, "run_supernode_job_guarded", gated)

    harness = DaemonHarness(
        ServerConfig(max_workers=2, tenant_concurrency=1)
    ).start()
    try:
        payload = {
            "benchmark": "misex1",
            "emit": "blif",
            "config": {
                "cache": "readwrite",
                "cache_dir": str(tmp_path),
                "jobs": 1,
                "faults": None,
            },
        }
        jobs = [
            harness.submit({**payload, "tenant": tenant})
            for tenant in ("alpha", "beta")
        ]
        snaps = [harness.wait_job(job["id"]) for job in jobs]
        assert all(s["state"] == "done" for s in snaps), snaps

        # Byte-identical results from both submits.
        blifs = [s["result"]["blif"] for s in snaps]
        assert blifs[0] == blifs[1]
        assert snaps[0]["result"]["depth"] == snaps[1]["result"]["depth"]
        assert snaps[0]["result"]["area"] == snaps[1]["result"]["area"]

        # The duplicate request was served by singleflight, not computed.
        stats = [s["result"]["stats"] for s in snaps]
        total_dedup = sum(st["dedup_hits"] for st in stats)
        assert total_dedup > 0
        misses = stats[0]["cache_misses"]
        assert all(st["cache_misses"] == misses for st in stats)
        assert total_dedup + sum(st["dedup_retries"] for st in stats) == misses

        # Telemetry surfaces on /metrics: JSON ...
        status, metrics = harness.request("GET", "/metrics")
        assert status == 200
        assert metrics["dedup_hits"] >= total_dedup
        assert metrics["cache_tiers"]["sqlite"]["puts"] >= 1
        assert metrics["fleet"]["dedup_hits"] >= total_dedup
        assert metrics["fleet"]["flights_in_flight"] == 0
        # ... and Prometheus exposition.
        status, text = harness.request("GET", "/metrics?format=prometheus")
        assert status == 200
        assert 'ddbdd_dedup_total{result="hit"}' in text
        assert 'ddbdd_cache_tier_ops_total{tier="sqlite",op="puts"}' in text
    finally:
        harness.stop()
        reset_fleet()


@pytest.mark.parametrize(
    "priority,explicit,expected",
    [
        (0, None, 1),     # neutral priority: default weight
        (50, None, 6),    # high priority maps onto a bigger share
        (-40, None, 1),   # low priority never drops below weight 1
        (90, 4, 4),       # an explicit config override always wins
    ],
)
def test_priority_maps_to_fleet_weight(monkeypatch, priority, explicit, expected):
    from repro.serve import app as app_mod

    payload = {"benchmark": "mux", "priority": priority}
    if explicit is not None:
        payload["config"] = {"fleet_weight": explicit}
    request = parse_submit(payload)

    seen = {}
    def fake_run_flow(net, config, observer=None):
        seen["weight"] = config.fleet_weight
        raise RuntimeError("stop here")

    monkeypatch.setattr("repro.flow.run_flow", fake_run_flow)
    with pytest.raises(RuntimeError):
        app_mod._execute(request, observer=lambda t: None)
    assert seen["weight"] == expected
