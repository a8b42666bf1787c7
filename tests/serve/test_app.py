"""End-to-end daemon tests over a real TCP socket.

A shared module-scoped daemon serves the read-only and golden tests;
lifecycle tests (drain/503) start their own instance.
"""

from __future__ import annotations

import json
import threading

import pytest

import repro.serve.app as app_mod
from repro import __version__
from repro.benchgen import build_circuit
from repro.core.config import DDBDDConfig
from repro.flow import run_flow
from repro.network import network_to_blif
from repro.runtime.stats import STATS_SCHEMA
from repro.serve import PROTOCOL_SCHEMA, ServerConfig
from tests.serve.helpers import DaemonHarness


@pytest.fixture(scope="module")
def daemon():
    harness = DaemonHarness(
        ServerConfig(max_workers=2, tenant_concurrency=1)
    ).start()
    yield harness
    harness.stop()


class TestGolden:
    def test_sync_submit_matches_serial_run(self, daemon):
        """Acceptance: a daemon-submitted Table-I circuit is
        byte-identical (depth, area, BLIF text) to a serial in-process
        run of the same flow."""
        serial = run_flow(build_circuit("misex1"), DDBDDConfig())
        golden_blif = network_to_blif(serial.network)

        status, snap = daemon.request(
            "POST",
            "/v1/synthesize",
            {"benchmark": "misex1", "mode": "sync", "emit": "blif"},
        )
        assert status == 200 and snap["state"] == "done"
        result = snap["result"]
        assert (result["depth"], result["area"]) == (serial.depth, serial.area)
        assert result["blif"] == golden_blif
        # The embedded stats payload is the shared versioned contract.
        assert result["stats"]["schema"] == STATS_SCHEMA
        assert result["stats"]["version"] == __version__
        assert [p["name"] for p in snap["passes"]] == [
            "sweep", "collapse", "synth", "map",
        ]

    def test_blif_circuit_round_trips(self, daemon):
        text = network_to_blif(build_circuit("mux"))
        status, snap = daemon.request(
            "POST",
            "/v1/synthesize",
            {"circuit": text, "mode": "sync", "emit": "blif"},
        )
        assert status == 200 and snap["state"] == "done"
        serial = run_flow(build_circuit("mux"), DDBDDConfig())
        assert snap["result"]["depth"] == serial.depth


class TestAsyncLifecycle:
    def test_submit_poll_events(self, daemon):
        job = daemon.submit({"benchmark": "mux"})
        assert job["state"] in ("queued", "running")
        snap = daemon.wait_job(job["id"])
        assert snap["state"] == "done"
        assert snap["result"]["depth"] >= 1
        assert snap["queued_s"] is not None and snap["finished_s"] is not None
        # Per-pass telemetry rows appeared on the snapshot as the job ran.
        assert [p["name"] for p in snap["passes"]] == [
            "sweep", "collapse", "synth", "map",
        ]
        events = daemon.events(job["id"])
        kinds = [e["event"] for e in events]
        assert kinds[0] == "state" and events[0]["state"] == "queued"
        assert kinds[-1] == "state" and events[-1]["state"] == "done"
        passes = [e["pass"]["name"] for e in events if e["event"] == "pass"]
        assert passes == ["sweep", "collapse", "synth", "map"]
        assert all(e["schema"] == PROTOCOL_SCHEMA and e["job"] == job["id"] for e in events)

    def test_sync_failure_maps_to_500_with_structured_error(self, daemon):
        # An impossible node budget trips the degradation ladder's floor.
        status, snap = daemon.request(
            "POST",
            "/v1/synthesize",
            {
                "benchmark": "9sym",
                "mode": "sync",
                "config": {"verify_level": 1},
                "deadline_s": 0.000001,
            },
        )
        # Either the ladder rescues the run (done) or the job fails with
        # a structured error — never a hung job or a dead server.
        assert status in (200, 500)
        if status == 500:
            assert snap["state"] == "failed"
            assert snap["error"]["code"] in ("synthesis_error", "verification_failed")
        _, health = daemon.request("GET", "/healthz")
        assert health["state"] == "serving"


class TestHttpErrors:
    def test_invalid_json_400(self, daemon):
        import http.client

        conn = http.client.HTTPConnection("127.0.0.1", daemon.port, timeout=30)
        conn.request("POST", "/v1/synthesize", body=b"not json {")
        response = conn.getresponse()
        body = json.loads(response.read())
        conn.close()
        assert response.status == 400
        assert body["error"]["code"] == "invalid_json"

    def test_validation_400_with_structured_body(self, daemon):
        status, body = daemon.request(
            "POST", "/v1/synthesize", {"benchmark": "mux", "config": {"k": 1}}
        )
        assert status == 400
        assert body["schema"] == PROTOCOL_SCHEMA
        assert body["error"]["code"] == "invalid_config"

    def test_unknown_job_404(self, daemon):
        status, body = daemon.request("GET", "/v1/jobs/j999999")
        assert status == 404 and body["error"]["code"] == "unknown_job"

    def test_unknown_route_404(self, daemon):
        status, body = daemon.request("GET", "/v2/nothing")
        assert status == 404 and body["error"]["code"] == "not_found"

    def test_method_mismatch_405(self, daemon):
        status, body = daemon.request("GET", "/v1/synthesize")
        assert status == 405
        status, body = daemon.request("POST", "/healthz", {})
        assert status == 405


class TestObservability:
    def test_healthz(self, daemon):
        status, health = daemon.request("GET", "/healthz")
        assert status == 200
        assert health["schema"] == PROTOCOL_SCHEMA
        assert health["version"] == __version__
        assert health["state"] == "serving"
        assert health["uptime_s"] >= 0
        for key in ("queue_depth", "running", "served", "failed", "rejected"):
            assert isinstance(health[key], int)

    def test_metrics_json(self, daemon):
        daemon.wait_job(daemon.submit({"benchmark": "mux"})["id"])
        status, metrics = daemon.request("GET", "/metrics")
        assert status == 200
        assert metrics["schema"] == STATS_SCHEMA
        assert metrics["version"] == __version__
        assert metrics["jobs_observed"] >= 1
        assert metrics["queue"]["served"] >= 1
        assert metrics["passes"]["synth"]["calls"] >= 1
        assert "anonymous" in metrics["tenants"]

    def test_metrics_prometheus(self, daemon):
        status, text = daemon.request("GET", "/metrics?format=prometheus")
        assert status == 200
        assert "# TYPE ddbdd_jobs_total counter" in text
        assert "ddbdd_uptime_seconds" in text


class TestQuotasEndToEnd:
    def test_two_tenants_three_jobs_each(self, daemon):
        """Acceptance: two tenants with per-tenant concurrency 1 submit
        three jobs each; every job completes, and neither tenant ever
        had two jobs running at once."""
        jobs = []
        for _ in range(3):
            jobs.append(daemon.submit({"benchmark": "mux", "tenant": "alice"}))
            jobs.append(daemon.submit({"benchmark": "mux", "tenant": "bob"}))
        snaps = [daemon.wait_job(j["id"]) for j in jobs]
        assert all(s["state"] == "done" for s in snaps)
        _, metrics = daemon.request("GET", "/metrics")
        for tenant in ("alice", "bob"):
            stats = metrics["tenants"][tenant]
            assert stats["served"] >= 3
            assert stats["peak_running"] == 1
            assert stats["running"] == 0 and stats["waiting"] == 0

    def test_tenant_queue_limit_429(self, monkeypatch):
        # The first job holds the only worker until the test releases
        # it, so the tenant queue fills however fast synthesis runs.
        started = threading.Event()
        release = threading.Event()
        real_execute = app_mod._execute

        def held(request, observer):
            started.set()
            release.wait(60)
            return real_execute(request, observer)

        monkeypatch.setattr(app_mod, "_execute", held)
        harness = DaemonHarness(
            ServerConfig(max_workers=1, tenant_concurrency=1, tenant_queue_limit=1)
        ).start()
        try:
            # A held job occupies the worker; the next submit waits (1
            # allowed), the one after that must be refused.
            harness.submit({"benchmark": "9sym", "tenant": "alice"})
            assert started.wait(30), "the first job never started"
            statuses = []
            for _ in range(3):
                status, body = harness.request(
                    "POST", "/v1/synthesize", {"benchmark": "mux", "tenant": "alice"}
                )
                statuses.append(status)
            assert 429 in statuses
            _, health = harness.request("GET", "/healthz")
            assert health["rejected"] >= 1
        finally:
            release.set()
            harness.stop()


class TestEmissionCacheSharing:
    def test_overlapping_jobs_share_one_cache_dir(self, tmp_path):
        """Satellite (d): two concurrent in-daemon jobs against the same
        cache directory must not corrupt it, and a follow-up job
        replays from it."""
        harness = DaemonHarness(
            ServerConfig(max_workers=2, tenant_concurrency=1)
        ).start()
        cache_dir = str(tmp_path / "shared_cache")
        payload = lambda tenant: {  # noqa: E731
            "benchmark": "z4ml",
            "tenant": tenant,
            "config": {"cache": "readwrite", "cache_dir": cache_dir},
        }
        try:
            first = harness.submit(payload("alice"))
            second = harness.submit(payload("bob"))
            snap_a = harness.wait_job(first["id"])
            snap_b = harness.wait_job(second["id"])
            assert snap_a["state"] == "done" and snap_b["state"] == "done"
            # Determinism: both jobs produced the identical network.
            assert snap_a["result"]["depth"] == snap_b["result"]["depth"]
            assert snap_a["result"]["area"] == snap_b["result"]["area"]
            for snap in (snap_a, snap_b):
                stats = snap["result"]["stats"]
                assert stats["cache_corruptions"] == 0
                assert stats["cache_rejected"] == 0
                assert stats["cache_hits"] + stats["cache_misses"] > 0
            # A third job over the warm cache replays emissions.
            third = harness.wait_job(harness.submit(payload("carol"))["id"])
            warm = third["result"]["stats"]
            assert warm["cache_hits"] > 0 and warm["cache_corruptions"] == 0
            assert third["result"]["depth"] == snap_a["result"]["depth"]
            _, metrics = harness.request("GET", "/metrics")
            assert metrics["cache_corruptions"] == 0
            assert metrics["cache_puts"] >= 1
        finally:
            harness.stop()


class TestPerRequestEnvInDaemon:
    def test_running_daemon_tracks_env_changes(self, daemon, monkeypatch):
        """Satellite (c), daemon-level: the server was started long
        before this test touches the environment — yet each request's
        config reflects the environment at submit time, proving nothing
        was captured at startup."""
        monkeypatch.delenv("DDBDD_JOBS", raising=False)
        snap = daemon.wait_job(daemon.submit({"benchmark": "mux"})["id"])
        assert snap["result"]["stats"]["jobs"] == 1
        assert snap["request"]["faults_armed"] is False

        monkeypatch.setenv("DDBDD_JOBS", "2")
        snap = daemon.wait_job(daemon.submit({"benchmark": "mux"})["id"])
        assert snap["result"]["stats"]["jobs"] == 2

        monkeypatch.delenv("DDBDD_JOBS")
        snap = daemon.wait_job(daemon.submit({"benchmark": "mux"})["id"])
        assert snap["result"]["stats"]["jobs"] == 1

    def test_standing_plan_armed_then_disarmed(self, daemon, monkeypatch):
        # Arm a plan in the environment mid-flight: the *request* config
        # picks it up (visible in the job record), and an explicit
        # "faults": null opt-out disarms that one request.  The plan
        # itself is exercised end-to-end by the fault-smoke CI leg
        # (tests/resilience/test_serve_under_faults.py) — here we only
        # prove the per-request resolution, so the job never runs armed.
        monkeypatch.setenv("DDBDD_FAULTS", "raise@job=999")
        status, body = daemon.request(
            "POST",
            "/v1/synthesize",
            {"benchmark": "mux", "mode": "sync", "config": {"faults": None}},
        )
        assert status == 200
        assert body["request"]["faults_armed"] is False
        monkeypatch.delenv("DDBDD_FAULTS")


class TestDrain:
    def test_drain_finishes_work_then_refuses(self):
        harness = DaemonHarness(ServerConfig(max_workers=1)).start()
        job = harness.submit({"benchmark": "misex1"})
        # Begin the drain while the job is (most likely) still running.
        assert harness.loop is not None and harness.server is not None
        harness.loop.call_soon_threadsafe(harness.server.request_shutdown)
        deadline_status, body = harness.request(
            "POST", "/v1/synthesize", {"benchmark": "mux"}
        )
        assert deadline_status == 503
        assert body["error"]["code"] == "draining"
        harness.stop()  # joins: the daemon exits only once drained
        queue = harness.server.queue
        finished = queue.jobs[job["id"]]
        assert finished.state in ("done", "failed")
        assert queue.idle
