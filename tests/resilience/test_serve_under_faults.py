"""Serve daemon under a standing ``DDBDD_FAULTS`` plan (fault-smoke CI
leg; see test_env_plan.py for the plan and the skip gate).

Acceptance for the serving layer: with a crash/corruption plan armed in
the daemon's environment,

* every submitted job inherits the plan per-request and still comes out
  golden — depth, area and the exact network identical to a clean
  serial run (the degradation ladder absorbs the faults per job);
* the faults never take the server down — it keeps answering
  ``/healthz`` and serving follow-up jobs;
* fault-armed jobs are serialized (the plan is process-global state, so
  the queue must never run two at once).
"""

from __future__ import annotations

import os

import pytest

from repro.benchgen import build_circuit
from repro.core import DDBDDConfig, ddbdd_synthesize
from repro.serve import ServerConfig
from tests.conftest import assert_equivalent  # noqa: F401  (re-export guard)
from tests.serve.helpers import DaemonHarness

PLAN = os.environ.get("DDBDD_FAULTS", "").strip()

pytestmark = pytest.mark.skipif(
    not PLAN,
    reason="fault-smoke leg only: export DDBDD_FAULTS to arm these tests",
)


@pytest.fixture(autouse=True)
def _force_pool(monkeypatch):
    monkeypatch.setenv("DDBDD_FAULTS", PLAN)


def test_daemon_jobs_survive_standing_plan(tmp_path):
    clean = ddbdd_synthesize(build_circuit("cht"), DDBDDConfig(jobs=1, faults=None))

    harness = DaemonHarness(ServerConfig(max_workers=2, tenant_concurrency=1)).start()
    try:
        payload = {
            "benchmark": "cht",
            "config": {
                "jobs": 2,
                "cache": "readwrite",
                "cache_dir": str(tmp_path / "cache"),
            },
        }
        # Two armed jobs queued together: run-exclusivity must
        # serialize them (a shared process-global plan cannot nest).
        jobs = [harness.submit(payload), harness.submit(payload)]
        snaps = [harness.wait_job(j["id"], timeout=600) for j in jobs]
        for snap in snaps:
            assert snap["state"] == "done", snap.get("error")
            assert snap["request"]["faults_armed"] is True
            assert (snap["result"]["depth"], snap["result"]["area"]) == (
                clean.depth,
                clean.area,
            )
        # The ladder recovered inside the job, not by luck: at least one
        # run saw the injected faults and every recovery re-verified.
        recovered = [
            f
            for snap in snaps
            for f in snap["result"]["stats"]["failures"]
        ]
        assert all(f["verified"] for f in recovered)
        # The server survived and keeps serving.
        status, health = harness.request("GET", "/healthz")
        assert status == 200 and health["state"] == "serving"
        follow_up = harness.wait_job(
            harness.submit({"benchmark": "misex1"})["id"], timeout=600
        )
        assert follow_up["state"] == "done"
    finally:
        harness.stop()


def test_daemon_blif_identical_to_serial_under_plan():
    clean = ddbdd_synthesize(build_circuit("misex1"), DDBDDConfig(jobs=1, faults=None))
    from repro.network import network_to_blif

    golden = network_to_blif(clean.network)
    harness = DaemonHarness(ServerConfig(max_workers=1)).start()
    try:
        status, snap = harness.request(
            "POST",
            "/v1/synthesize",
            {"benchmark": "misex1", "mode": "sync", "emit": "blif",
             "config": {"jobs": 2}},
            timeout=600,
        )
        assert status == 200, snap
        assert snap["request"]["faults_armed"] is True
        assert snap["result"]["blif"] == golden
    finally:
        harness.stop()
