"""Fault-tolerant pool execution: worker death, respawn/retry, serial
fallback — with results cell-for-cell identical to a clean run."""

from __future__ import annotations

import random

import pytest

from repro.bdd.manager import BDDManager
from repro.core import DDBDDConfig, ddbdd_synthesize
from repro.resilience.faults import FaultPlan, activated
from repro.runtime.pool import JobRunner, SupernodeJob, run_supernode_job
from repro.runtime.signature import export_dag
from tests.conftest import random_gate_network, random_truth_function
from tests.runtime.helpers import net_dump


def _jobs(n: int, num_vars: int = 6, **over) -> list:
    config = DDBDDConfig(**over)
    jobs = []
    for seed in range(n):
        mgr = BDDManager(num_vars, var_names=[f"v{i}" for i in range(num_vars)])
        func = random_truth_function(mgr, num_vars, random.Random(seed))
        dag = export_dag(mgr, func)
        jobs.append(SupernodeJob.from_config(
            f"sn{seed}", dag, [0] * num_vars, [False] * num_vars, config,
            seq=seed + 1,
        ))
    return jobs


# ----------------------------------------------------------------------
# JobRunner unit behaviour
# ----------------------------------------------------------------------
def test_run_batch_outcomes_reports_breach():
    # A budget breach comes back as a clean outcome for the caller's
    # degradation ladder: no record, and the reason it stopped.
    runner = JobRunner(1)
    jobs = _jobs(1, job_node_budget=1)
    (outcome,) = runner.run_batch_outcomes(jobs)
    assert not outcome.ok
    assert outcome.breach_reason == "nodes"


def test_inline_retries_transient_raise():
    # One-worker execution retries a transient in-worker error in place;
    # the fault decrements on the first (failed) attempt, so the retry
    # runs clean and no event is recorded (nothing pool-level broke).
    jobs = _jobs(2)
    with activated("raise@job=1"):
        with JobRunner(1) as runner:
            outcomes = runner.run_batch_outcomes(jobs)
    assert all(o.ok for o in outcomes)
    assert outcomes[0].record == run_supernode_job(jobs[0])


def test_inline_exhausted_retries_reraise():
    jobs = _jobs(1)
    with activated("raise@job=1x10"):
        with JobRunner(1, max_retries=2) as runner:
            with pytest.raises(RuntimeError):
                runner.run_batch_outcomes(jobs)


def test_pool_crash_respawns_and_matches(tmp_path):
    # A worker hard-exits mid-chunk; the pool respawns, the chunk
    # retries (crash disarmed by notify_pool_failure), and every record
    # equals the unguarded serial run's.
    jobs = _jobs(4)
    expected = [run_supernode_job(job) for job in jobs]
    events: list = []
    with activated("crash_worker@job=2"):
        with JobRunner(2, clamp=False, backoff_s=0.01) as runner:
            outcomes = runner.run_batch_outcomes(jobs, events=events)
    assert [o.record for o in outcomes] == expected
    assert len(events) == 1
    assert events[0].kind == "pool"
    assert events[0].rung == "respawn" and events[0].retries == 1
    assert "sn1" in events[0].job.split(",")


def test_pool_serial_fallback_after_retry_exhaustion(monkeypatch):
    # Keep the crash armed across respawns (defeating the parent-side
    # disarm) so every pool attempt dies; after max_retries the chunk
    # must run in-process — where crash_worker is inert by design.
    monkeypatch.setattr(
        FaultPlan, "notify_pool_failure", lambda self, seqs: None
    )
    jobs = _jobs(3)
    expected = [run_supernode_job(job) for job in jobs]
    events: list = []
    with activated("crash_worker@job=1x50"):
        with JobRunner(2, max_retries=1, clamp=False, backoff_s=0.01) as runner:
            outcomes = runner.run_batch_outcomes(jobs, events=events)
    assert [o.record for o in outcomes] == expected
    actions = [e.rung for e in events]
    assert actions[-1] == "serial"
    assert "respawn" in actions[:-1]
    assert [e.retries for e in events] == list(range(1, len(events) + 1))
    assert all("sn0" in e.job.split(",") for e in events)


# ----------------------------------------------------------------------
# Flow-level: crash recovery preserves the determinism contract
# ----------------------------------------------------------------------
def test_flow_crash_recovery_identical_to_serial(monkeypatch):
    net = random_gate_network(13, n_pi=10, n_gates=60, n_po=6)
    clean = ddbdd_synthesize(net, DDBDDConfig(jobs=1, faults=None))
    result = ddbdd_synthesize(
        net, DDBDDConfig(jobs=4, faults="crash_worker@job=1")
    )
    assert net_dump(result.network) == net_dump(clean.network)
    assert (result.depth, result.area) == (clean.depth, clean.area)
    rows = [f for f in result.runtime_stats.failures if f.kind == "pool"]
    assert len(rows) == 1
    assert rows[0].retries >= 1 and rows[0].rung == "respawn"
    assert rows[0].seq >= 1  # the chunk's smallest wavefront seq
