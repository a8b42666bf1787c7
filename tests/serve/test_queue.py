"""JobQueue policy: priority ordering, per-tenant quotas, admission
caps, fault-plan run-exclusivity, bounded retention."""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.benchgen import build_circuit
from repro.core.config import DDBDDConfig
from repro.serve.protocol import SubmitRequest
from repro.serve.queue import DONE, FAILED, JobQueue, QuotaError, ServeJob

MUX = build_circuit("mux")


def make_request(
    tenant: str = "t", priority: int = 0, faults: "str | None" = None
) -> SubmitRequest:
    return SubmitRequest(
        net=MUX,
        config=DDBDDConfig(faults=faults),
        source="benchmark:mux",
        tenant=tenant,
        priority=priority,
    )


def drain(queue: JobQueue) -> "list[ServeJob]":
    """Run the dispatch loop to completion, one job at a time, and
    return jobs in start order."""
    started = []
    while True:
        job = queue.next_runnable()
        if job is None:
            if queue.running == 0:
                return started
            raise AssertionError("stuck: jobs running but drain is serial")
        queue.mark_running(job)
        started.append(job)
        queue.mark_finished(job, ok=True)


class TestOrdering:
    def test_priority_then_fifo(self):
        queue = JobQueue(max_workers=1)
        low = queue.submit(make_request(tenant="a", priority=-5))
        mid1 = queue.submit(make_request(tenant="b", priority=0))
        high = queue.submit(make_request(tenant="c", priority=10))
        mid2 = queue.submit(make_request(tenant="d", priority=0))
        order = [j.id for j in drain(queue)]
        assert order == [high.id, mid1.id, mid2.id, low.id]

    def test_sequential_ids(self):
        queue = JobQueue()
        ids = [queue.submit(make_request()).id for _ in range(3)]
        assert ids == ["j000001", "j000002", "j000003"]


class TestTenantQuotas:
    def test_two_tenants_three_jobs_each_concurrency_one(self):
        """The acceptance scenario: tenants alice and bob each submit 3
        jobs under ``tenant_concurrency=1`` — at no point do two jobs of
        one tenant run together, both tenants make progress, all 6
        finish."""
        queue = JobQueue(max_workers=2, tenant_concurrency=1)
        for _ in range(3):
            queue.submit(make_request(tenant="alice"))
            queue.submit(make_request(tenant="bob"))

        finished = 0
        running: "list[ServeJob]" = []
        while finished < 6:
            job = queue.next_runnable()
            if job is not None:
                queue.mark_running(job)
                running.append(job)
                alice = sum(1 for r in running if r.tenant == "alice")
                bob = sum(1 for r in running if r.tenant == "bob")
                assert alice <= 1 and bob <= 1
                continue
            assert running, "no runnable job and nothing running"
            queue.mark_finished(running.pop(0), ok=True)
            finished += 1

        totals = queue.totals()
        assert totals["served"] == 6 and totals["failed"] == 0
        assert queue.tenants["alice"].peak_running == 1
        assert queue.tenants["bob"].peak_running == 1
        # Both tenants actually overlapped (global cap 2 was used).
        assert queue.peak_depth >= 2

    def test_blocked_tenant_does_not_convoy_others(self):
        queue = JobQueue(max_workers=2, tenant_concurrency=1)
        first = queue.submit(make_request(tenant="alice", priority=10))
        queue.submit(make_request(tenant="alice", priority=10))
        other = queue.submit(make_request(tenant="bob", priority=-10))
        queue.mark_running(first)
        # alice's second job is quota-blocked; bob's low-priority job
        # must overtake it rather than wait behind the head of queue.
        assert queue.next_runnable() is other

    def test_tenant_queue_limit_rejects_with_count(self):
        queue = JobQueue(tenant_queue_limit=2)
        queue.submit(make_request(tenant="alice"))
        queue.submit(make_request(tenant="alice"))
        with pytest.raises(QuotaError) as info:
            queue.submit(make_request(tenant="alice"))
        assert info.value.scope == "tenant"
        assert queue.tenants["alice"].rejected == 1
        # Other tenants are unaffected.
        queue.submit(make_request(tenant="bob"))

    def test_global_depth_cap(self):
        queue = JobQueue(max_queue_depth=2, tenant_queue_limit=64)
        queue.submit(make_request(tenant="a"))
        queue.submit(make_request(tenant="b"))
        with pytest.raises(QuotaError) as info:
            queue.submit(make_request(tenant="c"))
        assert info.value.scope == "queue"
        assert queue.totals()["rejected"] == 1


class TestFaultExclusivity:
    def test_armed_job_waits_for_idle(self):
        queue = JobQueue(max_workers=4, tenant_concurrency=4)
        clean = queue.submit(make_request(tenant="a"))
        armed = queue.submit(make_request(tenant="b", faults="raise@job=1"))
        queue.mark_running(clean)
        # Nothing else may start while the armed job would share the
        # process with a running job...
        assert queue.next_runnable() is None or not queue.next_runnable().exclusive
        queue.mark_finished(clean, ok=True)
        # ...but once idle the armed job dispatches.
        assert queue.next_runnable() is armed

    def test_nothing_dispatches_while_armed_job_runs(self):
        queue = JobQueue(max_workers=4, tenant_concurrency=4)
        armed = queue.submit(make_request(tenant="a", faults="raise@job=1"))
        queue.submit(make_request(tenant="b"))
        queue.mark_running(armed)
        assert queue.next_runnable() is None
        queue.mark_finished(armed, ok=True)
        assert queue.next_runnable() is not None

    def test_clean_jobs_skip_blocked_armed_head(self):
        queue = JobQueue(max_workers=4, tenant_concurrency=4)
        running = queue.submit(make_request(tenant="a"))
        queue.mark_running(running)
        queue.submit(make_request(tenant="b", faults="raise@job=1", priority=10))
        clean = queue.submit(make_request(tenant="c"))
        # The armed job is first in queue order but cannot start; the
        # clean job behind it may.
        assert queue.next_runnable() is clean


class TestRetention:
    def test_finished_jobs_evicted_beyond_cap(self):
        queue = JobQueue(max_workers=1, keep_finished=2)
        ids = []
        for _ in range(4):
            job = queue.submit(make_request())
            queue.mark_running(job)
            queue.mark_finished(job, ok=True)
            ids.append(job.id)
        assert ids[0] not in queue.jobs and ids[1] not in queue.jobs
        assert ids[2] in queue.jobs and ids[3] in queue.jobs
        assert queue.jobs[ids[3]].state == DONE
        # Counters survive eviction.
        assert queue.totals()["served"] == 4

    @pytest.mark.parametrize("ok,state", [(True, DONE), (False, FAILED)])
    def test_finished_jobs_drop_their_network(self, ok, state):
        queue = JobQueue(max_workers=1)
        request = make_request()
        request.net = build_circuit("mux")
        net = weakref.ref(request.net)
        job = queue.submit(request)
        job.events.append({"event": "state", "state": "queued"})
        queue.mark_running(job)
        queue.mark_finished(job, ok=ok)
        gc.collect()
        assert net() is None
        # Snapshots and event replay of the kept job still work.
        snap = queue.jobs[job.id].snapshot(0.0)
        assert snap["state"] == state
        assert snap["request"]["source"] == "benchmark:mux"
        assert [e["state"] for e in job.events] == ["queued"]

    def test_validation(self):
        with pytest.raises(ValueError):
            JobQueue(max_workers=0)
        with pytest.raises(ValueError):
            JobQueue(tenant_concurrency=0)
