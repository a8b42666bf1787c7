"""Priority job queue with per-tenant quotas for the serve daemon.

The queue is deliberately a *synchronous* data structure — no asyncio,
no locks.  The daemon (:mod:`repro.serve.app`) mutates it only from the
event-loop thread, and the unit tests drive it directly, so admission,
ordering and quota policy are testable without sockets or timing.

Policy
------
* **Ordering**: strict priority (higher first), FIFO within a priority
  (the submit sequence number breaks ties) — deterministic for any
  submit order.
* **Per-tenant concurrency**: at most ``tenant_concurrency`` of a
  tenant's jobs run at once; further jobs *wait* in the queue (they are
  not rejected).  Eligible jobs of other tenants overtake a blocked
  head-of-queue job, so one tenant's burst cannot convoy the fleet.
* **Admission**: a tenant may hold at most ``tenant_queue_limit``
  *waiting* jobs, and the whole queue at most ``max_queue_depth``;
  beyond either the submit is rejected with a structured 429
  (:class:`QuotaError`) and counted in ``rejected``.
* **Fault exclusivity**: a job whose config arms a fault-injection
  plan must run *alone* — the plan is process-global state
  (:mod:`repro.resilience.faults`), so two armed jobs (or an armed and
  a clean one) sharing the process would cross-fire each other's
  injection points.  ``next_runnable`` therefore never dispatches an
  armed job while anything else runs, and nothing while an armed job
  runs.  Clean jobs run concurrently as usual.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.serve.protocol import PROTOCOL_SCHEMA, SubmitRequest

#: Job lifecycle states (terminal: ``done`` / ``failed``).
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"


class QuotaError(Exception):
    """An admission rejection (structured HTTP 429).

    ``scope`` is ``"tenant"`` (per-tenant waiting cap) or ``"queue"``
    (global depth cap).
    """

    def __init__(self, scope: str, message: str) -> None:
        self.scope = scope
        self.message = message
        super().__init__(message)


@dataclass
class ServeJob:
    """One submitted synthesis job and everything observable about it.

    Timestamps are monotonic-clock readings (``time.monotonic``), so
    durations are exact and no wall-clock value ever reaches a result
    payload; the HTTP layer reports them as offsets relative to the
    server's start.
    """

    id: str
    seq: int
    request: SubmitRequest
    state: str = QUEUED
    queued_m: float = 0.0
    started_m: float = 0.0
    finished_m: float = 0.0
    #: Per-pass telemetry rows (dicts) streamed in as passes complete.
    passes: List[Dict[str, object]] = field(default_factory=list)
    #: Event-stream rows (``/v1/jobs/<id>/events``), appended in order.
    events: List[Dict[str, object]] = field(default_factory=list)
    result: Optional[Dict[str, object]] = None
    error: Optional[Dict[str, object]] = None

    @property
    def tenant(self) -> str:
        return self.request.tenant

    @property
    def exclusive(self) -> bool:
        """Whether this job must run alone (fault plan armed)."""
        return self.request.config.faults is not None

    @property
    def terminal(self) -> bool:
        return self.state in (DONE, FAILED)

    def sort_key(self) -> "tuple[int, int]":
        """Queue order: higher priority first, then submit order."""
        return (-self.request.priority, self.seq)

    def snapshot(self, clock_origin: float) -> Dict[str, object]:
        """The job's JSON view (``GET /v1/jobs/<id>``); see
        :data:`repro.serve.protocol.JOB_SNAPSHOT_KEYS`."""

        def rel(t: float) -> Optional[float]:
            return round(t - clock_origin, 4) if t else None

        return {
            "schema": PROTOCOL_SCHEMA,
            "id": self.id,
            "state": self.state,
            "request": self.request.describe(),
            "queued_s": rel(self.queued_m),
            "started_s": rel(self.started_m),
            "finished_s": rel(self.finished_m),
            "passes": list(self.passes),
            "result": self.result,
            "error": self.error,
        }


@dataclass
class TenantStats:
    """Admission/served counters for one tenant (all monotonic except
    the two gauges ``running`` / ``waiting``)."""

    running: int = 0
    waiting: int = 0
    peak_running: int = 0
    submitted: int = 0
    served: int = 0
    failed: int = 0
    rejected: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "running": self.running,
            "waiting": self.waiting,
            "peak_running": self.peak_running,
            "submitted": self.submitted,
            "served": self.served,
            "failed": self.failed,
            "rejected": self.rejected,
        }


class JobQueue:
    """The daemon's admission, ordering and dispatch policy (see the
    module docstring).  Single-threaded by contract."""

    def __init__(
        self,
        max_workers: int = 2,
        tenant_concurrency: int = 1,
        tenant_queue_limit: int = 64,
        max_queue_depth: int = 256,
        keep_finished: int = 512,
    ) -> None:
        if max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        if tenant_concurrency < 1:
            raise ValueError("tenant_concurrency must be >= 1")
        if tenant_queue_limit < 1:
            raise ValueError("tenant_queue_limit must be >= 1")
        if max_queue_depth < 1:
            raise ValueError("max_queue_depth must be >= 1")
        self.max_workers = max_workers
        self.tenant_concurrency = tenant_concurrency
        self.tenant_queue_limit = tenant_queue_limit
        self.max_queue_depth = max_queue_depth
        self.keep_finished = keep_finished
        self._seq = itertools.count(1)
        self._waiting: List[ServeJob] = []
        self._running: Dict[str, ServeJob] = {}
        #: Every job by id — waiting, running, and the most recent
        #: ``keep_finished`` terminal ones (older terminal jobs are
        #: evicted so a long-lived daemon's memory stays bounded).
        self.jobs: Dict[str, ServeJob] = {}
        self._finished_order: List[str] = []
        self.tenants: Dict[str, TenantStats] = {}
        self.peak_depth = 0

    # ------------------------------------------------------------------
    # admission
    # ------------------------------------------------------------------
    def submit(self, request: SubmitRequest) -> ServeJob:
        """Admit a request (or raise :class:`QuotaError`) and return the
        queued :class:`ServeJob`."""
        tenant = self.tenants.setdefault(request.tenant, TenantStats())
        if len(self._waiting) >= self.max_queue_depth:
            tenant.rejected += 1
            raise QuotaError(
                "queue",
                f"queue is full ({self.max_queue_depth} waiting jobs); retry later",
            )
        if tenant.waiting >= self.tenant_queue_limit:
            tenant.rejected += 1
            raise QuotaError(
                "tenant",
                f"tenant {request.tenant!r} already has "
                f"{tenant.waiting} waiting job(s) (limit {self.tenant_queue_limit})",
            )
        seq = next(self._seq)
        job = ServeJob(
            id=f"j{seq:06d}", seq=seq, request=request, queued_m=time.monotonic()
        )
        self._waiting.append(job)
        self._waiting.sort(key=ServeJob.sort_key)
        self.jobs[job.id] = job
        tenant.waiting += 1
        tenant.submitted += 1
        self.peak_depth = max(self.peak_depth, len(self._waiting))
        return job

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    def next_runnable(self) -> Optional[ServeJob]:
        """The next job the daemon may start, or ``None``.

        Honors the global worker cap, per-tenant concurrency and fault
        exclusivity; does *not* change any state (call
        :meth:`mark_running` once the job is actually started).
        """
        if len(self._running) >= self.max_workers:
            return None
        if any(job.exclusive for job in self._running.values()):
            return None
        for job in self._waiting:
            if job.exclusive and self._running:
                continue
            tenant = self.tenants[job.tenant]
            if tenant.running >= self.tenant_concurrency:
                continue
            return job
        return None

    def mark_running(self, job: ServeJob) -> None:
        """Move a waiting job to the running set."""
        self._waiting.remove(job)
        self._running[job.id] = job
        job.state = RUNNING
        job.started_m = time.monotonic()
        tenant = self.tenants[job.tenant]
        tenant.waiting -= 1
        tenant.running += 1
        tenant.peak_running = max(tenant.peak_running, tenant.running)

    def mark_finished(self, job: ServeJob, ok: bool) -> None:
        """Retire a running job as ``done`` (``ok``) or ``failed``.

        This also drops the job's input network: ``run_flow`` grows it
        in place, so each kept job would hold tens to hundreds of KB
        that neither snapshots nor event replay read.
        """
        del self._running[job.id]
        job.request.net = None
        job.state = DONE if ok else FAILED
        job.finished_m = time.monotonic()
        tenant = self.tenants[job.tenant]
        tenant.running -= 1
        if ok:
            tenant.served += 1
        else:
            tenant.failed += 1
        self._finished_order.append(job.id)
        while len(self._finished_order) > self.keep_finished:
            evicted = self._finished_order.pop(0)
            self.jobs.pop(evicted, None)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def depth(self) -> int:
        """Waiting jobs (the ``/healthz`` queue-depth gauge)."""
        return len(self._waiting)

    @property
    def running(self) -> int:
        """Jobs currently executing."""
        return len(self._running)

    @property
    def idle(self) -> bool:
        """Nothing waiting, nothing running (drain completion test)."""
        return not self._waiting and not self._running

    def totals(self) -> Dict[str, int]:
        """Summed per-tenant counters plus the live gauges."""
        out = {
            "submitted": 0,
            "served": 0,
            "failed": 0,
            "rejected": 0,
        }
        for stats in self.tenants.values():
            for key in out:
                out[key] += getattr(stats, key)
        out["depth"] = self.depth
        out["running"] = self.running
        out["peak_depth"] = self.peak_depth
        return out


__all__ = [
    "DONE",
    "FAILED",
    "QUEUED",
    "RUNNING",
    "JobQueue",
    "QuotaError",
    "ServeJob",
    "TenantStats",
]
