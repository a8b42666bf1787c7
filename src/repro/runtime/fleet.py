"""Process-wide fleet scheduling of supernode jobs with singleflight dedup.

Before this module, every synthesis request owned its resources: a
private :class:`~repro.runtime.pool.JobRunner` and a private view of the
emission cache.  Concurrent requests — the serve daemon's whole reason
to exist — therefore competed blindly: N requests × M workers
oversubscribed the machine, and two requests synthesizing the same
supernode at the same time both paid for it.

The :class:`FleetScheduler` (one per process, :func:`get_fleet`) fixes
both:

* **One worker fleet.**  All clean requests submit their wavefront
  batches to one shared :class:`JobRunner` sized to the CPUs the
  process may run on.  Each request's batch is still LPT-chunked
  (:func:`~repro.runtime.pool.chunk_jobs`), but capped to the
  request's *fair share*:
  ``workers * weight / total_active_weight`` (floored, min 1), so a
  giant circuit cannot starve a small one.  Chunking never changes
  results — jobs are pure functions of their payloads — so any
  request's output is byte-identical to its clean serial run regardless
  of what else is in flight.
* **Singleflight deduplication.**  A request about to compute a job
  registers an in-flight *flight* under the job's content signature.  A
  second request hitting the same signature while the first is still
  computing becomes a *follower*: it blocks on the flight and splices
  the leader's record instead of recomputing (``dedup_hits``).  A
  second supernode of the same signature in one request's wave follows
  its own request's flight the same way, so each signature is computed
  (and claimed) once per wave.  Records are pure functions of their
  signature, and followers re-verify what they are handed, so dedup is
  invisible in the output.  A failed flight — the leader crashed,
  breached its budget, or ran under fault injection (whose results are
  never shared) — releases followers to retry *independently*
  (``dedup_retries``); a poisoned or degraded result is never handed to
  a waiter.
* **One store per cache root.**  Stores
  (:class:`~repro.runtime.tiers.TieredEmissionCache`) are registered
  per resolved ``cache_dir``, so every request sharing a root shares
  the in-process memory tier.

Deadlock freedom: within one wave a request computes and publishes
*all* flights it leads before waiting on any foreign flight, and
leader computation never blocks on other flights — so every registered
flight is published in finite time and waits cannot cycle.  A
:data:`FLIGHT_WAIT_TIMEOUT_S` backstop turns a leader that died without
publishing (killed thread, lost process) into an independent retry
rather than a hang.

Fault injection and the fleet: a fault-armed request
(``config.faults``) keeps a *private* runner — its worker forks must
inherit the installed plan, and its crash/stall schedule is addressed
by per-request job sequence numbers — and it neither follows foreign
flights nor shares its own results.  It still *registers* flights, so
clean followers of a crashing leader are released (and retry) instead
of hanging.
"""

from __future__ import annotations

import os
import socket
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from repro.core.config import DDBDDConfig
from repro.runtime.emission import EmissionRecord, verify_record
from repro.runtime.pool import JobOutcome, JobRunner, SupernodeJob
from repro.runtime.stats import FailureReport, RuntimeStats
from repro.runtime.tiers import (
    TIER_MEMORY,
    TIER_SQLITE,
    CacheTelemetry,
    TieredEmissionCache,
)
from repro.utils import usable_cpus

#: How long a follower waits on a flight before giving up and
#: recomputing independently.  Generously above any single supernode DP
#: (Table I circuits complete in seconds); only a leader that died
#: without publishing ever runs the clock out.
FLIGHT_WAIT_TIMEOUT_S = 300.0

#: Cross-daemon claim-wait cadence: a waiter polls the shared tier-2
#: store every :data:`CLAIM_POLL_S` seconds and takes over (reaps) a
#: lease it has watched go silent for :data:`CLAIM_REAP_TICKS` polls.
#: The *decision* to reap is tick-counted, never wall-clocked, so the
#: takeover trajectory is deterministic per observed lease history; the
#: sleep only paces the polling.  Module-level so tests can shrink the
#: budget.
CLAIM_POLL_S = 0.02
CLAIM_REAP_TICKS = 250

@dataclass(frozen=True)
class WaveItem:
    """One supernode of one wavefront, ready for the fleet.

    ``key`` is the job's content signature, or ``None`` when the request
    runs cache-off (no signature → no cache lookup, no dedup).
    """

    name: str
    job: SupernodeJob
    key: Optional[str]


class _Flight:
    """One in-flight computation of a signature (singleflight slot)."""

    __slots__ = ("owner", "event", "outcome", "published", "followers")

    def __init__(self, owner: "FleetRequest") -> None:
        self.owner = owner
        self.event = threading.Event()
        #: The shareable outcome, or ``None`` (failed / unshareable).
        self.outcome: Optional[JobOutcome] = None
        self.published = False
        #: How many requests are blocked on this flight (telemetry/tests).
        self.followers = 0


@dataclass
class FleetRequest:
    """One registered synthesis request's view of the fleet.

    Created by :meth:`FleetScheduler.register`; carries the request's
    config, stats sink, cache store/telemetry, optional private runner
    (fault-armed requests), and the request's pool-recovery
    :class:`~repro.runtime.stats.FailureReport` rows.
    """

    config: DDBDDConfig
    stats: RuntimeStats
    store: Optional[TieredEmissionCache] = None
    tele: Optional[CacheTelemetry] = None
    runner: Optional[JobRunner] = None
    events: List[FailureReport] = field(default_factory=list)

    @property
    def weight(self) -> int:
        return self.config.fleet_weight

    @property
    def writable(self) -> bool:
        return self.store is not None and self.config.cache == "readwrite"

    @property
    def follows(self) -> bool:
        """Whether this request may splice other requests' results.
        Fault-armed requests never follow: their job-sequence fault
        addressing assumes they execute their own jobs."""
        return self.config.faults is None

    @property
    def shares(self) -> bool:
        """Whether this request's results may be handed to followers.
        Fault-armed results are never shared — an injected fault must
        not leak beyond the request that asked for it."""
        return self.config.faults is None

    # ------------------------------------------------------------------
    def note_claim(self, event: str, n: int = 1) -> None:
        """Bump one cross-daemon claim counter on the run's stats."""
        self.stats.claims[event] = self.stats.claims.get(event, 0) + n

    def verify(self, record: EmissionRecord, job: SupernodeJob) -> bool:
        return verify_record(record, job.dag, job.polarities, self.config.k)


class FleetScheduler:
    """Process-wide scheduler: shared workers, stores and flights."""

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._flights: Dict[str, _Flight] = {}
        self._stores: Dict[str, TieredEmissionCache] = {}
        self._active: List[FleetRequest] = []
        self._runner: Optional[JobRunner] = None
        # Process-lifetime totals (the serve daemon's /metrics view).
        self.dedup_hits = 0
        self.dedup_retries = 0
        self.jobs_computed = 0

    # ------------------------------------------------------------------
    # Registration and shared resources
    # ------------------------------------------------------------------
    def store_for(self, config: DDBDDConfig) -> Optional[TieredEmissionCache]:
        """The cache store this config should use (``None`` = cache off),
        shared per resolved cache root."""
        if config.cache == "off":
            return None
        root = os.path.abspath(config.cache_dir)
        with self._lock:
            store = self._stores.get(root)
            if store is None:
                store = TieredEmissionCache(config.cache_dir)
                self._stores[root] = store
        return store

    @contextmanager
    def register(
        self,
        config: DDBDDConfig,
        stats: RuntimeStats,
        store: Optional[TieredEmissionCache] = None,
        tele: Optional[CacheTelemetry] = None,
        runner: Optional[JobRunner] = None,
    ) -> Iterator[FleetRequest]:
        """Admit one request for the duration of its phase A.

        The request's ``fleet_weight`` joins the fair-share denominator
        on entry and leaves it on exit; any flight the request still
        owns on exit (it died mid-wave) is published as failed so
        followers retry instead of hanging.
        """
        req = FleetRequest(
            config=config, stats=stats, store=store, tele=tele, runner=runner
        )
        with self._lock:
            self._active.append(req)
        try:
            yield req
        finally:
            with self._lock:
                self._active.remove(req)
            self._release_owned(req)

    def _release_owned(self, req: FleetRequest) -> None:
        """Fail-publish every unpublished flight ``req`` still owns."""
        with self._lock:
            for key, flight in list(self._flights.items()):
                if flight.owner is req:
                    self._publish(key, flight, None)

    def _shared_runner(self) -> JobRunner:
        with self._lock:
            if self._runner is None:
                self._runner = JobRunner(usable_cpus())
            return self._runner

    def allowance(self, req: FleetRequest) -> int:
        """Fair-share worker allowance of one request right now:
        ``min(effective_jobs, max(1, workers * weight / total_weight))``."""
        workers = self._shared_runner().workers
        with self._lock:
            # Integer admission weights — exact in any order.
            total = sum(r.weight for r in self._active)  # repolint: disable=DD503
        total = total or req.weight
        share = max(1, (workers * req.weight) // total)
        return min(req.config.effective_jobs, share)

    # ------------------------------------------------------------------
    # Wave execution
    # ------------------------------------------------------------------
    def run_wave(
        self, req: FleetRequest, items: List[WaveItem]
    ) -> Dict[str, JobOutcome]:
        """Resolve one wavefront: cache, singleflight, then compute.

        Returns one :class:`JobOutcome` per item name — a record (from
        any tier, a followed flight, or a fresh computation) or a clean
        budget breach for the engine's degradation ladder.  Publishes
        every flight this request leads *before* waiting on any foreign
        flight (the deadlock-freedom invariant).
        """
        results: Dict[str, JobOutcome] = {}
        leaders: List[Tuple[WaveItem, Optional[_Flight]]] = []
        followed: List[Tuple[WaveItem, _Flight]] = []

        hits = self._try_cache(req, items)
        for item in items:
            record = hits.get(item.name)
            if record is not None:
                results[item.name] = JobOutcome(record)
                continue
            flight = None
            follow = None
            if item.key is not None:
                with self._lock:
                    existing = self._flights.get(item.key)
                    if existing is None:
                        flight = _Flight(req)
                        self._flights[item.key] = flight
                    elif req.follows:
                        # Another request's flight, or this wave's own
                        # earlier copy of the signature: either way the
                        # key is computed (and claimed) once.
                        existing.followers += 1
                        follow = existing
                    # else: a fault-armed request never follows — it
                    # computes solo without registering a second flight.
            if follow is not None:
                followed.append((item, follow))
            else:
                leaders.append((item, flight))

        # Cross-daemon singleflight: one transaction claims every key
        # this request is about to compute.  Keys another process holds
        # a live lease on move to the claim-wait path — this daemon will
        # splice the foreign daemon's record out of the shared tier-2
        # store instead of recomputing it.
        leases: Dict[str, int] = {}
        claim_waits: List[Tuple[WaveItem, Optional[_Flight], int]] = []
        if leaders and self._claims_enabled(req):
            assert req.store is not None
            keyed = [item.key for item, _ in leaders if item.key is not None]
            grants = (
                req.store.disk.claim_many(keyed, self._claim_owner())
                if keyed
                else {}
            )
            # Late-hit recheck: a foreign daemon may have computed and
            # released a key between our tier walk (which missed) and
            # the claim (which won).  One more tier-2 read, over every
            # key won, keeps duplicate submits compute-once even across
            # that window.
            late, corrupt = req.store.disk.get_many(
                [key for key in keyed if grants[key][0] == "won"]
            )
            if req.tele is not None:
                req.tele.note(TIER_SQLITE, "corruptions", corrupt)
            remaining: List[Tuple[WaveItem, Optional[_Flight]]] = []
            for item, flight in leaders:
                if item.key is None:
                    remaining.append((item, flight))
                    continue
                status, generation, _holder = grants.get(
                    item.key, ("error", 0, "")
                )
                if status == "won":
                    record = late.get(item.key)
                    if record is not None and req.verify(record, item.job):
                        req.store.disk.release_claims([(item.key, generation)])
                        evicted = req.store.memory.put(item.key, record)
                        if req.tele is not None:
                            req.tele.note(TIER_SQLITE, "hits")
                            req.tele.note(TIER_MEMORY, "promotions")
                            req.tele.note(TIER_MEMORY, "evictions", evicted)
                        req.note_claim("hits")
                        outcome = JobOutcome(record)
                        results[item.name] = outcome
                        if flight is not None:
                            self._publish(
                                item.key, flight, outcome if req.shares else None
                            )
                        continue
                    if record is not None:
                        req.store.invalidate(item.key)
                        req.stats.cache_rejected += 1
                    req.note_claim("won")
                    leases[item.key] = generation
                    remaining.append((item, flight))
                elif status == "held":
                    req.note_claim("held")
                    claim_waits.append((item, flight, generation))
                else:
                    # sqlite degraded: claims are an optimization, so
                    # compute uncoordinated rather than fail or wait.
                    remaining.append((item, flight))
            leaders = remaining

        try:
            for (item, _flight), outcome in zip(leaders, self._compute(req, leaders)):
                results[item.name] = outcome
        finally:
            # Leases release *after* the records are durably in tier 2
            # (puts happen inside _compute) — and also on any escape, so
            # a dying daemon frees its waiters promptly.
            if leases:
                assert req.store is not None
                req.store.disk.release_claims(list(leases.items()))
                req.note_claim("released", len(leases))

        for item, flight, generation in claim_waits:
            results[item.name] = self._await_claim(req, item, flight, generation)

        for item, flight in followed:
            results[item.name] = self._await_flight(req, item, flight)
        return results

    # ------------------------------------------------------------------
    def _claims_enabled(self, req: FleetRequest) -> bool:
        """Cross-daemon claims apply to shareable read-write runs: the
        tier-2 store is the coordination medium, so read-only and
        cache-off runs are out, as are fault-armed runs (whose results
        are never shareable)."""
        return req.writable and req.shares and req.config.cache_claims

    @staticmethod
    def _claim_owner() -> str:
        """Lease owner id: unique per daemon process sharing a root."""
        return f"{socket.gethostname()}:{os.getpid()}"

    def _await_claim(
        self,
        req: FleetRequest,
        item: WaveItem,
        flight: Optional[_Flight],
        generation: int,
    ) -> JobOutcome:
        """Cross-daemon follower: poll the shared tier-2 store while a
        foreign daemon computes our key.

        Deterministic ladder per observed lease history: the record
        appearing → verified splice (``claims["hits"]``); the lease
        vanishing without a record → re-claim and compute; the lease
        going silent for :data:`CLAIM_REAP_TICKS` polls → generation-
        guarded takeover (``claims["reaped"]``) and compute.  A lease
        that changes generation restarts the tick budget — someone else
        reaped it first and is computing afresh.  Any in-process flight
        this request registered for the key publishes on exit either
        way, so local followers are never stranded.
        """
        assert req.store is not None
        assert item.key is not None
        store = req.store
        owner = self._claim_owner()
        lease: Optional[int] = None
        outcome: Optional[JobOutcome] = None
        try:
            with req.stats.stage("claim"):
                ticks = 0
                while True:
                    record, corrupt = store.disk.get(item.key)
                    if req.tele is not None:
                        req.tele.note(TIER_SQLITE, "corruptions", corrupt)
                    if record is not None:
                        # A record that crosses a process boundary is
                        # re-verified regardless of verify_level, like
                        # in-process dedup splices.
                        if req.verify(record, item.job):
                            evicted = store.memory.put(item.key, record)
                            if req.tele is not None:
                                req.tele.note(TIER_SQLITE, "hits")
                                req.tele.note(TIER_MEMORY, "promotions")
                                req.tele.note(TIER_MEMORY, "evictions", evicted)
                            req.note_claim("hits")
                            outcome = JobOutcome(record)
                        else:
                            store.invalidate(item.key)
                            req.stats.cache_rejected += 1
                        break
                    state = store.disk.claim_state(item.key)
                    if state is None:
                        # Lease gone, no record: the holder failed or
                        # released empty-handed.  Take the key ourselves.
                        status, gen2, _holder = store.disk.claim_many(
                            [item.key], owner
                        )[item.key]
                        if status == "won":
                            lease = gen2
                            req.note_claim("won")
                            break
                        if status != "held":
                            break  # sqlite degraded: compute uncoordinated
                        generation, ticks = gen2, 0
                    else:
                        _holder, gen2, _waits = state
                        if gen2 != generation:
                            generation, ticks = gen2, 0
                        ticks += 1
                        store.disk.bump_claim_wait(item.key, generation)
                        if ticks >= CLAIM_REAP_TICKS:
                            status, gen3, _holder = store.disk.reap_claim(
                                item.key, generation, owner
                            )
                            if status == "won":
                                lease = gen3
                                req.note_claim("reaped")
                                break
                            if status == "held":
                                generation, ticks = gen3, 0
                            elif status == "gone":
                                ticks = 0
                            else:
                                break  # sqlite degraded
                    time.sleep(CLAIM_POLL_S)
            if outcome is None:
                (outcome,) = self._compute(req, [(item, None)])
            return outcome
        finally:
            if lease is not None:
                store.disk.release_claims([(item.key, lease)])
                req.note_claim("released")
            if flight is not None:
                shareable = (
                    outcome
                    if (outcome is not None and outcome.shareable and req.shares)
                    else None
                )
                self._publish(item.key, flight, shareable)

    # ------------------------------------------------------------------
    def _try_cache(
        self, req: FleetRequest, items: List[WaveItem]
    ) -> Dict[str, EmissionRecord]:
        """Tier walk + hit re-verification for one wave; returns the hits
        by item name and updates the run's counters.

        The wave's distinct keys go through one batched walk
        (:meth:`~repro.runtime.tiers.TieredEmissionCache.get_many`), and
        at ``verify_level >= 1`` each key's hit is verified once.  A
        key's later copies in the wave share that verdict: a rejected
        key is invalidated once and every copy misses.  Copies of a key
        carry the same job content (the key is its signature), so the
        verdict holds for each of them.
        """
        hits: Dict[str, EmissionRecord] = {}
        jobs = {item.key: item.job for item in items if item.key is not None}
        if req.store is None or not jobs:
            return hits
        with req.stats.stage("cache"):
            found = req.store.get_many(list(jobs), req.tele)
            if req.config.verify_level >= 1:
                for key, job in jobs.items():
                    record = found.get(key)
                    if record is not None and not req.verify(record, job):
                        req.store.invalidate(key)
                        req.stats.cache_rejected += 1
                        del found[key]
        for item in items:
            if item.key is None:
                continue
            record = found.get(item.key)
            if record is not None:
                req.stats.cache_hits += 1
                hits[item.name] = record
            else:
                req.stats.cache_misses += 1
        return hits

    def _compute(
        self,
        req: FleetRequest,
        pairs: List[Tuple[WaveItem, Optional[_Flight]]],
    ) -> List[JobOutcome]:
        """The one compute step: run ``pairs``' jobs through a
        :class:`JobRunner`, store the shareable records in one batch,
        count every outcome, and publish each flight given; outcomes in
        ``pairs`` order.

        A fault-armed request runs on its private runner: exclusive to
        it, so fair-share admission does not apply, and its unclamped
        worker count stands so injected worker faults land in real
        workers.  Every other request runs on the shared runner, capped
        at its fair-share allowance.  The runner keeps a batch it cannot
        split (one job, or an allowance below two workers) in-process;
        every other batch ships, however small: a DP costs about 0.5 ms
        per canonical DAG node, so even a few hundred nodes outweigh the
        pool's fork/pickle round trip.

        On *any* escape (a worker-pool error that exhausted retries, an
        injected raise, a KeyboardInterrupt) the flights are
        fail-published first — followers must never inherit this
        request's death.
        """
        if not pairs:
            return []
        batch = [item.job for item, _ in pairs]
        try:
            with req.stats.stage("dp"):
                if req.runner is not None:
                    outcomes = req.runner.run_batch_outcomes(batch, events=req.events)
                else:
                    outcomes = self._shared_runner().run_batch_outcomes(
                        batch, max_chunks=self.allowance(req), events=req.events
                    )
        except BaseException:
            for item, flight in pairs:
                if flight is not None:
                    self._publish(item.key, flight, None)
            raise
        # One tier-2 transaction stores the batch before any flight
        # publishes (and before run_wave releases the leases).
        shared = [
            (item.key, outcome.record)
            for (item, _flight), outcome in zip(pairs, outcomes)
            if outcome.shareable and req.writable and item.key is not None
        ]
        if shared:
            assert req.store is not None
            with req.stats.stage("cache"):
                req.stats.cache_puts += req.store.put_many(shared, req.tele)
        for (item, flight), outcome in zip(pairs, outcomes):
            with self._lock:
                self.jobs_computed += 1
            # Breach outcomes go back to the engine's degradation ladder
            # un-published as results but the flight must still release:
            # a ladder output is request-local and never shareable, and
            # neither is a record whose DP-manager audit failed.
            if flight is not None:
                shareable = outcome if (outcome.shareable and req.shares) else None
                self._publish(item.key, flight, shareable)
        return outcomes

    def _publish(
        self, key: Optional[str], flight: _Flight, outcome: Optional[JobOutcome]
    ) -> None:
        """Resolve a flight (releasing its followers) and retire it."""
        with self._lock:
            if key is not None and self._flights.get(key) is flight:
                del self._flights[key]
        flight.outcome = outcome
        flight.published = True
        flight.event.set()

    def _await_flight(
        self, req: FleetRequest, item: WaveItem, flight: _Flight
    ) -> JobOutcome:
        """Follower path: block on the leader, splice or retry."""
        with req.stats.stage("dedup"):
            released = flight.event.wait(timeout=FLIGHT_WAIT_TIMEOUT_S)
        outcome = flight.outcome if released else None
        if outcome is not None and outcome.ok:
            record = outcome.record
            assert record is not None
            # Defense in depth: a shared record crosses a request
            # boundary, so it is re-verified like a cache hit would be —
            # regardless of verify_level.
            if req.verify(record, item.job):
                req.stats.dedup_hits += 1
                with self._lock:
                    self.dedup_hits += 1
                return JobOutcome(record)
        req.stats.dedup_retries += 1
        with self._lock:
            self.dedup_retries += 1
        (outcome,) = self._compute(req, [(item, None)])
        return outcome

    # ------------------------------------------------------------------
    # Introspection / lifecycle
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, int]:
        """Process-lifetime fleet counters (for ``/metrics``)."""
        with self._lock:
            return {
                "dedup_hits": self.dedup_hits,
                "dedup_retries": self.dedup_retries,
                "jobs_computed": self.jobs_computed,
                "flights_in_flight": len(self._flights),
                "requests_active": len(self._active),
                "stores": len(self._stores),
            }

    def close(self) -> None:
        """Shut the shared runner down and drop shared state
        (flights are fail-published so nothing can hang)."""
        with self._lock:
            runner, self._runner = self._runner, None
            for key, flight in list(self._flights.items()):
                self._publish(key, flight, None)
            self._stores.clear()
        if runner is not None:
            runner.close()


# ----------------------------------------------------------------------
# Process-wide singleton
# ----------------------------------------------------------------------
_FLEET: Optional[FleetScheduler] = None
_FLEET_LOCK = threading.Lock()


def get_fleet() -> FleetScheduler:
    """The process-wide fleet (created on first use)."""
    global _FLEET
    with _FLEET_LOCK:
        if _FLEET is None:
            _FLEET = FleetScheduler()
        return _FLEET


def reset_fleet() -> None:
    """Tear the process-wide fleet down (tests; idempotent).

    Drops shared stores — and with them the in-process memory tier — so
    a test's warm-run assertions start from a cold tier 1.
    """
    global _FLEET
    with _FLEET_LOCK:
        fleet, _FLEET = _FLEET, None
    if fleet is not None:
        fleet.close()


__all__ = [
    "CLAIM_POLL_S",
    "CLAIM_REAP_TICKS",
    "FLIGHT_WAIT_TIMEOUT_S",
    "FleetRequest",
    "FleetScheduler",
    "WaveItem",
    "get_fleet",
    "reset_fleet",
]
