"""Process-pool execution of supernode dynamic programs.

A :class:`SupernodeJob` is a self-contained, picklable description of
one supernode DP instance: the canonical BDD DAG, the per-canonical-
variable arrival/polarity profiles and the DP-relevant config knobs.
:func:`run_supernode_job_guarded` — the entry point of every supernode
DP, in a worker or in-process — rebuilds a private
:class:`~repro.bdd.manager.BDDManager` from the DAG, runs the
:class:`~repro.core.dp.BDDSynthesizer` against placeholder leaf signals
``v0..v{n-1}``, and exports the resulting cells as an
:class:`~repro.runtime.emission.EmissionRecord`.  A job made at
``verify_level`` 2 also audits the DP's private manager
(:func:`~repro.analysis.bddcheck.check_bdd_manager`) and returns the
diagnostics on its :class:`JobOutcome`.

Determinism: the canonical rebuild preserves the relative support order
and the reordering/DP code is purely structural, so a record is a pure
function of its job, whichever process ran it
(tests/runtime/test_determinism.py holds this line).

:class:`JobRunner` hides the execution strategy: in-process for
``jobs == 1`` (or single-job batches, where process round-trips cannot
win), a lazily created ``ProcessPoolExecutor`` otherwise.  The ``fork``
start method is preferred — workers then inherit the imported package
without re-importing, and no state beyond the job payload is shared.

Two defenses keep IPC overhead from wiping out the parallel win:

* the requested job count is clamped to the CPUs this process may run
  on (:func:`~repro.utils.usable_cpus`) — the DP is
  CPU-bound pure Python, so oversubscribing cores only adds pickle and
  context-switch cost (and a one-core host degrades to plain inline
  execution, making ``jobs=N`` cost the same as ``jobs=1``).  The clamp
  is lifted while a fault plan is active, so worker-death recovery is
  exercisable even on a one-core host;
* a batch is split into at most one *chunk per worker* (longest-
  processing-time-first over canonical DAG sizes) and each chunk ships
  as a single pool task, so a 30-supernode wavefront costs 4 round
  trips on 4 workers, not 30.

Chunking never changes results: jobs are pure functions of their
payload, and the scatter/gather preserves batch order.

Resilience (PR 5): :func:`run_supernode_job_guarded` wraps the job in
its :class:`~repro.resilience.budget.Budget` and the active
:class:`~repro.resilience.faults.FaultPlan`'s injection points, turning
a breach into a clean :class:`JobOutcome` instead of a traceback.
:meth:`JobRunner.run_batch_outcomes` survives worker death
(``BrokenProcessPool`` or any executor failure): the pool is respawned
and failed chunks are retried with bounded exponential backoff, falling
back to in-process serial execution after ``max_retries`` — results
stay cell-for-cell identical to a clean run, with each recovery reported
as a :class:`~repro.runtime.stats.FailureReport` row.
"""

from __future__ import annotations

import multiprocessing
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.analysis.bddcheck import check_bdd_manager
from repro.analysis.diagnostics import Diagnostic, errors_of
from repro.core.config import DDBDDConfig
from repro.core.dp import BDDSynthesizer
from repro.network.netlist import BooleanNetwork
from repro.resilience import faults as fault_mod
from repro.resilience.budget import Budget, BudgetExceeded, BudgetMeter
from repro.runtime.emission import EmissionRecord, export_emission
from repro.runtime.signature import CanonicalDAG, dag_size, rebuild_dag, signature
from repro.runtime.stats import FailureReport
from repro.utils import usable_cpus


@dataclass(frozen=True)
class SupernodeJob:
    """One supernode DP instance, decoupled from the owning network.

    ``seq`` / ``deadline_s`` / ``node_budget`` are *execution* metadata
    — the deterministic 1-based job number (fault-plan addressing) and
    the per-job budget — and deliberately not part of
    :meth:`signature`: they do not change what the DP computes, only
    whether it is allowed to finish.  Neither is ``audit_manager``
    (``verify_level >= 2``: verify the emitted cone, then audit the DP's
    private manager), which only checks the computation.
    """

    name: str
    dag: CanonicalDAG
    arrivals: Tuple[int, ...]
    polarities: Tuple[bool, ...]
    k: int
    thresh: int
    use_special_decompositions: bool
    reorder_effort: str
    timing_aware_reorder: bool
    seq: int = 0
    deadline_s: Optional[float] = None
    node_budget: Optional[int] = None
    audit_manager: bool = False

    @staticmethod
    def from_config(
        name: str,
        dag: CanonicalDAG,
        arrivals: Sequence[int],
        polarities: Sequence[bool],
        config: DDBDDConfig,
        seq: int = 0,
    ) -> "SupernodeJob":
        return SupernodeJob(
            name=name,
            dag=dag,
            arrivals=tuple(arrivals),
            polarities=tuple(polarities),
            k=config.k,
            thresh=config.thresh,
            use_special_decompositions=config.use_special_decompositions,
            reorder_effort=config.reorder_effort,
            timing_aware_reorder=config.timing_aware_reorder,
            seq=seq,
            deadline_s=config.job_deadline_s,
            node_budget=config.job_node_budget,
            audit_manager=config.verify_emission,
        )

    def signature(self) -> str:
        """Content-address of this job (see :mod:`repro.runtime.signature`)."""
        return signature(
            self.dag,
            self.arrivals,
            self.polarities,
            self.k,
            self.thresh,
            self.use_special_decompositions,
            self.reorder_effort,
            self.timing_aware_reorder,
        )

    @property
    def budget(self) -> Budget:
        """This job's execution budget (possibly unbounded)."""
        return Budget(deadline_s=self.deadline_s, max_nodes=self.node_budget)


@dataclass(frozen=True)
class JobOutcome:
    """Result of one guarded job execution: a record, or a clean breach.

    ``breach_reason`` is empty on success, else ``"deadline"`` or
    ``"nodes"`` with the budget spent at the breach — everything the
    degradation ladder needs to resynthesize the supernode.
    ``diagnostics`` holds the DP-manager audit of an
    :attr:`SupernodeJob.audit_manager` job.
    """

    record: Optional[EmissionRecord]
    breach_reason: str = ""
    spent_s: float = 0.0
    spent_nodes: int = 0
    diagnostics: Tuple[Diagnostic, ...] = ()

    @property
    def ok(self) -> bool:
        return self.record is not None

    @property
    def shareable(self) -> bool:
        """A record other requests and the cache may reuse: present, and
        its DP-manager audit (if any) clean."""
        return self.record is not None and not errors_of(self.diagnostics)


def _execute_job(
    job: SupernodeJob, meter: Optional[BudgetMeter]
) -> Tuple[EmissionRecord, Tuple[Diagnostic, ...]]:
    """Run the DP for one job (optionally metered) and export the
    emission, plus the DP-manager audit when the job asks for one.
    Must touch nothing but the job payload."""
    mgr, func = rebuild_dag(job.dag)
    n = job.dag.num_vars
    config = DDBDDConfig(
        k=job.k,
        thresh=job.thresh,
        use_special_decompositions=job.use_special_decompositions,
        reorder_effort=job.reorder_effort,
        timing_aware_reorder=job.timing_aware_reorder,
        verify_level=2 if job.audit_manager else 0,
        jobs=1,
        cache="off",
        faults=None,
    )
    input_delays = {i: job.arrivals[i] for i in range(n)}
    scratch = BooleanNetwork(f"{job.name}_scratch")
    leaf_signals = {}
    leaf_ref = {}
    for i in range(n):
        pi = f"v{i}"
        scratch.add_pi(pi)
        leaf_signals[i] = (pi, job.polarities[i], job.arrivals[i])
        leaf_ref[pi] = pi
    synth = BDDSynthesizer(mgr, func, input_delays, config, meter=meter)
    result = synth.emit(scratch, leaf_signals, prefix="sn")
    record = export_emission(
        scratch,
        created=list(scratch.nodes),
        leaf_ref=leaf_ref,
        out=(result.signal, result.negated, result.depth),
        states_visited=result.states_visited,
        bdd_size=result.bdd_size,
        num_inputs=result.num_inputs,
    )
    if not job.audit_manager:
        return record, ()
    return record, tuple(check_bdd_manager(synth.mgr, roots=[synth.func]))


def run_supernode_job(job: SupernodeJob) -> EmissionRecord:
    """Run the DP and export the emission with no budget and no fault
    injection: the reference record the guarded path must reproduce.
    Touches nothing but the job payload.
    """
    return _execute_job(job, None)[0]


def run_supernode_job_guarded(job: SupernodeJob) -> JobOutcome:
    """Guarded worker entry point: budget-metered and fault-injected.

    The meter starts *before* the job-site faults fire, so an injected
    stall burns the job's real deadline exactly like an organic hang
    would.  A budget breach returns a clean breach outcome; injected
    crashes/raises escape to the executor (that is their job).
    """
    forced = fault_mod.forced_blowup(job.seq)
    budget = job.budget
    meter: Optional[BudgetMeter] = None
    if forced or budget.bounded:
        meter = budget.meter(forced_breach=forced)
    fault_mod.fire_job_faults(job.seq)
    try:
        record, audit = _execute_job(job, meter)
    except BudgetExceeded as exc:
        return JobOutcome(None, exc.reason, exc.spent_s, exc.spent_nodes)
    return JobOutcome(record, diagnostics=audit)


def run_supernode_jobs_guarded(jobs: Sequence[SupernodeJob]) -> List[JobOutcome]:
    """Guarded chunk entry point (one worker round trip per chunk)."""
    return [run_supernode_job_guarded(job) for job in jobs]


def chunk_jobs(
    batch: Sequence[SupernodeJob], chunks: int
) -> List[List[int]]:
    """Partition ``batch`` indices into ≤ ``chunks`` groups, balanced by
    canonical-DAG size (greedy LPT: biggest job onto the lightest
    chunk).  Deterministic — ties break on batch position."""
    sizes = [dag_size(job.dag) for job in batch]
    order = sorted(range(len(batch)), key=lambda i: (-sizes[i], i))
    n = min(chunks, len(batch))
    groups: List[List[int]] = [[] for _ in range(n)]
    loads = [0] * n
    for i in order:
        lightest = loads.index(min(loads))
        groups[lightest].append(i)
        loads[lightest] += sizes[i]
    return [g for g in groups if g]


class JobRunner:
    """Runs job batches serially or on a fault-tolerant process pool."""

    def __init__(
        self,
        jobs: int,
        max_retries: int = 2,
        backoff_s: float = 0.05,
        clamp: bool = True,
    ) -> None:
        if jobs < 1:
            raise ValueError("JobRunner needs at least one worker")
        self.jobs = jobs
        # CPU-bound pure-Python work: more workers than cores is pure
        # overhead, so the pool never grows past the machine — unless
        # the caller lifts the clamp (fault-injection runs must exercise
        # real worker processes even on a one-core host).
        self.workers = min(jobs, usable_cpus()) if clamp else jobs
        self.max_retries = max_retries
        self.backoff_s = backoff_s
        self._executor: Optional[ProcessPoolExecutor] = None
        # The fleet shares one runner across concurrent request threads;
        # pool creation/teardown must not race.
        self._pool_lock = threading.Lock()

    def run_batch_outcomes(
        self,
        batch: Sequence[SupernodeJob],
        max_chunks: Optional[int] = None,
        events: Optional[List[FailureReport]] = None,
    ) -> List[JobOutcome]:
        """Execute one wavefront's jobs; outcomes in batch order.

        A batch that cannot be split — one worker, one job, or a cap
        below two chunks — runs in-process and never starts an executor.
        Survives worker death: failed chunks are retried on a respawned
        pool with bounded exponential backoff, then run in-process once
        ``max_retries`` is exhausted.

        ``max_chunks`` caps how many pool tasks this batch may occupy at
        once — the fleet's fair-share lever: a request's allowance, not
        the whole pool, bounds its footprint.  ``events`` receives one
        ``kind="pool"`` :class:`FailureReport` row per recovery, with
        ``rung`` ``"respawn"`` (pool reset, chunks retried) or
        ``"serial"`` (retries exhausted, chunks ran in-process).
        """
        chunk_cap = self.workers if max_chunks is None else min(self.workers, max_chunks)
        indices = list(range(len(batch)))
        if self.workers == 1 or len(batch) <= 1 or chunk_cap <= 1:
            return self._run_inline(indices, batch)
        groups = chunk_jobs(batch, chunk_cap)
        results: List[Optional[JobOutcome]] = [None] * len(batch)
        pending = groups
        attempt = 0
        while pending:
            futures = [
                (g, self._pool().submit(run_supernode_jobs_guarded,
                                        [batch[i] for i in g]))
                for g in pending
            ]
            failed: List[List[int]] = []
            first_error: Optional[BaseException] = None
            for g, fut in futures:
                try:
                    outcomes = fut.result()
                except Exception as exc:  # BrokenProcessPool, pickling, ...
                    failed.append(g)
                    if first_error is None:
                        first_error = exc
                else:
                    for i, outcome in zip(g, outcomes):
                        results[i] = outcome
            if not failed:
                break
            attempt += 1
            flat = [i for g in failed for i in g]
            seqs = [batch[i].seq for i in flat]
            # The dead pool is the observed effect of any crash faults on
            # these jobs: disarm them before respawning, so the fresh
            # forks inherit a plan that lets the retry run clean.
            fault_mod.notify_pool_failure(seqs)
            self._reset_pool()
            serial = attempt > self.max_retries
            if events is not None:
                events.append(FailureReport(
                    job=",".join(batch[i].name for i in flat),
                    seq=min(seqs),
                    kind="pool",
                    reason=repr(first_error),
                    retries=attempt,
                    rung="serial" if serial else "respawn",
                ))
            if serial:
                for i, outcome in zip(flat, self._run_inline(flat, batch)):
                    results[i] = outcome
                break
            time.sleep(self.backoff_s * (2 ** (attempt - 1)))
            pending = failed
        missing = [batch[i].name for i, r in enumerate(results) if r is None]
        if missing:
            # Never let a None outcome escape: an assert here would
            # vanish under ``python -O`` and surface later as an opaque
            # attribute error on a None record.
            raise RuntimeError(
                f"pool execution lost result(s) for job(s): {', '.join(missing)}"
            )
        return results  # type: ignore[return-value]

    def _run_inline(
        self, indices: Sequence[int], batch: Sequence[SupernodeJob]
    ) -> List[JobOutcome]:
        """Guarded in-process execution with bounded in-place retries:
        every batch that cannot be split, and the serial fallback once
        pool retries run out (a transient raise is retried here exactly
        like a pool retry would be)."""
        outcomes: List[JobOutcome] = []
        for i in indices:
            job = batch[i]
            for attempt in range(self.max_retries + 1):
                try:
                    outcomes.append(run_supernode_job_guarded(job))
                    break
                except Exception:
                    if attempt >= self.max_retries:
                        raise
        return outcomes

    def _pool(self) -> ProcessPoolExecutor:
        with self._pool_lock:
            if self._executor is None:
                try:
                    ctx = multiprocessing.get_context("fork")
                except ValueError:  # pragma: no cover - non-POSIX platforms
                    ctx = multiprocessing.get_context()
                self._executor = ProcessPoolExecutor(
                    max_workers=self.workers, mp_context=ctx
                )
            return self._executor

    def _reset_pool(self) -> None:
        """Tear down a (possibly broken) pool; the next batch respawns it."""
        with self._pool_lock:
            if self._executor is not None:
                try:
                    self._executor.shutdown(wait=False, cancel_futures=True)
                except Exception:  # pragma: no cover - broken-pool teardown
                    pass
                self._executor = None

    def close(self) -> None:
        """Shut the pool down (idempotent)."""
        with self._pool_lock:
            if self._executor is not None:
                self._executor.shutdown(wait=True)
                self._executor = None

    def __enter__(self) -> "JobRunner":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
