"""Wavefront scheduling of supernode synthesis: the one engine of
Algorithm 1 step 3.

The collapsed network's supernodes form a DAG; Algorithm 1 visits them
in topological order, but each supernode's DP only needs the *mapping
depths* of its fanins — data, not network mutations.  This module
splits the visit into two phases, at every job count and cache mode:

**Phase A (compute)** groups real supernodes into topological wavefronts
(``level = 1 + max(level of fanins)``; constant nodes sit at level 0 and
buffer/inverter chains stay at their source's level).  All supernodes of
one wavefront are independent given the previous levels' results, so
each wavefront is dispatched as a batch to the process-wide
:class:`~repro.runtime.fleet.FleetScheduler` — through the tiered
content-addressed cache first (:mod:`repro.runtime.tiers`), then
through singleflight dedup against other in-flight requests, and
only then to a :class:`~repro.runtime.pool.JobRunner` (the fleet's
shared pool, or a private one for fault-armed runs).  A wave the runner
cannot split — one job, or a jobs=1 request — runs in-process.
Only ``(polarity, depth)`` resolution is tracked in this phase; nothing
is written to the output network.

**Phase B (splice)** then walks every node in topological order —
constants become zero-input LUTs, literal chains resolve to their
source, supernodes replay their records via
:func:`~repro.runtime.emission.replay_record` and report their
DP-manager audits to the stage verifier.  Records are pure functions of
their jobs, and the splice order is fixed by the network alone, so the
resulting network (names, fanins, cell functions) does not depend on
the job count, the cache state or which process ran a DP — that is the
determinism contract ``jobs=N ≡ jobs=1``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.analysis.diagnostics import Diagnostic
from repro.analysis.hooks import StageVerifier
from repro.core.config import DDBDDConfig
from repro.core.dp import SupernodeResult
from repro.network.depth import topological_order
from repro.network.netlist import BooleanNetwork
from repro.resilience import faults as fault_mod
from repro.resilience.ladder import resynthesize
from repro.runtime.emission import EmissionRecord, replay_record
from repro.runtime.fleet import WaveItem, get_fleet
from repro.runtime.pool import JobOutcome, JobRunner, SupernodeJob
from repro.runtime.signature import CanonicalDAG, export_dag
from repro.runtime.stats import RuntimeStats
from repro.runtime.tiers import CacheTelemetry

KIND_CONST = "const"
KIND_LITERAL = "literal"
KIND_SUPERNODE = "supernode"


@dataclass
class WaveLevel:
    """One topological wavefront: independent supernodes plus the
    pass-through (constant / literal) nodes resolved at the same level."""

    level: int
    jobs: List[str] = field(default_factory=list)
    passthrough: List[str] = field(default_factory=list)


@dataclass
class WavePlan:
    """Classification and leveling of a collapsed network."""

    order: List[str]
    kind: Dict[str, str]
    level_of: Dict[str, int]
    levels: List[WaveLevel]

    @property
    def widths(self) -> List[int]:
        """Supernode count per wavefront that actually runs a DP."""
        return [len(w.jobs) for w in self.levels if w.jobs]


def classify_node(work: BooleanNetwork, name: str) -> Tuple[str, Optional[Tuple[str, bool]]]:
    """Kind of one node; for literals also ``(source, negated)``.

    Terminals are constants, single-fanin buffers/inverters are
    literals, everything else is a real supernode.
    """
    node = work.nodes[name]
    if work.mgr.is_terminal(node.func):
        return KIND_CONST, None
    if len(node.fanins) == 1:
        v = work.var_of(node.fanins[0])
        if node.func == work.mgr.var(v):
            return KIND_LITERAL, (node.fanins[0], False)
        if node.func == work.mgr.nvar(v):
            return KIND_LITERAL, (node.fanins[0], True)
    return KIND_SUPERNODE, None


def plan_wavefronts(work: BooleanNetwork) -> WavePlan:
    """Compute kinds and wavefront levels for every internal node.

    Primary inputs and constants sit at level 0; a literal inherits its
    source's level (it costs no LUT); a supernode sits one level above
    its deepest fanin.  Every supernode's fanins therefore live at
    strictly lower levels, which makes each level an independent batch.
    """
    order = topological_order(work)
    kind: Dict[str, str] = {}
    level_of: Dict[str, int] = {pi: 0 for pi in work.pis}
    buckets: Dict[int, WaveLevel] = {}

    def bucket(level: int) -> WaveLevel:
        got = buckets.get(level)
        if got is None:
            got = buckets[level] = WaveLevel(level)
        return got

    for name in order:
        node = work.nodes[name]
        k, lit = classify_node(work, name)
        kind[name] = k
        if k == KIND_CONST:
            level = 0
            bucket(level).passthrough.append(name)
        elif k == KIND_LITERAL:
            assert lit is not None
            level = level_of[lit[0]]
            bucket(level).passthrough.append(name)
        else:
            level = 1 + max(level_of[f] for f in node.fanins)
            bucket(level).jobs.append(name)
        level_of[name] = level

    levels = [buckets[lv] for lv in sorted(buckets)]
    return WavePlan(order=order, kind=kind, level_of=level_of, levels=levels)


def _recover_breach(
    job: SupernodeJob, outcome: JobOutcome, stats: RuntimeStats
) -> EmissionRecord:
    """Resynthesize a budget-breached job down the degradation ladder.

    The job's faults are disarmed first — the breach has been observed,
    and re-firing a stall/crash on the ladder's clean retry would turn
    one injected fault into an unrecoverable loop.  Returns the
    verified (possibly degraded) record and logs the
    :class:`FailureReport` row.
    """
    fault_mod.disarm_job(job.seq)
    with stats.stage("ladder"):
        record, report = resynthesize(job, outcome)
    stats.failures.append(report)
    return record


def wavefront_supernodes(
    work: BooleanNetwork,
    mapped: BooleanNetwork,
    config: DDBDDConfig,
    verifier: StageVerifier,
    resolve: Dict[str, Tuple[str, bool, int]],
    external: Set[str],
    stats: RuntimeStats,
) -> List[SupernodeResult]:
    """The phase A/B wavefront engine (the ``synth`` pass's body).

    Emits every supernode of ``work`` into ``mapped``, extends
    ``resolve`` (signal → ``(mapped signal, negated, depth)``) and
    ``external`` (mapped signals with outside consumers), and returns
    the :class:`~repro.core.dp.SupernodeResult` list in topological
    order.
    """
    plan = plan_wavefronts(work)
    for wave in plan.levels:
        if wave.jobs:
            stats.wavefront_widths.append(len(wave.jobs))
    fleet = get_fleet()
    # The fleet owns the cache store: one per cache root, so every
    # request hitting a root shares its in-process memory tier.
    store = fleet.store_for(config)
    tele = CacheTelemetry() if store is not None else None

    # Phase A: per-signal (negated, depth) without touching `mapped`.
    vres: Dict[str, Tuple[bool, int]] = {pi: (False, 0) for pi in work.pis}
    # name -> (DAG, record, DP-manager audit diagnostics)
    jobinfo: Dict[str, Tuple[CanonicalDAG, EmissionRecord, Tuple[Diagnostic, ...]]] = {}
    # Deterministic 1-based job numbering in wavefront order — the
    # address space of the fault plan.  Cache hits consume a seq too,
    # so a plan stays stable under a warm cache... but note a hit means
    # the addressed job never executes, and its faults never fire.
    seq_counter = 0

    # The plan (if any) is installed for all of phase A so worker forks
    # inherit it.  A fault-armed run keeps a *private* runner created
    # inside the activated window (its forks must inherit the plan, and
    # its crash/stall schedule addresses this request's seq space) with
    # the clamp lifted so worker faults are exercisable on a one-core
    # host; clean runs submit to the fleet's shared runner instead.
    with fault_mod.activated(config.faults):
        private_runner: Optional[JobRunner] = None
        if config.faults is not None:
            private_runner = JobRunner(config.effective_jobs, clamp=False)
        try:
            with fleet.register(
                config, stats, store=store, tele=tele, runner=private_runner
            ) as req:
                for wave in plan.levels:
                    items: List[WaveItem] = []
                    for name in wave.jobs:
                        node = work.nodes[name]
                        seq_counter += 1
                        with stats.stage("signature"):
                            dag = export_dag(work.mgr, node.func)
                            fanin_by_var = {work.var_of(f): f for f in node.fanins}
                            polarities = []
                            arrivals = []
                            for var in dag.var_map:
                                neg, depth = vres[fanin_by_var[var]]
                                polarities.append(neg)
                                arrivals.append(depth)
                            job = SupernodeJob.from_config(
                                name, dag, arrivals, polarities, config,
                                seq=seq_counter,
                            )
                            key = job.signature() if store is not None else None
                        items.append(WaveItem(name=name, job=job, key=key))
                    outcomes = fleet.run_wave(req, items)
                    for item in items:
                        outcome = outcomes[item.name]
                        if outcome.ok:
                            record = outcome.record
                        else:
                            record = _recover_breach(item.job, outcome, stats)
                            # Deliberately never cached (and never handed
                            # to a deduped waiter): a ladder output under
                            # the clean signature would poison later runs.
                        jobinfo[item.name] = (item.job.dag, record, outcome.diagnostics)
                    # Resolve polarities/depths for this level (jobs
                    # first, then pass-through nodes that may read them).
                    for name in wave.jobs:
                        record = jobinfo[name][1]
                        neg = record.out_neg if record.out_ref[0] == "v" else False
                        vres[name] = (neg, record.out_depth)
                    for name in wave.passthrough:
                        if plan.kind[name] == KIND_CONST:
                            vres[name] = (False, 0)
                        else:
                            src, lit_neg = classify_node(work, name)[1]  # type: ignore[misc]
                            src_neg, src_depth = vres[src]
                            vres[name] = (src_neg ^ lit_neg, src_depth)
                stats.failures.extend(req.events)
        finally:
            if private_runner is not None:
                private_runner.close()
    if tele is not None:
        stats.cache_tiers = tele.as_dict()
        stats.cache_corruptions += tele.total("corruptions")
        stats.cache_evictions += tele.total("evictions")

    # Phase B: splice in topological order.
    supernode_results: List[SupernodeResult] = []
    mgr = work.mgr
    with stats.stage("splice"):
        for name in plan.order:
            node = work.nodes[name]
            kind = plan.kind[name]
            if kind == KIND_CONST:
                const_name = mapped.fresh_name(f"{name}_const")
                mapped.add_node_function(
                    const_name,
                    [],
                    mapped.mgr.ONE if node.func == mgr.ONE else mapped.mgr.ZERO,
                )
                resolve[name] = (const_name, False, 0)
                external.add(const_name)
                continue
            if kind == KIND_LITERAL:
                src, negated = classify_node(work, name)[1]  # type: ignore[misc]
                base, base_neg, d = resolve[src]
                resolve[name] = (base, base_neg ^ negated, d)
                continue
            dag, record, audit = jobinfo[name]
            fanin_by_var = {work.var_of(f): f for f in node.fanins}
            leaves = [resolve[fanin_by_var[var]] for var in dag.var_map]
            sig, neg, depth = replay_record(mapped, record, leaves, prefix=name)
            result = SupernodeResult(
                signal=sig,
                negated=neg,
                depth=depth,
                luts_created=len(record.cells),
                states_visited=record.states_visited,
                bdd_size=record.bdd_size,
                num_inputs=record.num_inputs,
            )
            if neg and sig in mapped.nodes and sig not in external:
                lut = mapped.nodes[sig]
                lut.func = mapped.mgr.negate(lut.func)
                neg = False
            assert (neg, depth) == vres[name], "phase A/B resolution drift"
            resolve[name] = (sig, neg, depth)
            external.add(sig)
            supernode_results.append(result)
            verifier.after_supernode(mapped, name, audit)
    stats.supernodes += len(supernode_results)
    return supernode_results
