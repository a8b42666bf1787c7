"""The degradation ladder: graceful recovery for budget-breached jobs.

When a :class:`~repro.runtime.pool.SupernodeJob` breaches its
:class:`~repro.resilience.budget.Budget`, the wavefront scheduler hands
it to :func:`resynthesize`, which walks a fixed ladder of increasingly
cheap (and increasingly conservative) re-synthesis strategies until one
fits the budget:

====  =========  =====================================================
rung  name       strategy
====  =========  =====================================================
0     retry      the same job with a fresh budget clock (deadline
                 breaches only — the stall/contention that burned the
                 clock may be gone; node breaches are deterministic and
                 skip this rung)
1     tighten    ``thresh`` capped at 8: fewer cuts tried, much smaller
                 DP frontier, same optimality structure
2     plain      ``thresh`` capped at 6, special decompositions and
                 timing-aware reordering off: the minimal Algorithm-3
                 configuration
3     shannon    per-node Shannon cone synthesis
                 (:func:`shannon_record`): one MUX LUT per BDD node,
                 linear in the DAG — no DP at all, cannot blow up
====  =========  =====================================================

Every rung's output is re-verified with
:func:`repro.runtime.emission.verify_record` (spot-simulation against
the supernode function) before it is accepted; an unverifiable cover
falls through to the next rung, and an unverifiable *final* rung raises
:class:`~repro.analysis.diagnostics.VerificationError` with ``DD402``
— a degraded cover is acceptable, a wrong one never is.  Ladder outputs
are deliberately **never** written to the emission cache: a degraded
record stored under the original job signature would poison later
clean runs.

This module pulls in the full synthesis stack; it is imported by
:mod:`repro.runtime.schedule` (and tests), *not* by
:mod:`repro.resilience.__init__` — the package init must stay safe for
the pool/DP hot paths to import.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional, Tuple

from repro.analysis.diagnostics import Diagnostic, VerificationError
from repro.network.netlist import BooleanNetwork
from repro.runtime.emission import EmissionRecord, export_emission, verify_record
from repro.runtime.pool import JobOutcome, SupernodeJob, run_supernode_job_guarded
from repro.runtime.signature import CanonicalDAG, dag_size, rebuild_dag
from repro.runtime.stats import FailureReport

#: Ladder rungs, cheapest-first after the clean retry.
RUNGS: Tuple[str, ...] = ("retry", "tighten", "plain", "shannon")


def degraded_job(job: SupernodeJob, rung: str) -> SupernodeJob:
    """``job`` with the DP knobs of ladder rung ``rung`` applied."""
    if rung == "retry":
        return job
    if rung == "tighten":
        return replace(job, thresh=max(2, min(job.thresh, 8)))
    if rung == "plain":
        return replace(
            job,
            thresh=max(2, min(job.thresh, 6)),
            use_special_decompositions=False,
            timing_aware_reorder=False,
        )
    raise ValueError(f"unknown ladder rung {rung!r}")


def shannon_record(
    dag: CanonicalDAG,
    arrivals: Tuple[int, ...],
    polarities: Tuple[bool, ...],
    k: int,
) -> EmissionRecord:
    """Per-node Shannon cone synthesis: one MUX LUT per BDD node.

    The final ladder rung: walks the canonical DAG bottom-up and emits
    ``ite(x_var, hi, lo)`` for every internal node — no dynamic
    program, no reordering, linear in the DAG size, so it always
    terminates quickly.  Leaf polarities are folded into the literals
    (matching the DP emission's record contract); terminal children are
    folded into the LUT function as constants; nodes whose function
    collapses to a bare literal resolve to the leaf itself.  For
    ``k == 2`` a three-input MUX is split into three two-input LUTs
    (``sel&hi``, ``!sel&lo``, their OR).

    Depth is the honest mapping depth of this cover (one level per MUX
    along the deepest path) — typically worse than the DP's, which is
    the point: correctness under any budget, quality traded away.
    """
    mgr, func = rebuild_dag(dag)
    n = dag.num_vars
    scratch = BooleanNetwork("shannon_scratch")
    leaf_ref: Dict[str, str] = {}
    for i in range(n):
        pi = f"v{i}"
        scratch.add_pi(pi)
        leaf_ref[pi] = pi
    net_mgr = scratch.mgr

    def leaf_lit(var: int) -> int:
        lit = net_mgr.var(scratch.var_of(f"v{var}"))
        return net_mgr.negate(lit) if polarities[var] else lit

    counter = [0]

    def make_lut(f: int, depth: int) -> Tuple[str, bool, int]:
        # Fanins derived from the function's support, so the node
        # invariant (DD106) holds even when an operand cancels out.
        support = net_mgr.support_ordered(f)
        fanins = [net_mgr.var_name(v) for v in support]
        counter[0] += 1
        name = scratch.fresh_name(f"sh_{counter[0]}_")
        scratch.add_node_function(name, fanins, f)
        return (name, False, depth)

    def lit_of(triple: Tuple[str, bool, int]) -> int:
        name, neg, _ = triple
        lit = net_mgr.var(scratch.var_of(name))
        return net_mgr.negate(lit) if neg else lit

    # Bottom-up over the canonical DAG (children always precede parents
    # in ``dag.nodes`` by construction).  ``signals[ref]`` is the
    # (name, negated, depth) triple of internal reference ``ref``;
    # terminals are folded into parent functions instead.
    signals: Dict[int, Tuple[str, bool, int]] = {}
    for idx, (var, lo, hi) in enumerate(dag.nodes):
        ref = idx + 2
        if lo == 0 and hi == 1:
            # The node *is* the (polarized) literal.
            signals[ref] = (f"v{var}", polarities[var], arrivals[var])
            continue
        if lo == 1 and hi == 0:
            signals[ref] = (f"v{var}", not polarities[var], arrivals[var])
            continue
        sel = leaf_lit(var)
        sel_depth = arrivals[var]
        operand_depths = [sel_depth]
        if hi in (0, 1):
            hi_term = net_mgr.ONE if hi == 1 else net_mgr.ZERO
        else:
            hi_term = lit_of(signals[hi])
            operand_depths.append(signals[hi][2])
        if lo in (0, 1):
            lo_term = net_mgr.ONE if lo == 1 else net_mgr.ZERO
        else:
            lo_term = lit_of(signals[lo])
            operand_depths.append(signals[lo][2])
        f = net_mgr.ite(sel, hi_term, lo_term)
        width = len(net_mgr.support(f))
        if width <= k:
            signals[ref] = make_lut(f, 1 + max(operand_depths))
            continue
        # k == 2 with three live operands: split the MUX into
        # sel&hi, !sel&lo and their OR (three two-input LUTs).
        hi_depth = signals[hi][2]
        lo_depth = signals[lo][2]
        a = make_lut(net_mgr.apply_and(sel, hi_term), 1 + max(sel_depth, hi_depth))
        b = make_lut(
            net_mgr.apply_and(net_mgr.negate(sel), lo_term),
            1 + max(sel_depth, lo_depth),
        )
        out = net_mgr.apply_or(lit_of(a), lit_of(b))
        signals[ref] = make_lut(out, 1 + max(a[2], b[2]))

    root = signals[dag.root]
    return export_emission(
        scratch,
        created=list(scratch.nodes),
        leaf_ref=leaf_ref,
        out=root,
        states_visited=0,
        bdd_size=dag_size(dag),
        num_inputs=n,
    )


def resynthesize(
    job: SupernodeJob, breach: JobOutcome
) -> Tuple[EmissionRecord, FailureReport]:
    """Walk the ladder until a rung yields a verified cover in budget.

    ``breach`` is the outcome that sent the job here.  Deadline breaches
    start at the clean ``retry`` rung (the caller has disarmed the job's
    faults, so a stall-burned clock gets one honest second chance —
    producing the *identical* record a fault-free run would); node
    breaches are deterministic and start at ``tighten``.  Every DP rung
    runs through :func:`~repro.runtime.pool.run_supernode_job_guarded`,
    so under a fresh meter of the job's original budget; a rung that
    breaches it yields no record and the ladder moves on.  The terminal
    ``shannon`` rung is linear-time and runs unmetered, so the ladder
    always terminates with a cover.

    Returns the record plus the :class:`FailureReport` row describing
    the recovery.  Raises :class:`VerificationError` (``DD402``) if even
    the final rung's cover fails re-verification.
    """
    start = 0 if breach.breach_reason == "deadline" else 1
    attempts = 0
    for rung in RUNGS[start:]:
        attempts += 1
        record: Optional[EmissionRecord]
        if rung == "shannon":
            record = shannon_record(job.dag, job.arrivals, job.polarities, job.k)
        else:
            record = run_supernode_job_guarded(degraded_job(job, rung)).record
            if record is None:
                continue
        if verify_record(record, job.dag, job.polarities, job.k):
            report = FailureReport(
                job=job.name,
                seq=job.seq,
                kind="budget",
                reason=breach.breach_reason,
                retries=attempts,
                rung=rung,
                spent_s=breach.spent_s,
                spent_nodes=breach.spent_nodes,
                verified=True,
            )
            return record, report
        if rung == RUNGS[-1]:
            raise VerificationError(
                [
                    Diagnostic(
                        "DD402",
                        f"degraded cover for supernode {job.name!r} failed "
                        f"re-verification at ladder rung {rung!r}",
                        where=job.name,
                    )
                ],
                stage=f"resilience:{job.name}",
            )
    raise AssertionError("unreachable: the shannon rung returns or raises")


__all__: List[str] = [
    "RUNGS",
    "degraded_job",
    "resynthesize",
    "shannon_record",
]
