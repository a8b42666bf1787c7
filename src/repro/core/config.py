"""DDBDD configuration.

Defaults follow the paper's experimental setup (Sec. III-A, III-B, IV):
K = 5 LUTs, BDD size bound 200, α = 3, β = 0.5, γ = 0.5, cut-size
pruning threshold 15, size-reducing reordering before each supernode's
dynamic program.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Optional

from repro.resilience.faults import FaultPlan, FaultPlanError
from repro.utils import usable_cpus


def _default_jobs() -> int:
    """Worker count default: the ``DDBDD_JOBS`` environment variable
    when set (useful for CI sweeps), else 1 (in-process).

    A malformed value raises :class:`ValueError` naming the variable
    immediately — silently falling back to 1 (the old behaviour) hid
    typos, and letting the raw string reach pool setup surfaced as an
    opaque ``int()`` traceback.
    """
    raw = os.environ.get("DDBDD_JOBS", "").strip()
    if not raw:
        return 1
    try:
        jobs = int(raw)
    except ValueError:
        raise ValueError(
            f"DDBDD_JOBS must be an integer >= 0 (0 means all CPUs), got {raw!r}"
        ) from None
    if jobs < 0:
        raise ValueError(
            f"DDBDD_JOBS must be an integer >= 0 (0 means all CPUs), got {raw!r}"
        )
    return jobs


def _default_faults() -> Optional[str]:
    """Fault-plan default: the ``DDBDD_FAULTS`` environment variable
    when set (the fault-injection test/CI hook), else ``None``.

    Same loud-failure policy as ``DDBDD_JOBS``: a malformed plan raises
    :class:`ValueError` naming the variable at config construction.
    """
    raw = os.environ.get("DDBDD_FAULTS", "").strip()
    if not raw:
        return None
    try:
        FaultPlan.parse(raw)
    except FaultPlanError as exc:
        raise ValueError(f"DDBDD_FAULTS is not a valid fault plan: {exc}") from None
    return raw


@dataclass
class DDBDDConfig:
    """All tunables of the DDBDD flow.

    Attributes
    ----------
    k:
        LUT input size (paper uses 5).
    size_bound:
        Maximum merged-BDD node count allowed by ``mergable``
        (paper: 200; "the node size bound is only for the
        runtime/quality tradeoff").
    alpha:
        Merged-size slack in ``mergable``: require
        ``n < (n1 + n2) * (1 + alpha)`` (paper: 3).
    beta, gamma:
        Gain-formula weights for fanin depth and fanout count
        (paper: 0.5 and 0.5).
    thresh:
        Cut sets larger than this are not tried by the dynamic program
        (paper: 15; "large cuts generally do not produce good
        decompositions").
    support_bound:
        Maximum *input count* of a merged supernode.  The paper only
        bounds BDD size (200) and observes that supernodes stay below
        ~20 inputs on its benchmarks; sparse functions (wide ORs) can
        satisfy the size bound with far larger supports, which pushes
        the dynamic program out of its effective regime, so we bound
        support explicitly.  Set ``None`` to disable (paper-literal
        behaviour).
    reorder_effort:
        ``"none"``, ``"auto"``, ``"sift"`` or ``"exact"``.  ``"auto"``
        sifts only BDDs big enough for it to matter; Algorithm 3 always
        reorders, so ``"sift"`` is the faithful setting and ``"auto"``
        the fast default with near-identical results.
    use_special_decompositions:
        Detect AND/OR/MUX/XNOR decompositions (Sec. III-B3).  Off is an
        ablation: pure linear expansion.
    collapse:
        Run Algorithm 2 before synthesis.  Off reproduces the
        "without collapsing" rows of Table I.
    max_collapse_iterations:
        Safety cap on Algorithm 2's outer loop (the paper's loop ends
        when no mergable pair remains; this bound is never hit in
        practice).
    final_packing:
        Cover the emitted gate network with K-LUT cells after synthesis
        (the paper's "map all the gates to cells implementable by
        K-LUTs"): adjacent shallow gates that fit one LUT are merged
        when that lowers a level or is area-free.  Off is an ablation.
    timing_aware_reorder:
        *Extension* (the paper's stated future work): after size
        sifting, sink late-arriving variables toward the bottom of the
        order so the DP can split them off shallowly.  Off by default
        to keep the paper-faithful flow.
    area_recovery:
        *Extension* (the paper's stated future work): after depth is
        final, spend positive slack merging non-critical LUTs to
        recover area.  Off by default.
    verify_level:
        Stage-boundary IR verification (see
        :mod:`repro.analysis.hooks`).  ``0`` (default) disables it;
        ``1`` runs the structural network checkers after sweep, partial
        collapse and PO binding plus the final LUT-cover audit; ``2``
        adds BDD-manager audits, per-supernode network re-checks, the
        exact per-supernode emission verification and a simulation-based
        equivalence spot check against the source.  Violations raise
        :class:`repro.analysis.diagnostics.VerificationError` with
        stable ``DDxxx`` codes.
    jobs:
        Worker processes for supernode synthesis.  Every value runs the
        same wavefront engine (:mod:`repro.runtime`) with bit-identical
        output: ``1`` (default) computes each wavefront in-process;
        ``N > 1`` lets the process-wide fleet spread a wavefront over up
        to ``N`` pool workers (clamped to the usable CPUs and to the
        request's fair share); ``0`` means "all CPUs".  Defaults to the
        ``DDBDD_JOBS`` environment variable when set.
    cache:
        Persistent DP-emission cache mode: ``"off"`` (default, no cache
        I/O), ``"read"`` (reuse existing entries, never write) or
        ``"readwrite"`` (reuse and populate).  Cached emissions are
        re-verified by spot simulation when ``verify_level >= 1``.
    cache_dir:
        Root directory of the on-disk cache.
    cache_claims:
        Cross-process singleflight for shared cache roots: leaders
        claim signatures via transactional lease rows in the tier-2
        sqlite store so concurrent daemons compute each signature once
        fleet-wide.  Only engaged for ``readwrite`` tiered runs whose
        results are shareable; ``False`` disables claim coordination.
    fleet_weight:
        Fair-share admission weight of this request in the process-wide
        fleet scheduler (:mod:`repro.runtime.fleet`).  Relative: a
        weight-2 request is entitled to twice the worker share of a
        weight-1 request while both are in flight.  Must be >= 1.
    job_deadline_s:
        Wall-time budget per supernode job in seconds (``None`` =
        unbounded).  A breached job aborts cleanly and is re-synthesized
        by the degradation ladder (:mod:`repro.resilience.ladder`),
        recorded as a :class:`~repro.runtime.stats.FailureReport`.
    job_node_budget:
        BDD-node ceiling per supernode job, checked against the DP's
        private manager inside the recursion (``None`` = unbounded).
        Same breach handling as ``job_deadline_s``.
    faults:
        Deterministic fault-injection plan (see
        :mod:`repro.resilience.faults` for the grammar), e.g.
        ``"crash_worker@job=3;corrupt_shard@put=5;stall@job=7:2.5s"``.
        Defaults to the ``DDBDD_FAULTS`` environment variable when set;
        ``None`` disables injection.  Validated eagerly at config
        construction.
    """

    k: int = 5
    size_bound: int = 200
    alpha: float = 3.0
    beta: float = 0.5
    gamma: float = 0.5
    thresh: int = 15
    support_bound: int = 20
    reorder_effort: str = "auto"
    use_special_decompositions: bool = True
    collapse: bool = True
    max_collapse_iterations: int = 1000
    final_packing: bool = True
    timing_aware_reorder: bool = False
    area_recovery: bool = False
    verify_level: int = 0
    jobs: int = field(default_factory=_default_jobs)
    cache: str = "off"
    cache_dir: str = ".ddbdd_cache"
    cache_claims: bool = True
    fleet_weight: int = 1
    job_deadline_s: Optional[float] = None
    job_node_budget: Optional[int] = None
    faults: Optional[str] = field(default_factory=_default_faults)

    def __post_init__(self) -> None:
        if self.k < 2:
            raise ValueError("LUT size k must be at least 2")
        if self.thresh < 2:
            raise ValueError("cut-size threshold must be at least 2")
        if self.reorder_effort not in ("none", "auto", "sift", "exact"):
            raise ValueError(f"unknown reorder effort {self.reorder_effort!r}")
        if self.verify_level not in (0, 1, 2):
            raise ValueError(f"verify_level must be 0, 1 or 2, got {self.verify_level!r}")
        if self.jobs < 0:
            raise ValueError("jobs must be >= 0 (0 means all CPUs)")
        if self.cache not in ("off", "read", "readwrite"):
            raise ValueError(f"cache must be off, read or readwrite, got {self.cache!r}")
        if self.fleet_weight < 1:
            raise ValueError("fleet_weight must be >= 1")
        if self.job_deadline_s is not None and not self.job_deadline_s > 0:
            raise ValueError("job_deadline_s must be positive (or None)")
        if self.job_node_budget is not None and self.job_node_budget < 1:
            raise ValueError("job_node_budget must be >= 1 (or None)")
        if self.faults is not None:
            if not isinstance(self.faults, str) or not self.faults.strip():
                raise ValueError("faults must be None or a non-empty fault plan")
            # Eager validation: FaultPlanError subclasses ValueError, so a
            # typo'd plan fails here instead of mid-synthesis.
            FaultPlan.parse(self.faults)

    @property
    def verify_emission(self) -> bool:
        """Whether the DP should verify each supernode's emitted cone."""
        return self.verify_level >= 2

    @property
    def effective_jobs(self) -> int:
        """Resolved worker count (``jobs == 0`` becomes the number of
        CPUs this process may run on)."""
        if self.jobs == 0:
            return usable_cpus()
        return self.jobs
