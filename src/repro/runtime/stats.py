"""Runtime telemetry for the DDBDD flow.

:class:`RuntimeStats` accumulates per-stage wall time, per-wavefront
parallel widths and cache hit/miss counters during one
:func:`~repro.core.ddbdd.ddbdd_synthesize` call and rides back to the
caller on :attr:`~repro.core.ddbdd.SynthesisResult.runtime_stats`;
``ddbdd synth --stats`` prints :meth:`RuntimeStats.render` and
``--stats-json`` dumps :meth:`RuntimeStats.as_dict`.

The stage loop of :mod:`repro.flow` also appends one
:class:`PassTelemetry` row per Algorithm 1 stage (``sweep``,
``collapse``, ``synth``, ``map``): wall time, verification time, RSS
growth and the BDD-manager counter deltas (nodes created,
operator-cache hit rate) observed across the stage.

The collection overhead is a handful of ``perf_counter`` calls per
stage, so stats are gathered unconditionally — there is no "stats off"
mode to keep in sync.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional

from repro._version import __version__

#: Version of the telemetry JSON contract.  ``RuntimeStats.as_dict()``
#: (the ``--stats-json`` payload) and the serve daemon's ``/metrics``
#: endpoint both stamp this as their top-level ``"schema"`` field, so a
#: consumer can parse either with one reader.  Bump it only when a key
#: in the stable sets below changes name or meaning; *adding* keys is
#: backward compatible and does not bump the schema.
#:
#: Schema 2 (fleet scheduler + tiered cache): the flat ``cache_*``
#: counters became *sums over the cache tiers* (``cache_hits`` counts a
#: hit in any tier exactly once, wherever it was served), and the
#: payload grew ``cache_evictions``, the per-tier ``cache_tiers`` map
#: and the singleflight ``dedup_hits`` / ``dedup_retries`` counters.
#:
#: Schema 3 (remote cache tier + cross-daemon claims): ``cache_tiers``
#: grew a fourth ``"remote"`` tier, the payload grew the ``remote``
#: block (the run's remote-op breakdown plus the endpoint URL and
#: end-of-run breaker states; ``{}`` when no remote tier is
#: configured) and the ``claims`` map (cross-daemon singleflight
#: counters — ``won`` / ``held`` / ``hits`` / ``reaped`` /
#: ``released``; ``{}`` when claims never engaged), and ``failures``
#: may now carry ``kind="remote"`` rows (remote-tier faults recovered
#: by degrading to local tiers).
#:
#: Schema 4 (legacy shard tier removed): ``cache_tiers`` lost its
#: ``"shards"`` tier, leaving ``memory``, ``sqlite`` and ``remote``.
#: ``dedup_hits`` also counts a supernode that followed an earlier copy
#: of its signature in the same request's wave.
#:
#: Schema 5 (remote tier removed): ``cache_tiers`` lost its
#: ``"remote"`` tier, leaving ``memory`` and ``sqlite``; the payload
#: lost the ``remote`` block, and ``failures`` no longer carries
#: ``kind="remote"`` rows.
STATS_SCHEMA = 5

#: The stable top-level key set of :meth:`RuntimeStats.as_dict`.
#: Consumers may rely on these keys existing with these meanings for as
#: long as ``schema`` stays at :data:`STATS_SCHEMA`.
RUNTIME_STATS_KEYS = (
    "schema",
    "version",
    "jobs",
    "cache_mode",
    "stage_seconds",
    "passes",
    "wavefront_widths",
    "supernodes",
    "cache_hits",
    "cache_misses",
    "cache_puts",
    "cache_rejected",
    "cache_corruptions",
    "cache_evictions",
    "cache_tiers",
    "dedup_hits",
    "dedup_retries",
    "claims",
    "failures",
)

#: The stable key set of one :meth:`PassTelemetry.as_dict` row (the
#: elements of the ``"passes"`` list above and of the daemon's streamed
#: per-pass events).
PASS_TELEMETRY_KEYS = (
    "name",
    "seconds",
    "verify_seconds",
    "rss_peak_kb",
    "rss_delta_kb",
    "bdd_nodes_created",
    "bdd_cache_hits",
    "bdd_cache_misses",
    "bdd_cache_hit_rate",
    "bdd_neg_free",
    "bdd_unique_saved",
    "bdd_store_bytes",
    "failures",
)

#: The stable key set of one :meth:`FailureReport.as_dict` row (the
#: elements of the ``"failures"`` list above).
FAILURE_REPORT_KEYS = (
    "job",
    "seq",
    "kind",
    "reason",
    "retries",
    "rung",
    "spent_s",
    "spent_nodes",
    "verified",
)


@dataclass
class FailureReport:
    """One recovered runtime failure (see :mod:`repro.resilience`).

    Attributes
    ----------
    job:
        Supernode name(s) involved (comma-joined for pool failures that
        took a whole chunk down).
    seq:
        The job's deterministic 1-based sequence number (the smallest in
        the chunk for pool failures).
    kind:
        ``"budget"`` (the job breached its :class:`~repro.resilience.
        budget.Budget` and went down the degradation ladder) or
        ``"pool"`` (a worker died and the chunk was retried/serialized).
    reason:
        Breach axis (``"deadline"`` / ``"nodes"``) for budget failures;
        the observed executor error for pool failures.
    retries:
        Re-execution attempts spent recovering (ladder rungs tried or
        pool respawn rounds).
    rung:
        For budget failures, the degradation-ladder rung that produced
        the final cover (``"retry"`` means the clean re-run succeeded
        and nothing was degraded).  For pool failures, the recovery
        action (``"respawn"`` or ``"serial"``).
    spent_s / spent_nodes:
        Budget consumed at the moment of the breach.
    verified:
        Whether the recovered cover passed re-verification.
    """

    job: str
    seq: int
    kind: str
    reason: str
    retries: int
    rung: str = ""
    spent_s: float = 0.0
    spent_nodes: int = 0
    verified: bool = True

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready snapshot of this row."""
        return {
            "job": self.job,
            "seq": self.seq,
            "kind": self.kind,
            "reason": self.reason,
            "retries": self.retries,
            "rung": self.rung,
            "spent_s": round(self.spent_s, 4),
            "spent_nodes": self.spent_nodes,
            "verified": self.verified,
        }

    def render(self) -> str:
        """One-line human-readable summary (for ``--stats``)."""
        tail = f" rung={self.rung}" if self.rung else ""
        return (
            f"{self.kind} failure job={self.job} seq={self.seq} "
            f"reason={self.reason} retries={self.retries}{tail}"
        )


@dataclass
class PassTelemetry:
    """Telemetry of one executed flow stage (a "pass" row).

    ``seconds`` is the pass's own wall time; ``verify_seconds`` the
    StageVerifier boundary hook that ran right after it.  The BDD
    counters are deltas of :meth:`repro.bdd.manager.BDDManager.cache_stats`
    summed over the managers live in the flow state (clamped at zero —
    a pass that swaps in a fresh network legitimately shrinks them).
    ``rss_peak_kb`` is ``ru_maxrss`` after the pass (0 where the
    :mod:`resource` module is unavailable); ``rss_delta_kb`` its growth
    across the pass.  ``failures`` counts the :class:`FailureReport`
    rows the pass added (recovered faults/budget breaches).

    The complement-edge columns expose how much the tagged-handle store
    (DESIGN.md §7) is paying off: ``bdd_neg_free`` counts negations the
    pass got as O(1) bit flips (delta of the managers' ``neg_free``
    counter), ``bdd_unique_saved`` the store rows shared between a
    function and its complement at the end of the pass (rows an
    explicit-polarity store would have duplicated), and
    ``bdd_store_bytes`` the end-of-pass footprint of the three store
    columns.  The latter two are gauges, not deltas.
    """

    name: str
    seconds: float
    verify_seconds: float = 0.0
    rss_peak_kb: int = 0
    rss_delta_kb: int = 0
    bdd_nodes_created: int = 0
    bdd_cache_hits: int = 0
    bdd_cache_misses: int = 0
    bdd_neg_free: int = 0
    bdd_unique_saved: int = 0
    bdd_store_bytes: int = 0
    failures: int = 0

    @property
    def cache_hit_rate(self) -> float:
        """Operator-cache hit fraction in [0, 1] (0.0 when idle)."""
        total = self.bdd_cache_hits + self.bdd_cache_misses
        return self.bdd_cache_hits / total if total else 0.0

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready snapshot of this row."""
        return {
            "name": self.name,
            "seconds": self.seconds,
            "verify_seconds": self.verify_seconds,
            "rss_peak_kb": self.rss_peak_kb,
            "rss_delta_kb": self.rss_delta_kb,
            "bdd_nodes_created": self.bdd_nodes_created,
            "bdd_cache_hits": self.bdd_cache_hits,
            "bdd_cache_misses": self.bdd_cache_misses,
            "bdd_cache_hit_rate": round(self.cache_hit_rate, 4),
            "bdd_neg_free": self.bdd_neg_free,
            "bdd_unique_saved": self.bdd_unique_saved,
            "bdd_store_bytes": self.bdd_store_bytes,
            "failures": self.failures,
        }


@dataclass
class RuntimeStats:
    """Telemetry of one synthesis run.

    Attributes
    ----------
    jobs:
        Effective worker count used for supernode synthesis.
    cache_mode:
        The ``DDBDDConfig.cache`` mode the run executed with.
    stage_seconds:
        Wall time per flow stage (``sweep``, ``collapse``,
        ``supernodes``, ``dp``, ``postprocess``, ...).  ``dp`` counts
        only the dynamic-program batches inside ``supernodes``.
    passes:
        One :class:`PassTelemetry` row per flow stage, in execution
        order (empty when the run did not go through
        :func:`repro.flow.run_stages`).
    wavefront_widths:
        Number of concurrently synthesizable supernodes per topological
        wavefront (at every job count; they sum to ``supernodes``).
    supernodes:
        Supernodes that ran the DP or replayed a cached emission.
    cache_hits / cache_misses / cache_puts:
        Content-addressed cache counters (all zero when the cache is
        off).
    cache_rejected:
        Cached emissions rejected by re-verification (treated as
        misses).
    cache_corruptions:
        Corrupted cache entries encountered and healed (unlinked /
        deleted) during reads, summed over tiers.
    cache_evictions:
        Entries this run's activity pushed out of a tier's LRU cap,
        summed over tiers.
    cache_tiers:
        Per-tier breakdown of this run's cache activity:
        ``{tier: {op: count}}`` over the
        :data:`~repro.runtime.tiers.TIER_NAMES` /
        :data:`~repro.runtime.tiers.TIER_OPS` vocabularies.  Empty for
        cache-off runs.
    dedup_hits:
        Supernode computations this run *did not* execute because the
        fleet's singleflight layer let it splice a verified result in
        flight: another request's, or that of an earlier supernode with
        the same signature in this run's own wavefront.
    dedup_retries:
        Singleflight waits that ended in a failed or unshareable flight,
        forcing this run to recompute independently.
    claims:
        Cross-daemon singleflight counters: ``won`` (leases this run
        acquired and computed under), ``held`` (keys found leased to
        another daemon), ``hits`` (records spliced from a foreign
        daemon's compute), ``reaped`` (stale leases taken over),
        ``released`` (leases returned).  Empty when claims never
        engaged (cache off or read-only, or claims disabled).
    failures:
        One :class:`FailureReport` row per recovered runtime failure
        (budget breaches resynthesized via the degradation ladder,
        worker-pool deaths recovered by respawn/retry or serial
        fallback); empty on a clean run.
    pass_observer:
        Optional callback invoked with each :class:`PassTelemetry` row
        as the stage loop completes the stage (see
        :meth:`note_pass`).  The serve daemon uses it to stream per-pass
        progress while a job is still running; ``None`` (default) for
        ordinary runs.
    """

    jobs: int = 1
    cache_mode: str = "off"
    stage_seconds: Dict[str, float] = field(default_factory=dict)
    passes: List[PassTelemetry] = field(default_factory=list)
    wavefront_widths: List[int] = field(default_factory=list)
    supernodes: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    cache_puts: int = 0
    cache_rejected: int = 0
    cache_corruptions: int = 0
    cache_evictions: int = 0
    cache_tiers: Dict[str, Dict[str, int]] = field(default_factory=dict)
    dedup_hits: int = 0
    dedup_retries: int = 0
    claims: Dict[str, int] = field(default_factory=dict)
    failures: List[FailureReport] = field(default_factory=list)
    pass_observer: Optional[Callable[[PassTelemetry], None]] = field(
        default=None, repr=False, compare=False
    )

    def note_pass(self, row: PassTelemetry) -> None:
        """Record one completed pass and notify the observer (if any).

        Observer exceptions are swallowed: telemetry consumers (a
        dropped event-stream client, a full pipe) must never be able to
        abort a synthesis run.
        """
        self.passes.append(row)
        if self.pass_observer is not None:
            try:
                self.pass_observer(row)
            except Exception:
                pass

    def add_stage(self, name: str, seconds: float) -> None:
        """Accumulate wall time into stage ``name``."""
        self.stage_seconds[name] = self.stage_seconds.get(name, 0.0) + seconds

    @contextmanager
    def stage(self, name: str) -> Iterator[None]:
        """Context manager timing one stage (accumulating)."""
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.add_stage(name, time.perf_counter() - t0)

    @property
    def max_wavefront_width(self) -> int:
        return max(self.wavefront_widths, default=0)

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready snapshot of the whole run (for ``--stats-json``).

        The top-level key set is the versioned contract
        :data:`RUNTIME_STATS_KEYS`; ``"schema"`` / ``"version"`` stamp
        the contract version and the producing package version.
        """
        return {
            "schema": STATS_SCHEMA,
            "version": __version__,
            "jobs": self.jobs,
            "cache_mode": self.cache_mode,
            "stage_seconds": dict(self.stage_seconds),
            "passes": [p.as_dict() for p in self.passes],
            "wavefront_widths": list(self.wavefront_widths),
            "supernodes": self.supernodes,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "cache_puts": self.cache_puts,
            "cache_rejected": self.cache_rejected,
            "cache_corruptions": self.cache_corruptions,
            "cache_evictions": self.cache_evictions,
            "cache_tiers": {
                tier: dict(ops) for tier, ops in self.cache_tiers.items()
            },
            "dedup_hits": self.dedup_hits,
            "dedup_retries": self.dedup_retries,
            "claims": dict(self.claims),
            "failures": [f.as_dict() for f in self.failures],
        }

    def render(self) -> str:
        """Human-readable multi-line summary (for ``--stats``)."""
        lines = [f"runtime: jobs={self.jobs} cache={self.cache_mode}"]
        for name, seconds in self.stage_seconds.items():
            lines.append(f"  stage {name:<12s} {seconds:8.3f}s")
        if self.passes:
            lines.append(
                f"  {'pass':<10s} {'time_s':>8s} {'verify_s':>9s} "
                f"{'rss_kb':>9s} {'bdd_nodes':>10s} {'cache_hit%':>10s}"
            )
            for p in self.passes:
                lines.append(
                    f"  {p.name:<10s} {p.seconds:8.3f} {p.verify_seconds:9.3f} "
                    f"{p.rss_delta_kb:9d} {p.bdd_nodes_created:10d} "
                    f"{100.0 * p.cache_hit_rate:9.1f}%"
                )
        if self.wavefront_widths:
            widths = self.wavefront_widths
            lines.append(
                f"  wavefronts {len(widths)} (max width {max(widths)}, "
                f"mean {sum(widths) / len(widths):.1f})"
            )
        lines.append(f"  supernodes {self.supernodes}")
        if self.cache_mode != "off":
            lines.append(
                f"  cache hits={self.cache_hits} misses={self.cache_misses} "
                f"puts={self.cache_puts} rejected={self.cache_rejected} "
                f"corruptions={self.cache_corruptions} "
                f"evictions={self.cache_evictions}"
            )
            for tier, ops in self.cache_tiers.items():
                busy = {op: n for op, n in ops.items() if n}
                if busy:
                    detail = " ".join(f"{op}={n}" for op, n in busy.items())
                    lines.append(f"    tier {tier:<7s} {detail}")
        if self.dedup_hits or self.dedup_retries:
            lines.append(
                f"  dedup hits={self.dedup_hits} retries={self.dedup_retries}"
            )
        if self.claims:
            detail = " ".join(f"{k}={v}" for k, v in sorted(self.claims.items()))
            lines.append(f"  claims {detail}")
        if self.failures:
            lines.append(f"  failures recovered: {len(self.failures)}")
            for report in self.failures:
                lines.append(f"    {report.render()}")
        return "\n".join(lines)
