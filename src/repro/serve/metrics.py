"""Daemon-lifetime metrics aggregation (``GET /metrics``).

Every finished job folds its :class:`~repro.runtime.stats.RuntimeStats`
snapshot (the same versioned ``as_dict()`` payload ``--stats-json``
emits — one contract, two consumers) into a :class:`MetricsRegistry`.
The registry keeps only sums and counters, never per-job rows, so its
memory footprint is constant over daemon lifetime.

Two renderings of the same counters:

* :meth:`MetricsRegistry.snapshot` — JSON (stamped with the telemetry
  ``schema`` and package ``version``), merged with the queue's
  admission totals by the HTTP layer;
* :meth:`MetricsRegistry.render_prometheus` — Prometheus text
  exposition (``ddbdd_*`` families) for scrape-based collection,
  selected via ``GET /metrics?format=prometheus`` or an
  ``Accept: text/plain`` header.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Mapping, Tuple

from repro.runtime.stats import STATS_SCHEMA
from repro._version import __version__

#: RuntimeStats counters summed 1:1 into the registry.
_CACHE_COUNTERS = (
    "cache_hits",
    "cache_misses",
    "cache_puts",
    "cache_rejected",
    "cache_corruptions",
    "cache_evictions",
)

#: Singleflight counters summed 1:1 into the registry (schema 2).
_DEDUP_COUNTERS = ("dedup_hits", "dedup_retries")


class MetricsRegistry:
    """Constant-space aggregation of per-job telemetry.

    Single-threaded by contract, like :class:`~repro.serve.queue.JobQueue`:
    only the event-loop thread folds snapshots in.
    """

    def __init__(self) -> None:
        self.started_m = time.monotonic()
        self.jobs_observed = 0
        self.supernodes = 0
        self.failures_recovered = 0
        self.cache: Dict[str, int] = {k: 0 for k in _CACHE_COUNTERS}
        self.dedup: Dict[str, int] = {k: 0 for k in _DEDUP_COUNTERS}
        #: tier name -> op name -> count (schema 2 ``cache_tiers``).
        self.cache_tiers: Dict[str, Dict[str, int]] = {}
        #: Cross-daemon singleflight claim events summed over jobs
        #: (schema 3 ``claims``: won/held/hits/reaped/released).
        self.claims: Dict[str, int] = {}
        #: Complement-edge store counters (see DESIGN.md §7): free
        #: negations and shared rows summed over jobs; the peak store
        #: column footprint of any single pass.
        self.bdd_neg_free = 0
        self.bdd_unique_saved = 0
        self.bdd_store_bytes_peak = 0
        #: name -> (calls, wall seconds, verify seconds) per pass.
        self.pass_seconds: Dict[str, List[float]] = {}
        #: stage name -> accumulated wall seconds.
        self.stage_seconds: Dict[str, float] = {}
        #: FailureReport ``kind`` -> count.
        self.failure_kinds: Dict[str, int] = {}

    @property
    def uptime_s(self) -> float:
        return time.monotonic() - self.started_m

    def observe(self, stats: Mapping[str, Any]) -> None:
        """Fold one finished job's ``RuntimeStats.as_dict()`` payload in."""
        self.jobs_observed += 1
        self.supernodes += int(stats.get("supernodes", 0))
        for key in _CACHE_COUNTERS:
            self.cache[key] += int(stats.get(key, 0))
        for key in _DEDUP_COUNTERS:
            self.dedup[key] += int(stats.get(key, 0))
        for tier, ops in dict(stats.get("cache_tiers", {})).items():
            cell = self.cache_tiers.setdefault(str(tier), {})
            for op, count in dict(ops).items():
                cell[str(op)] = cell.get(str(op), 0) + int(count)
        for event, count in dict(stats.get("claims", {})).items():
            self.claims[str(event)] = self.claims.get(str(event), 0) + int(count)
        for name, seconds in dict(stats.get("stage_seconds", {})).items():
            self.stage_seconds[name] = self.stage_seconds.get(name, 0.0) + float(seconds)
        last_unique_saved = 0
        for row in stats.get("passes", []):
            name = str(row.get("name", "?"))
            cell = self.pass_seconds.setdefault(name, [0.0, 0.0, 0.0])
            cell[0] += 1.0
            cell[1] += float(row.get("seconds", 0.0))
            cell[2] += float(row.get("verify_seconds", 0.0))
            self.bdd_neg_free += int(row.get("bdd_neg_free", 0))
            # unique_saved/store_bytes are end-of-pass gauges: the
            # job's contribution is its final pass's value / its peak.
            last_unique_saved = int(row.get("bdd_unique_saved", last_unique_saved))
            self.bdd_store_bytes_peak = max(
                self.bdd_store_bytes_peak, int(row.get("bdd_store_bytes", 0))
            )
        self.bdd_unique_saved += last_unique_saved
        for failure in stats.get("failures", []):
            kind = str(failure.get("kind", "?"))
            self.failure_kinds[kind] = self.failure_kinds.get(kind, 0) + 1
            self.failures_recovered += 1

    def snapshot(self) -> Dict[str, object]:
        """The JSON view of the aggregated counters.

        Shares the ``--stats-json`` contract version
        (:data:`repro.runtime.stats.STATS_SCHEMA`): the cache counter
        keys and pass/stage vocabularies are the same ones a single
        run's payload uses, just summed over every job served.
        """
        return {
            "schema": STATS_SCHEMA,
            "version": __version__,
            "uptime_s": round(self.uptime_s, 3),
            "jobs_observed": self.jobs_observed,
            "supernodes": self.supernodes,
            "failures_recovered": self.failures_recovered,
            "failure_kinds": dict(self.failure_kinds),
            **{k: v for k, v in self.cache.items()},
            **{k: v for k, v in self.dedup.items()},
            "cache_tiers": {
                tier: dict(sorted(ops.items()))
                for tier, ops in sorted(self.cache_tiers.items())
            },
            "claims": dict(sorted(self.claims.items())),
            "bdd_neg_free": self.bdd_neg_free,
            "bdd_unique_saved": self.bdd_unique_saved,
            "bdd_store_bytes_peak": self.bdd_store_bytes_peak,
            "stage_seconds": {k: round(v, 4) for k, v in self.stage_seconds.items()},
            "passes": {
                name: {
                    "calls": int(cell[0]),
                    "seconds": round(cell[1], 4),
                    "verify_seconds": round(cell[2], 4),
                }
                for name, cell in sorted(self.pass_seconds.items())
            },
        }

    def render_prometheus(self, queue_totals: Mapping[str, int]) -> str:
        """Prometheus text exposition (version 0.0.4) of the registry
        plus the queue's admission totals."""
        lines: List[str] = []

        def emit(name: str, kind: str, help_text: str, samples: "List[Tuple[str, float]]") -> None:
            lines.append(f"# HELP {name} {help_text}")
            lines.append(f"# TYPE {name} {kind}")
            for labels, value in samples:
                text = f"{value:.6f}".rstrip("0").rstrip(".") if isinstance(value, float) else str(value)
                lines.append(f"{name}{labels} {text}")

        emit("ddbdd_uptime_seconds", "gauge", "Daemon uptime.", [("", self.uptime_s)])
        emit(
            "ddbdd_jobs_total",
            "counter",
            "Jobs by terminal disposition.",
            [
                ('{state="served"}', float(queue_totals.get("served", 0))),
                ('{state="failed"}', float(queue_totals.get("failed", 0))),
                ('{state="rejected"}', float(queue_totals.get("rejected", 0))),
            ],
        )
        emit(
            "ddbdd_queue_depth",
            "gauge",
            "Jobs waiting in the queue.",
            [("", float(queue_totals.get("depth", 0)))],
        )
        emit(
            "ddbdd_jobs_running",
            "gauge",
            "Jobs currently executing.",
            [("", float(queue_totals.get("running", 0)))],
        )
        emit(
            "ddbdd_cache_ops_total",
            "counter",
            "Emission-cache operations summed over served jobs.",
            [(f'{{op="{k.removeprefix("cache_")}"}}', float(v)) for k, v in self.cache.items()],
        )
        emit(
            "ddbdd_cache_tier_ops_total",
            "counter",
            "Tiered-cache operations by tier and op, summed over served jobs.",
            [
                (f'{{tier="{tier}",op="{op}"}}', float(count))
                for tier, ops in sorted(self.cache_tiers.items())
                for op, count in sorted(ops.items())
            ]
            or [("", 0.0)],
        )
        emit(
            "ddbdd_claims_total",
            "counter",
            "Cross-daemon singleflight claim events, summed over served jobs.",
            [(f'{{event="{k}"}}', float(v)) for k, v in sorted(self.claims.items())]
            or [("", 0.0)],
        )
        emit(
            "ddbdd_dedup_total",
            "counter",
            "Singleflight outcomes for deduplicated supernode jobs.",
            [
                ('{result="hit"}', float(self.dedup["dedup_hits"])),
                ('{result="retry"}', float(self.dedup["dedup_retries"])),
            ],
        )
        emit(
            "ddbdd_supernodes_total",
            "counter",
            "Supernodes synthesized or replayed, summed over served jobs.",
            [("", float(self.supernodes))],
        )
        emit(
            "ddbdd_failures_recovered_total",
            "counter",
            "Recovered runtime failures by kind.",
            [(f'{{kind="{k}"}}', float(v)) for k, v in sorted(self.failure_kinds.items())]
            or [("", 0.0)],
        )
        emit(
            "ddbdd_bdd_neg_free_total",
            "counter",
            "Negations served as O(1) complement-bit flips, summed over jobs.",
            [("", float(self.bdd_neg_free))],
        )
        emit(
            "ddbdd_bdd_unique_rows_saved_total",
            "counter",
            "Store rows shared between a function and its complement, summed over jobs.",
            [("", float(self.bdd_unique_saved))],
        )
        emit(
            "ddbdd_bdd_store_bytes_peak",
            "gauge",
            "Peak byte footprint of the BDD store columns in any pass.",
            [("", float(self.bdd_store_bytes_peak))],
        )
        emit(
            "ddbdd_pass_seconds_total",
            "counter",
            "Pipeline pass wall time by pass name.",
            [(f'{{pass="{n}"}}', c[1]) for n, c in sorted(self.pass_seconds.items())]
            or [("", 0.0)],
        )
        emit(
            "ddbdd_pass_runs_total",
            "counter",
            "Pipeline pass executions by pass name.",
            [(f'{{pass="{n}"}}', c[0]) for n, c in sorted(self.pass_seconds.items())]
            or [("", 0.0)],
        )
        return "\n".join(lines) + "\n"


__all__ = ["MetricsRegistry"]
