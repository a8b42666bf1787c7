"""MetricsRegistry aggregation and the shared telemetry contract:
``--stats-json`` and ``/metrics`` speak the same versioned schema."""

from __future__ import annotations

import json

from repro import __version__
from repro.benchgen import build_circuit
from repro.core.config import DDBDDConfig
from repro.flow import run_flow
from repro.runtime.stats import (
    FAILURE_REPORT_KEYS,
    PASS_TELEMETRY_KEYS,
    RUNTIME_STATS_KEYS,
    STATS_SCHEMA,
    FailureReport,
    PassTelemetry,
    RuntimeStats,
)
from repro.serve.metrics import MetricsRegistry


def sample_stats() -> dict:
    stats = RuntimeStats(jobs=2, cache_mode="readwrite")
    stats.add_stage("sweep", 0.25)
    stats.add_stage("dp", 1.0)
    stats.note_pass(PassTelemetry(name="sweep", seconds=0.25))
    stats.note_pass(PassTelemetry(name="synth", seconds=1.0, verify_seconds=0.1))
    stats.supernodes = 7
    stats.cache_hits = 3
    stats.cache_puts = 4
    stats.claims = {"won": 4, "released": 4}
    stats.failures.append(
        FailureReport(job="n1", seq=1, kind="budget", reason="deadline", retries=1)
    )
    return stats.as_dict()


class TestSchemaContract:
    """Satellite (a): one versioned key set for every telemetry
    consumer."""

    def test_runtime_stats_keys_are_the_contract(self):
        payload = sample_stats()
        assert tuple(payload) == RUNTIME_STATS_KEYS
        # Schema 5: no "remote" block; cache_tiers is memory and sqlite.
        assert payload["schema"] == STATS_SCHEMA == 5
        assert payload["version"] == __version__

    def test_pass_and_failure_rows_match_contract(self):
        payload = sample_stats()
        assert all(tuple(row) == PASS_TELEMETRY_KEYS for row in payload["passes"])
        assert all(tuple(row) == FAILURE_REPORT_KEYS for row in payload["failures"])

    def test_real_flow_emits_the_contract(self):
        result = run_flow(build_circuit("mux"), DDBDDConfig())
        payload = result.runtime_stats.as_dict()
        assert tuple(payload) == RUNTIME_STATS_KEYS
        assert payload["schema"] == STATS_SCHEMA

    def test_stats_json_cli_emits_schema_and_version(self, capsys):
        from repro.cli import main

        assert main(["synth", "mux", "--stats-json"]) == 0
        last = capsys.readouterr().out.strip().splitlines()[-1]
        payload = json.loads(last)
        assert payload["schema"] == STATS_SCHEMA
        assert payload["version"] == __version__

    def test_metrics_snapshot_emits_schema_and_version(self):
        registry = MetricsRegistry()
        snap = registry.snapshot()
        assert snap["schema"] == STATS_SCHEMA
        assert snap["version"] == __version__

    def test_cli_version_flag(self, capsys):
        import pytest

        from repro.cli import main

        with pytest.raises(SystemExit) as info:
            main(["--version"])
        assert info.value.code == 0
        assert capsys.readouterr().out.strip() == f"ddbdd {__version__}"


class TestAggregation:
    def test_observe_folds_counters(self):
        registry = MetricsRegistry()
        registry.observe(sample_stats())
        registry.observe(sample_stats())
        snap = registry.snapshot()
        assert snap["jobs_observed"] == 2
        assert snap["supernodes"] == 14
        assert snap["cache_hits"] == 6 and snap["cache_puts"] == 8
        assert snap["failures_recovered"] == 2
        assert snap["failure_kinds"] == {"budget": 2}
        assert snap["claims"] == {"released": 8, "won": 8}
        assert snap["passes"]["sweep"]["calls"] == 2
        assert snap["passes"]["synth"]["seconds"] == 2.0
        assert snap["stage_seconds"]["dp"] == 2.0

    def test_empty_registry_snapshot(self):
        snap = MetricsRegistry().snapshot()
        assert snap["jobs_observed"] == 0
        assert snap["passes"] == {} and snap["failure_kinds"] == {}

    def test_prometheus_rendering(self):
        registry = MetricsRegistry()
        registry.observe(sample_stats())
        text = registry.render_prometheus(
            {"served": 1, "failed": 0, "rejected": 2, "depth": 3, "running": 1}
        )
        assert '# TYPE ddbdd_jobs_total counter' in text
        assert 'ddbdd_jobs_total{state="served"} 1' in text
        assert 'ddbdd_jobs_total{state="rejected"} 2' in text
        assert 'ddbdd_queue_depth 3' in text
        assert 'ddbdd_cache_ops_total{op="hits"} 3' in text
        assert 'ddbdd_pass_runs_total{pass="synth"} 1' in text
        assert 'ddbdd_failures_recovered_total{kind="budget"} 1' in text
        assert 'ddbdd_claims_total{event="won"} 4' in text
        assert text.endswith("\n")
