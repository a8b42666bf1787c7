"""repro.serve: synthesis-as-a-service — the ``ddbdd serve`` daemon.

A pure-stdlib asyncio HTTP server that accepts BLIF circuits (or named
benchmarks) plus config knobs, runs them through the :mod:`repro.flow`
stages under :mod:`repro.resilience` budgets, and reports per-stage
``pass`` telemetry while jobs are still running.

Layers (each importable and testable on its own):

* :mod:`repro.serve.protocol` — payload validation and the versioned
  JSON wire contract (``PROTOCOL_SCHEMA``); every submit is validated
  completely *before* queueing, and a fresh per-request
  :class:`~repro.core.config.DDBDDConfig` resolves the
  ``DDBDD_JOBS`` / ``DDBDD_FAULTS`` environment at request time.
* :mod:`repro.serve.queue` — priority ordering, per-tenant quotas and
  concurrency caps, fault-plan run-exclusivity; a plain synchronous
  structure driven only from the event-loop thread.
* :mod:`repro.serve.metrics` — constant-space aggregation of every
  served job's ``RuntimeStats`` snapshot; JSON and Prometheus views.
* :mod:`repro.serve.app` — the asyncio HTTP front end, job execution in
  worker threads, event streaming, graceful SIGTERM drain.

Quickstart::

    $ ddbdd serve --port 8750 &
    $ curl -s localhost:8750/v1/synthesize -d \\
        '{"benchmark": "alu4", "mode": "sync", "emit": "blif"}'
"""

from repro.serve.app import ServerConfig, SynthesisServer, serve_main
from repro.serve.metrics import MetricsRegistry
from repro.serve.protocol import (
    CONFIG_ALLOWLIST,
    JOB_SNAPSHOT_KEYS,
    PROTOCOL_SCHEMA,
    ProtocolError,
    SubmitRequest,
    error_payload,
    parse_submit,
)
from repro.serve.queue import JobQueue, QuotaError, ServeJob, TenantStats

__all__ = [
    "CONFIG_ALLOWLIST",
    "JOB_SNAPSHOT_KEYS",
    "PROTOCOL_SCHEMA",
    "JobQueue",
    "MetricsRegistry",
    "ProtocolError",
    "QuotaError",
    "ServeJob",
    "ServerConfig",
    "SubmitRequest",
    "SynthesisServer",
    "TenantStats",
    "error_payload",
    "parse_submit",
    "serve_main",
]
