"""The serve daemon's wire protocol: payload parsing and validation.

Every request and response body is JSON; every response carries
``"schema": PROTOCOL_SCHEMA`` so clients can version-check before
parsing further.  Submit payloads are validated *completely* at submit
time — circuit, config knobs, quota fields — so a job that reaches the
queue can only fail for runtime reasons (budget breaches, verification
errors), never for malformed input.  Validation failures raise
:class:`ProtocolError`, which the HTTP layer renders as a structured 4xx
body::

    {"schema": 2, "error": {"status": 400, "code": "invalid_config",
                            "message": "..."}}

Config resolution policy (the per-request environment contract):

* A fresh :class:`~repro.core.config.DDBDDConfig` is constructed for
  **every** submit, so the ``DDBDD_JOBS`` / ``DDBDD_FAULTS``
  environment defaults are read *at request time*, never captured at
  daemon import/startup.  A daemon started with faults disarmed can
  therefore never replay a stale plan, and an operator exporting a
  plan while the daemon runs arms exactly the requests that follow.
* A request may pin any allowlisted knob explicitly
  (``"config": {"jobs": 2, ...}``); an explicit ``"faults": null``
  (or ``""`` / ``false``) *disarms* injection for that request even
  under a standing environment plan.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from repro.core.config import DDBDDConfig
from repro.network.netlist import BooleanNetwork

#: Version of the request/response JSON contract (stamped as
#: ``"schema"`` on every response body; see module docstring).
#:
#: Schema 2 (fixed Algorithm 1 flow): the submit payload lost its
#: ``flow`` field (a payload that still sends it gets the
#: ``invalid_request`` unknown-field 400), job descriptions lost their
#: ``flow`` key, the ``invalid_flow`` error code is gone, and
#: ``cache_max_entries`` left :data:`CONFIG_ALLOWLIST`.
PROTOCOL_SCHEMA = 2

#: ``DDBDDConfig`` knobs a request may override via ``"config"``.
#: Everything else is server policy or an internal tunable.
CONFIG_ALLOWLIST = (
    "k",
    "jobs",
    "cache",
    "cache_dir",
    "cache_claims",
    "fleet_weight",
    "verify_level",
    "collapse",
    "final_packing",
    "faults",
)

#: Top-level submit payload keys.
_SUBMIT_KEYS = (
    "circuit",
    "benchmark",
    "tenant",
    "priority",
    "mode",
    "deadline_s",
    "node_budget",
    "config",
    "emit",
)

_MODES = ("async", "sync")
_EMITS = ("none", "blif")
_PRIORITY_RANGE = (-100, 100)
_MAX_TENANT_LEN = 64


class ProtocolError(Exception):
    """A request the daemon refuses, with its HTTP mapping.

    ``status`` is the HTTP status code, ``code`` a stable
    machine-readable slug (``invalid_config``, ``quota_exceeded``, ...),
    ``message`` the human-readable explanation.
    """

    def __init__(self, status: int, code: str, message: str) -> None:
        self.status = status
        self.code = code
        self.message = message
        super().__init__(f"{status} {code}: {message}")

    def body(self) -> Dict[str, object]:
        """The structured JSON error body for this refusal."""
        return {
            "schema": PROTOCOL_SCHEMA,
            "error": {
                "status": self.status,
                "code": self.code,
                "message": self.message,
            },
        }


@dataclass
class SubmitRequest:
    """One fully validated synthesis request, ready to queue.

    ``net`` is the parsed input network, dropped (``None``) once the
    job finishes; ``config`` the per-request :class:`DDBDDConfig`
    (environment defaults already resolved — see the module docstring).
    """

    net: Optional[BooleanNetwork]
    config: DDBDDConfig
    source: str
    tenant: str = "anonymous"
    priority: int = 0
    mode: str = "async"
    emit: str = "none"

    def describe(self) -> Dict[str, object]:
        """JSON-ready summary (job listings, event streams)."""
        return {
            "source": self.source,
            "tenant": self.tenant,
            "priority": self.priority,
            "mode": self.mode,
            "jobs": self.config.effective_jobs,
            "cache": self.config.cache,
            "faults_armed": self.config.faults is not None,
        }


def _expect(condition: bool, code: str, message: str, status: int = 400) -> None:
    if not condition:
        raise ProtocolError(status, code, message)


def _parse_circuit(payload: Dict[str, Any]) -> Tuple[BooleanNetwork, str]:
    """Load the request's network from ``circuit`` BLIF text or a named
    ``benchmark``; exactly one of the two must be present."""
    has_blif = "circuit" in payload
    has_bench = "benchmark" in payload
    _expect(
        has_blif != has_bench,
        "invalid_request",
        "provide exactly one of 'circuit' (BLIF text) or 'benchmark' (name)",
    )
    if has_bench:
        from repro.benchgen import CIRCUITS, build_circuit

        name = payload["benchmark"]
        _expect(
            isinstance(name, str) and name in CIRCUITS,
            "unknown_benchmark",
            f"unknown benchmark {name!r} (see 'ddbdd bench' for the list)",
        )
        return build_circuit(name), f"benchmark:{name}"
    text = payload["circuit"]
    _expect(
        isinstance(text, str) and text.strip() != "",
        "invalid_circuit",
        "'circuit' must be non-empty BLIF text",
    )
    from repro.network import parse_blif

    try:
        net = parse_blif(text, name_hint="request")
        net.check()
    except Exception as exc:
        raise ProtocolError(
            400, "invalid_circuit", f"BLIF did not parse/check: {exc}"
        ) from exc
    return net, "blif"


def _build_config(payload: Dict[str, Any]) -> DDBDDConfig:
    """A fresh per-request config: environment defaults resolved now,
    allowlisted overrides applied, everything validated loudly."""
    overrides: Dict[str, Any] = {}
    raw = payload.get("config", {})
    _expect(isinstance(raw, dict), "invalid_config", "'config' must be an object")
    unknown = sorted(set(raw) - set(CONFIG_ALLOWLIST))
    _expect(
        not unknown,
        "invalid_config",
        f"unknown config key(s): {', '.join(unknown)} "
        f"(allowed: {', '.join(CONFIG_ALLOWLIST)})",
    )
    overrides.update(raw)
    if "faults" in overrides and overrides["faults"] in (None, "", False):
        # Explicit disarm: beats any standing $DDBDD_FAULTS plan.
        overrides["faults"] = None
    if "deadline_s" in payload and payload["deadline_s"] is not None:
        overrides["job_deadline_s"] = payload["deadline_s"]
    if "node_budget" in payload and payload["node_budget"] is not None:
        overrides["job_node_budget"] = payload["node_budget"]
    try:
        # Constructing (not copying) is the point: default factories
        # re-read $DDBDD_JOBS / $DDBDD_FAULTS for THIS request.
        return DDBDDConfig(**overrides)
    except (TypeError, ValueError) as exc:
        raise ProtocolError(400, "invalid_config", str(exc)) from exc


def parse_submit(payload: object) -> SubmitRequest:
    """Validate one ``POST /v1/synthesize`` payload completely.

    Raises :class:`ProtocolError` (→ structured 400) on any violation;
    on success every field of the returned :class:`SubmitRequest` is
    ready for the queue with no further validation needed.
    """
    _expect(isinstance(payload, dict), "invalid_request", "payload must be a JSON object")
    assert isinstance(payload, dict)  # for the type checker
    unknown = sorted(set(payload) - set(_SUBMIT_KEYS))
    _expect(
        not unknown,
        "invalid_request",
        f"unknown field(s): {', '.join(unknown)} (known: {', '.join(_SUBMIT_KEYS)})",
    )

    tenant = payload.get("tenant", "anonymous")
    _expect(
        isinstance(tenant, str)
        and 0 < len(tenant) <= _MAX_TENANT_LEN
        and tenant.replace("-", "").replace("_", "").replace(".", "").isalnum(),
        "invalid_request",
        "'tenant' must be a short identifier ([A-Za-z0-9._-], "
        f"at most {_MAX_TENANT_LEN} chars)",
    )

    priority = payload.get("priority", 0)
    _expect(
        isinstance(priority, int)
        and not isinstance(priority, bool)
        and _PRIORITY_RANGE[0] <= priority <= _PRIORITY_RANGE[1],
        "invalid_request",
        f"'priority' must be an integer in {list(_PRIORITY_RANGE)}",
    )

    mode = payload.get("mode", "async")
    _expect(mode in _MODES, "invalid_request", f"'mode' must be one of {', '.join(_MODES)}")

    emit = payload.get("emit", "none")
    _expect(emit in _EMITS, "invalid_request", f"'emit' must be one of {', '.join(_EMITS)}")

    for key, want in (("deadline_s", (int, float)), ("node_budget", (int,))):
        value = payload.get(key)
        if value is not None and key in payload:
            _expect(
                isinstance(value, want) and not isinstance(value, bool) and value > 0,
                "invalid_request",
                f"'{key}' must be a positive number",
            )

    net, source = _parse_circuit(payload)
    config = _build_config(payload)

    return SubmitRequest(
        net=net,
        config=config,
        source=source,
        tenant=tenant,
        priority=priority,
        mode=mode,
        emit=emit,
    )


def error_payload(exc: BaseException) -> Dict[str, object]:
    """Map a job-execution failure to its structured error object.

    :class:`~repro.analysis.diagnostics.VerificationError` keeps its
    stable ``DDxxx`` diagnostic codes (the DD4xx failure vocabulary of
    DESIGN.md §8); anything else is reported as ``synthesis_error``
    with the exception text.
    """
    from repro.analysis.diagnostics import VerificationError

    if isinstance(exc, VerificationError):
        return {
            "code": "verification_failed",
            "message": str(exc),
            "stage": getattr(exc, "stage", None),
            "diagnostics": [d.describe() for d in exc.diagnostics],
        }
    return {"code": "synthesis_error", "message": f"{type(exc).__name__}: {exc}"}


#: Stable key set of a job snapshot (``GET /v1/jobs/<id>`` and the
#: ``"job"`` object of submit responses) under :data:`PROTOCOL_SCHEMA`.
JOB_SNAPSHOT_KEYS = (
    "schema",
    "id",
    "state",
    "request",
    "queued_s",
    "started_s",
    "finished_s",
    "passes",
    "result",
    "error",
)

__all__ = [
    "CONFIG_ALLOWLIST",
    "JOB_SNAPSHOT_KEYS",
    "PROTOCOL_SCHEMA",
    "ProtocolError",
    "SubmitRequest",
    "error_payload",
    "parse_submit",
]
