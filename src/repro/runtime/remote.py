"""Tier-3 remote cache client: a fault-hardened HTTP shard speaker.

:class:`RemoteClient` talks to the serve daemon's content-addressed
``/v1/cache/<sig>`` endpoints (:mod:`repro.serve.app`), turning any
``ddbdd serve --cache-root`` box into a shared warm shard for a fleet of
cold ones.  It slots under the local tiers of
:class:`~repro.runtime.tiers.TieredEmissionCache` as the last, slowest
rung of the read walk and a best-effort fan-out on writes.

The client is built fault-first — a remote tier must never make
synthesis slower or wronger than a local-only run:

* **Hard deadline.**  Every op runs on a fresh
  :class:`http.client.HTTPConnection` whose socket timeout is the
  configured deadline, so connect and read are each bounded; a dead or
  partitioned shard costs at most a bounded, configured wait.
* **Bounded exponential backoff.**  Transport-level failures (timeout,
  refused, unreachable) are retried up to ``retries`` times with
  deterministic ``backoff_s * 2**attempt`` sleeps.  HTTP-level answers
  are never retried: a shard that *answered* wrongly will answer
  wrongly again.
* **Per-endpoint circuit breaker.**  Each direction (GET / PUT) owns a
  :class:`CircuitBreaker` — closed → open → half-open with
  deterministic thresholds that tick on *op counts*, never wall-clock
  reads, so breaker decisions are reproducible in tests and immune to
  scheduler jitter.  An open breaker skips the network entirely and the
  tier walk degrades to local tiers silently.
* **Trust nothing.**  A fetched body is only ever *parsed* here
  (:class:`~repro.runtime.emission.EmissionRecord` structural
  validation); semantic trust — the ``verify_record`` spot-simulation —
  happens in the tier walk before any tier-1/2 promotion, and a record
  that fails it is fed back via :meth:`RemoteClient.note_quarantine` so
  a byzantine shard trips the breaker like a dead one.

Deterministic fault injection: :func:`repro.resilience.faults.note_remote`
is consulted *before* any real socket I/O, so ``net_timeout`` /
``net_refuse`` / ``net_slow`` / ``net_garbage`` plans exercise the whole
ladder — retry, backoff, breaker trip, degrade-to-local — without a
misbehaving server or a flaky network in the loop.

Pure stdlib, like everything else in the runtime.
"""

from __future__ import annotations

import http.client
import json
import socket
import threading
import time
from dataclasses import dataclass
from typing import Dict, Optional, Tuple
from urllib.parse import urlsplit

from repro.resilience import faults as fault_mod
from repro.runtime.emission import EmissionRecord, RecordError

#: Breaker states (the values of the ``ddbdd_breaker_state`` gauge are
#: their indices in this tuple: closed=0, half_open=1, open=2).
BREAKER_CLOSED = "closed"
BREAKER_HALF_OPEN = "half_open"
BREAKER_OPEN = "open"
BREAKER_STATES = (BREAKER_CLOSED, BREAKER_HALF_OPEN, BREAKER_OPEN)

#: Default ``--remote-breaker`` spec: trip after 3 consecutive failures,
#: stay open for 8 skipped ops, close after 2 successful probes.
DEFAULT_BREAKER_SPEC = "3/8/2"

#: Default hard deadline per remote op (seconds) and transport retries.
DEFAULT_DEADLINE_S = 2.0
DEFAULT_RETRIES = 2

#: First backoff sleep; doubles per retry (0.05, 0.1, 0.2, ...).
DEFAULT_BACKOFF_S = 0.05

#: Failure slugs a remote op can report (the ``reason`` vocabulary of
#: ``kind="remote"`` FailureReport rows, plus ``"breaker_open"`` for a
#: trip and ``"quarantined"`` for a verify-rejected record).
FAULT_TIMEOUT = "timeout"
FAULT_REFUSED = "refused"
FAULT_UNREACHABLE = "unreachable"
FAULT_HTTP_ERROR = "http_error"
FAULT_GARBAGE = "garbage"
FAULT_BREAKER_OPEN = "breaker_open"
FAULT_QUARANTINED = "quarantined"


class RemoteConfigError(ValueError):
    """A malformed remote-tier configuration (URL or breaker spec)."""


@dataclass(frozen=True)
class BreakerPolicy:
    """Deterministic circuit-breaker thresholds (all op counts).

    ``trip_failures`` consecutive failures open the breaker;
    ``cooldown_ops`` *attempted* ops are skipped while open before one
    half-open probe is allowed; ``probe_successes`` consecutive probe
    successes close it again (one probe failure re-opens immediately).
    """

    trip_failures: int = 3
    cooldown_ops: int = 8
    probe_successes: int = 2

    @classmethod
    def parse(cls, spec: str) -> "BreakerPolicy":
        """Parse a ``TRIP/COOLDOWN/PROBE`` spec like ``"3/8/2"``."""
        parts = spec.strip().split("/")
        if len(parts) != 3:
            raise RemoteConfigError(
                f"bad breaker spec {spec!r}: expected TRIP/COOLDOWN/PROBE, e.g. 3/8/2"
            )
        try:
            trip, cooldown, probe = (int(p) for p in parts)
        except ValueError:
            raise RemoteConfigError(
                f"bad breaker spec {spec!r}: all three thresholds must be integers"
            ) from None
        if trip < 1 or cooldown < 1 or probe < 1:
            raise RemoteConfigError(
                f"bad breaker spec {spec!r}: all three thresholds must be >= 1"
            )
        return cls(trip_failures=trip, cooldown_ops=cooldown, probe_successes=probe)

    @property
    def spec(self) -> str:
        return f"{self.trip_failures}/{self.cooldown_ops}/{self.probe_successes}"


class CircuitBreaker:
    """Closed → open → half-open state machine ticking on op counts.

    Not thread-safe by itself; :class:`RemoteClient` serializes access
    under its own lock.  No wall-clock reads anywhere — the cooldown is
    "N ops attempted while open", so the machine's trajectory is a pure
    function of the op/outcome sequence and tests can walk it
    deterministically.
    """

    def __init__(self, policy: BreakerPolicy) -> None:
        self.policy = policy
        self.state = BREAKER_CLOSED
        self._failures = 0  # consecutive failures while closed
        self._cooldown_left = 0  # ops to skip before a half-open probe
        self._probe_hits = 0  # consecutive probe successes
        self.trips = 0  # closed/half-open -> open transitions
        self.closes = 0  # half-open -> closed transitions
        self.open_skips = 0  # ops skipped while open

    def allow(self) -> bool:
        """Whether the next op may touch the network (ticks cooldown)."""
        if self.state == BREAKER_CLOSED:
            return True
        if self.state == BREAKER_OPEN:
            self._cooldown_left -= 1
            if self._cooldown_left > 0:
                self.open_skips += 1
                return False
            self.state = BREAKER_HALF_OPEN
            self._probe_hits = 0
            return True
        return True  # half-open: probe traffic flows

    def record_success(self) -> None:
        if self.state == BREAKER_HALF_OPEN:
            self._probe_hits += 1
            if self._probe_hits >= self.policy.probe_successes:
                self.state = BREAKER_CLOSED
                self._failures = 0
                self.closes += 1
        else:
            self._failures = 0

    def record_failure(self) -> bool:
        """Record one failed op; True when this failure *tripped* the
        breaker (closed/half-open → open), so the caller can emit exactly
        one breaker FailureReport per outage instead of one per op."""
        if self.state == BREAKER_HALF_OPEN:
            self._trip()
            return True
        if self.state == BREAKER_CLOSED:
            self._failures += 1
            if self._failures >= self.policy.trip_failures:
                self._trip()
                return True
        return False

    def _trip(self) -> None:
        self.state = BREAKER_OPEN
        self._cooldown_left = self.policy.cooldown_ops
        self._failures = 0
        self._probe_hits = 0
        self.trips += 1

    def snapshot(self) -> Dict[str, int]:
        """Process-lifetime breaker telemetry (JSON-ready)."""
        return {
            "state": self.state,  # type: ignore[dict-item]
            "trips": self.trips,
            "closes": self.closes,
            "open_skips": self.open_skips,
        }


@dataclass
class RemoteResult:
    """Outcome of one logical remote op (after retries).

    ``fault`` is ``None`` on success (including a GET miss — the shard
    *answered*), else one of the failure slugs above.  ``tripped`` marks
    the op that transitioned the breaker to open.  ``retries`` counts
    extra transport attempts spent (0 on a first-try outcome).
    """

    record: Optional[EmissionRecord] = None
    stored: bool = False
    fault: Optional[str] = None
    tripped: bool = False
    retries: int = 0

    @property
    def ok(self) -> bool:
        return self.fault is None


class _Refused(Exception):
    """Internal: transport refusal (maps to FAULT_REFUSED)."""


class RemoteClient:
    """GET/PUT client for one remote shard URL (see module docstring).

    Thread-safe: breaker decisions and counters are lock-guarded;
    network I/O runs outside the lock so a slow op never serializes the
    fleet's other request threads.
    """

    def __init__(
        self,
        url: str,
        deadline_s: float = DEFAULT_DEADLINE_S,
        retries: int = DEFAULT_RETRIES,
        backoff_s: float = DEFAULT_BACKOFF_S,
        policy: Optional[BreakerPolicy] = None,
    ) -> None:
        parts = urlsplit(url)
        if parts.scheme != "http" or not parts.hostname:
            raise RemoteConfigError(
                f"bad remote cache URL {url!r}: expected http://host[:port][/prefix]"
            )
        self.url = url
        self.host = parts.hostname
        self.port = parts.port or 80
        self.prefix = parts.path.rstrip("/")
        self.deadline_s = float(deadline_s)
        self.retries = int(retries)
        self.backoff_s = float(backoff_s)
        self.policy = policy or BreakerPolicy()
        self._lock = threading.Lock()
        self.breakers: Dict[str, CircuitBreaker] = {
            "get": CircuitBreaker(self.policy),
            "put": CircuitBreaker(self.policy),
        }
        #: Process-lifetime op counters (for ``/metrics`` and doctor).
        self.ops: Dict[str, int] = {
            "gets": 0,
            "hits": 0,
            "misses": 0,
            "puts": 0,
            "stored": 0,
            "errors": 0,
            "retries": 0,
            "breaker_skips": 0,
            "quarantined": 0,
        }

    # ------------------------------------------------------------------
    def _path(self, key: str) -> str:
        return f"{self.prefix}/v1/cache/{key}"

    def _perform(self, op: str, key: str, payload: Optional[bytes]) -> Tuple[int, bytes]:
        """One attempt: consult the fault seam, then do real I/O."""
        fault = fault_mod.note_remote(op)
        if fault is not None:
            if fault.kind == "net_timeout":
                raise socket.timeout("injected net_timeout")
            if fault.kind == "net_refuse":
                raise _Refused("injected net_refuse")
            if fault.kind == "net_slow":
                time.sleep(min(fault.arg, self.deadline_s))
                if fault.arg >= self.deadline_s:
                    raise socket.timeout("injected net_slow past the deadline")
            elif fault.kind == "net_garbage":
                return 200, b'{"cells": [["\x00'
        conn = http.client.HTTPConnection(self.host, self.port, timeout=self.deadline_s)
        try:
            if op == "get":
                conn.request("GET", self._path(key))
            else:
                conn.request(
                    "PUT",
                    self._path(key),
                    body=payload,
                    headers={"Content-Type": "application/json"},
                )
            response = conn.getresponse()
            return response.status, response.read()
        except ConnectionRefusedError as exc:
            raise _Refused(str(exc)) from exc
        finally:
            conn.close()

    def _attempt_loop(self, op: str, key: str, payload: Optional[bytes]) -> Tuple[
        Optional[Tuple[int, bytes]], str, int
    ]:
        """Run the transport retry ladder for one logical op.

        Returns ``(response_or_None, fault_slug, retries_used)`` where
        ``fault_slug`` is ``""`` when a response was obtained.
        """
        fault_slug = ""
        for attempt in range(self.retries + 1):
            if attempt:
                time.sleep(self.backoff_s * (2 ** (attempt - 1)))
            try:
                return self._perform(op, key, payload), "", attempt
            except socket.timeout:
                fault_slug = FAULT_TIMEOUT
            except _Refused:
                fault_slug = FAULT_REFUSED
            except (OSError, http.client.HTTPException):
                fault_slug = FAULT_UNREACHABLE
        return None, fault_slug, self.retries

    def _allow(self, op: str) -> bool:
        with self._lock:
            allowed = self.breakers[op].allow()
            if not allowed:
                self.ops["breaker_skips"] += 1
            return allowed

    def _success(self, op: str) -> None:
        with self._lock:
            self.breakers[op].record_success()

    def _failure(self, op: str, retries: int) -> bool:
        with self._lock:
            self.ops["errors"] += 1
            self.ops["retries"] += retries
            return self.breakers[op].record_failure()

    # ------------------------------------------------------------------
    def get(self, key: str) -> RemoteResult:
        """Fetch one record; never raises.  A miss is a *success* (the
        shard answered); only transport/HTTP/parse failures feed the
        breaker."""
        with self._lock:
            self.ops["gets"] += 1
        if not self._allow("get"):
            return RemoteResult(fault=FAULT_BREAKER_OPEN)
        response, slug, retries = self._attempt_loop("get", key, None)
        if response is None:
            return RemoteResult(
                fault=slug, retries=retries, tripped=self._failure("get", retries)
            )
        status, body = response
        if status == 404:
            self._success("get")
            with self._lock:
                self.ops["misses"] += 1
                self.ops["retries"] += retries
            return RemoteResult(retries=retries)
        if status != 200:
            return RemoteResult(
                fault=FAULT_HTTP_ERROR,
                retries=retries,
                tripped=self._failure("get", retries),
            )
        try:
            record = EmissionRecord.from_json_obj(json.loads(body.decode("utf-8")))
        except (ValueError, RecordError, UnicodeDecodeError):
            return RemoteResult(
                fault=FAULT_GARBAGE,
                retries=retries,
                tripped=self._failure("get", retries),
            )
        self._success("get")
        with self._lock:
            self.ops["hits"] += 1
            self.ops["retries"] += retries
        return RemoteResult(record=record, retries=retries)

    def put(self, key: str, record: EmissionRecord) -> RemoteResult:
        """Best-effort durable fan-out of one record; never raises."""
        with self._lock:
            self.ops["puts"] += 1
        if not self._allow("put"):
            return RemoteResult(fault=FAULT_BREAKER_OPEN)
        payload = json.dumps(record.to_json_obj(), separators=(",", ":")).encode("utf-8")
        response, slug, retries = self._attempt_loop("put", key, payload)
        if response is None:
            return RemoteResult(
                fault=slug, retries=retries, tripped=self._failure("put", retries)
            )
        status, body = response
        if status not in (200, 201, 204):
            return RemoteResult(
                fault=FAULT_HTTP_ERROR,
                retries=retries,
                tripped=self._failure("put", retries),
            )
        try:
            json.loads(body.decode("utf-8")) if body else {}
        except (ValueError, UnicodeDecodeError):
            # A garbled ack: unknown whether the shard stored the record.
            return RemoteResult(
                fault=FAULT_GARBAGE,
                retries=retries,
                tripped=self._failure("put", retries),
            )
        self._success("put")
        with self._lock:
            self.ops["stored"] += 1
            self.ops["retries"] += retries
        return RemoteResult(stored=True, retries=retries)

    def note_quarantine(self) -> bool:
        """A fetched record failed ``verify_record`` downstream: count
        the quarantine and feed the breaker (a byzantine shard is as
        unhealthy as a dead one).  True when this tripped the breaker."""
        with self._lock:
            self.ops["quarantined"] += 1
            return self.breakers["get"].record_failure()

    def breaker_states(self) -> Dict[str, str]:
        with self._lock:
            return {op: br.state for op, br in self.breakers.items()}

    def snapshot(self) -> Dict[str, object]:
        """JSON-ready lifetime telemetry (for ``/metrics`` and healthz)."""
        with self._lock:
            return {
                "url": self.url,
                "deadline_s": self.deadline_s,
                "retries": self.retries,
                "breaker_policy": self.policy.spec,
                "ops": dict(self.ops),
                "breakers": {op: br.snapshot() for op, br in self.breakers.items()},
            }


# ----------------------------------------------------------------------
# Process-wide client registry: one client (and thus one breaker pair)
# per shard URL, shared by every request thread — a breaker is only
# useful if the whole process's traffic feeds the same state machine.
# ----------------------------------------------------------------------
_CLIENTS: Dict[str, RemoteClient] = {}
_CLIENTS_LOCK = threading.Lock()


def client_for(
    url: str,
    deadline_s: float = DEFAULT_DEADLINE_S,
    retries: int = DEFAULT_RETRIES,
    breaker_spec: str = DEFAULT_BREAKER_SPEC,
) -> RemoteClient:
    """The process-wide client for ``url`` (created on first use).

    Later callers with different knobs retune the deadline/retries of
    the existing client (mirroring the fleet store registry's cap
    resize) but never reset breaker state — an outage observed by one
    request protects the next.
    """
    policy = BreakerPolicy.parse(breaker_spec)
    with _CLIENTS_LOCK:
        client = _CLIENTS.get(url)
        if client is None:
            client = RemoteClient(
                url, deadline_s=deadline_s, retries=retries, policy=policy
            )
            _CLIENTS[url] = client
        else:
            client.deadline_s = float(deadline_s)
            client.retries = int(retries)
        return client


def remote_snapshot() -> Dict[str, Dict[str, object]]:
    """Telemetry of every live client, keyed by URL (for ``/metrics``)."""
    with _CLIENTS_LOCK:
        clients = list(_CLIENTS.values())
    return {client.url: client.snapshot() for client in clients}


def reset_remote_clients() -> None:
    """Drop every registered client (tests only)."""
    with _CLIENTS_LOCK:
        _CLIENTS.clear()


__all__ = [
    "BREAKER_CLOSED",
    "BREAKER_HALF_OPEN",
    "BREAKER_OPEN",
    "BREAKER_STATES",
    "BreakerPolicy",
    "CircuitBreaker",
    "DEFAULT_BREAKER_SPEC",
    "DEFAULT_DEADLINE_S",
    "DEFAULT_RETRIES",
    "RemoteClient",
    "RemoteConfigError",
    "RemoteResult",
    "client_for",
    "remote_snapshot",
    "reset_remote_clients",
]
