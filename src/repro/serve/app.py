"""The synthesis daemon: ``ddbdd serve``.

A pure-stdlib asyncio HTTP/1.1 server exposing the DDBDD flow as a
service.  One event loop owns every data structure (the
:class:`~repro.serve.queue.JobQueue`, the
:class:`~repro.serve.metrics.MetricsRegistry`, each job's event list);
synthesis itself runs in worker threads via :func:`asyncio.to_thread`,
and the only bridge back is ``loop.call_soon_threadsafe`` — so no lock
is ever taken around the bookkeeping.

Endpoints (all JSON; see :mod:`repro.serve.protocol` for the bodies):

=======================  ====================================================
``POST /v1/synthesize``  submit a job (``mode: "async"`` → 202 + job id,
                         ``mode: "sync"`` → block until the job finishes)
``GET /v1/jobs/<id>``    job snapshot: state, per-pass telemetry so far,
                         result or structured error
``GET /v1/jobs/<id>/events``  newline-JSON event stream (chunked); replays
                         the job's history, then follows it live until the
                         job reaches a terminal state
``GET /healthz``         liveness: version, uptime, queue gauges
``GET /metrics``         aggregated telemetry — JSON by default,
                         Prometheus text with ``?format=prometheus``
=======================  ====================================================

Shutdown is drain-based: SIGTERM (or :meth:`SynthesisServer.request_shutdown`)
stops admission (submits get a structured 503), lets running and queued
jobs finish, then closes the listener.  A second signal aborts hard.
"""

from __future__ import annotations

import asyncio
import json
import sys
import time
from dataclasses import dataclass
from typing import Any, Awaitable, Callable, Dict, Optional
from urllib.parse import parse_qs, urlsplit

from repro._version import __version__
from repro.serve.metrics import MetricsRegistry
from repro.serve.protocol import (
    PROTOCOL_SCHEMA,
    ProtocolError,
    SubmitRequest,
    error_payload,
    parse_submit,
)
from repro.serve.queue import DONE, JobQueue, QuotaError, ServeJob

#: Largest accepted request body (BLIF circuits are text; 16 MiB is far
#: beyond any benchmark in the paper's tables).
MAX_BODY_BYTES = 16 * 1024 * 1024

#: Per-connection header/body read timeout.
READ_TIMEOUT_S = 30.0

#: Ambient recursion limit while serving.  The DP's
#: ``recursion_headroom`` regions are scoped raises that restore the
#: limit on exit — correct for one synthesis at a time, racy when two
#: worker threads overlap (one thread's restore can yank the other's
#: headroom away mid-recursion).  Raising the ambient limit once at
#: server start turns every scoped raise into a no-op, which is exactly
#: what ``tests/conftest.py`` does for the test suite.
SERVE_RECURSION_LIMIT = 100_000


@dataclass
class ServerConfig:
    """Deployment policy for one :class:`SynthesisServer`."""

    host: str = "127.0.0.1"
    #: TCP port; 0 binds an ephemeral port (read it back from
    #: :attr:`SynthesisServer.port` / the CLI's ``listening on`` line).
    port: int = 8750
    #: Jobs executing concurrently (worker threads).
    max_workers: int = 2
    #: Per-tenant concurrent-job cap.
    tenant_concurrency: int = 1
    #: Per-tenant waiting-job cap (submits beyond it get 429).
    tenant_queue_limit: int = 64
    #: Global waiting-job cap.
    max_queue_depth: int = 256
    #: Terminal jobs kept addressable before eviction.
    keep_finished: int = 512


class SynthesisServer:
    """The daemon: HTTP front end + dispatcher around a
    :class:`~repro.serve.queue.JobQueue`.

    Lifecycle::

        server = SynthesisServer(ServerConfig(port=0))
        await server.start()          # binds; server.port is now real
        ...                           # handle requests
        server.request_shutdown()     # or SIGTERM via install_signal_handlers
        await server.run_until_stopped()   # drains, closes the listener
    """

    def __init__(self, config: Optional[ServerConfig] = None) -> None:
        self.config = config or ServerConfig()
        self.queue = JobQueue(
            max_workers=self.config.max_workers,
            tenant_concurrency=self.config.tenant_concurrency,
            tenant_queue_limit=self.config.tenant_queue_limit,
            max_queue_depth=self.config.max_queue_depth,
            keep_finished=self.config.keep_finished,
        )
        self.metrics = MetricsRegistry()
        self.started_m = time.monotonic()
        self.draining = False
        self._server: Optional[asyncio.AbstractServer] = None
        # Loop-bound primitives are created in start() so the server can
        # be constructed anywhere (Python 3.9 binds them at creation).
        self._cond: Optional[asyncio.Condition] = None
        self._stop: Optional[asyncio.Event] = None
        self._notify_pending = False
        self._tasks: "set[asyncio.Task[None]]" = set()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Bind the listener (``config.port`` 0 → ephemeral port)."""
        sys.setrecursionlimit(max(sys.getrecursionlimit(), SERVE_RECURSION_LIMIT))
        self._cond = asyncio.Condition()
        self._stop = asyncio.Event()
        self.started_m = time.monotonic()
        self._server = await asyncio.start_server(
            self._handle_connection, host=self.config.host, port=self.config.port
        )

    @property
    def port(self) -> int:
        """The actually bound TCP port (after :meth:`start`)."""
        assert self._server is not None and self._server.sockets
        return int(self._server.sockets[0].getsockname()[1])

    def request_shutdown(self) -> None:
        """Begin a graceful drain (idempotent; SIGTERM handler)."""
        self.draining = True
        if self._stop is not None:
            self._stop.set()
        self._kick()

    def install_signal_handlers(self) -> None:
        """Route SIGTERM/SIGINT to :meth:`request_shutdown` (first
        signal drains; a second aborts the process hard)."""
        import signal

        loop = asyncio.get_running_loop()

        def _on_signal() -> None:
            if self.draining:
                raise SystemExit(130)
            self.request_shutdown()

        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(sig, _on_signal)
            except NotImplementedError:  # pragma: no cover - non-Unix loops
                pass

    async def wait_drained(self) -> None:
        """Block until no job is waiting or running."""
        assert self._cond is not None
        async with self._cond:
            await self._cond.wait_for(lambda: self.queue.idle)

    async def run_until_stopped(self) -> None:
        """Serve until :meth:`request_shutdown`, then drain and close."""
        assert self._stop is not None, "call start() first"
        await self._stop.wait()
        await self.wait_drained()
        assert self._server is not None
        self._server.close()
        await self._server.wait_closed()

    # ------------------------------------------------------------------
    # loop-thread bookkeeping
    # ------------------------------------------------------------------
    def _kick(self) -> None:
        """Wake every condition waiter (loop thread only).

        ``Condition.notify_all`` needs the lock, which a plain callback
        cannot take — so coalesce into one notifier task.  State is
        mutated before the kick on the same thread, so the (single)
        pending notifier always observes the newest state.
        """
        if self._cond is None or self._notify_pending:
            return
        self._notify_pending = True

        async def _notify() -> None:
            assert self._cond is not None
            async with self._cond:
                self._notify_pending = False
                self._cond.notify_all()

        self._spawn(_notify())

    def _spawn(self, coro: "Awaitable[None]") -> None:
        """Create a task the server keeps a strong reference to."""
        task = asyncio.get_running_loop().create_task(coro)  # type: ignore[arg-type]
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)

    def _record_event(self, job: ServeJob, payload: Dict[str, object]) -> None:
        """Append one event row to the job's stream and wake waiters."""
        row: Dict[str, object] = {
            "schema": PROTOCOL_SCHEMA,
            "job": job.id,
            "t": round(time.monotonic() - self.started_m, 4),
        }
        row.update(payload)
        job.events.append(row)
        self._kick()

    def _note_pass(self, job: ServeJob, row: Dict[str, object]) -> None:
        """A pass finished inside the worker thread (marshalled here via
        ``call_soon_threadsafe``): surface it to pollers and streamers
        while the job is still running."""
        job.passes.append(row)
        self._record_event(job, {"event": "pass", "pass": row})

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    def _pump(self) -> None:
        """Start every currently runnable job (loop thread only)."""
        while True:
            job = self.queue.next_runnable()
            if job is None:
                return
            self.queue.mark_running(job)
            self._record_event(job, {"event": "state", "state": "running"})
            self._spawn(self._run_job(job))

    async def _run_job(self, job: ServeJob) -> None:
        loop = asyncio.get_running_loop()

        def observer(row: Any) -> None:
            # Worker thread → loop thread; PassTelemetry.as_dict() is
            # built here so the loop only ever sees plain dicts.
            loop.call_soon_threadsafe(self._note_pass, job, row.as_dict())

        try:
            result = await asyncio.to_thread(_execute, job.request, observer)
        except Exception as exc:
            job.error = error_payload(exc)
            self.queue.mark_finished(job, ok=False)
        else:
            job.result = result
            self.queue.mark_finished(job, ok=True)
            stats = result.get("stats")
            if isinstance(stats, dict):
                self.metrics.observe(stats)
        self._record_event(
            job,
            {"event": "state", "state": job.state, "error": job.error},
        )
        self._pump()
        self._kick()

    # ------------------------------------------------------------------
    # HTTP plumbing
    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            await self._handle_request(reader, writer)
        except (ConnectionError, asyncio.IncompleteReadError, asyncio.TimeoutError):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _handle_request(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            request_line = await asyncio.wait_for(
                reader.readline(), timeout=READ_TIMEOUT_S
            )
            if not request_line.strip():
                return
            parts = request_line.decode("latin-1").split()
            if len(parts) != 3:
                await self._send_error(
                    writer, ProtocolError(400, "bad_request", "malformed request line")
                )
                return
            method, target = parts[0].upper(), parts[1]
            headers: Dict[str, str] = {}
            while True:
                line = await asyncio.wait_for(reader.readline(), timeout=READ_TIMEOUT_S)
                if line in (b"\r\n", b"\n", b""):
                    break
                name, _, value = line.decode("latin-1").partition(":")
                headers[name.strip().lower()] = value.strip()
            length = int(headers.get("content-length") or 0)
            if length > MAX_BODY_BYTES:
                await self._send_error(
                    writer,
                    ProtocolError(
                        413, "too_large", f"body exceeds {MAX_BODY_BYTES} bytes"
                    ),
                )
                return
            body = b""
            if length:
                body = await asyncio.wait_for(
                    reader.readexactly(length), timeout=READ_TIMEOUT_S
                )
        except (asyncio.TimeoutError, asyncio.IncompleteReadError, ValueError):
            return
        try:
            await self._route(method, target, headers, body, writer)
        except ProtocolError as exc:
            await self._send_error(writer, exc)

    async def _route(
        self,
        method: str,
        target: str,
        headers: Dict[str, str],
        body: bytes,
        writer: asyncio.StreamWriter,
    ) -> None:
        url = urlsplit(target)
        path = url.path.rstrip("/") or "/"
        query = parse_qs(url.query)
        if path == "/v1/synthesize":
            if method != "POST":
                raise ProtocolError(405, "method_not_allowed", "use POST")
            await self._handle_submit(body, writer)
            return
        if method != "GET":
            raise ProtocolError(405, "method_not_allowed", "use GET")
        if path == "/healthz":
            await self._send_json(writer, 200, self._healthz())
            return
        if path == "/metrics":
            await self._handle_metrics(query, headers, writer)
            return
        if path.startswith("/v1/jobs/"):
            rest = path[len("/v1/jobs/") :]
            if rest.endswith("/events"):
                await self._handle_events(rest[: -len("/events")], writer)
                return
            await self._send_json(writer, 200, self._job(rest).snapshot(self.started_m))
            return
        raise ProtocolError(404, "not_found", f"no route for {method} {path}")

    def _job(self, job_id: str) -> ServeJob:
        job = self.queue.jobs.get(job_id)
        if job is None:
            raise ProtocolError(404, "unknown_job", f"no job {job_id!r}")
        return job

    def _healthz(self) -> Dict[str, object]:
        totals = self.queue.totals()
        return {
            "schema": PROTOCOL_SCHEMA,
            "version": __version__,
            "state": "draining" if self.draining else "serving",
            "uptime_s": round(time.monotonic() - self.started_m, 3),
            "queue_depth": totals["depth"],
            "running": totals["running"],
            "served": totals["served"],
            "failed": totals["failed"],
            "rejected": totals["rejected"],
        }

    async def _handle_metrics(
        self,
        query: Dict[str, "list[str]"],
        headers: Dict[str, str],
        writer: asyncio.StreamWriter,
    ) -> None:
        totals = self.queue.totals()
        wants_prom = query.get("format", [""])[0] == "prometheus" or (
            "text/plain" in headers.get("accept", "")
        )
        if wants_prom:
            text = self.metrics.render_prometheus(totals)
            await self._send_raw(
                writer, 200, text.encode(), "text/plain; version=0.0.4; charset=utf-8"
            )
            return
        payload = self.metrics.snapshot()
        payload["queue"] = totals
        payload["tenants"] = {
            name: stats.as_dict() for name, stats in sorted(self.queue.tenants.items())
        }
        # Process-lifetime fleet counters (shared across every job this
        # daemon ran): singleflight dedup totals, in-flight gauges.
        from repro.runtime.fleet import get_fleet

        payload["fleet"] = get_fleet().snapshot()
        await self._send_json(writer, 200, payload)

    async def _handle_submit(
        self, body: bytes, writer: asyncio.StreamWriter
    ) -> None:
        if self.draining:
            raise ProtocolError(
                503, "draining", "server is draining and accepts no new jobs"
            )
        try:
            payload = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ProtocolError(400, "invalid_json", f"body is not JSON: {exc}") from exc
        request = parse_submit(payload)
        try:
            job = self.queue.submit(request)
        except QuotaError as exc:
            code = "queue_full" if exc.scope == "queue" else "quota_exceeded"
            raise ProtocolError(429, code, exc.message) from exc
        self._record_event(job, {"event": "state", "state": "queued"})
        self._pump()
        if request.mode == "sync":
            assert self._cond is not None
            async with self._cond:
                await self._cond.wait_for(lambda: job.terminal)
            status = 200 if job.state == DONE else 500
            await self._send_json(writer, status, job.snapshot(self.started_m))
            return
        await self._send_json(
            writer,
            202,
            {"schema": PROTOCOL_SCHEMA, "job": job.snapshot(self.started_m)},
        )

    async def _handle_events(
        self, job_id: str, writer: asyncio.StreamWriter
    ) -> None:
        job = self._job(job_id)
        writer.write(
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: application/x-ndjson\r\n"
            b"Transfer-Encoding: chunked\r\n"
            b"Connection: close\r\n\r\n"
        )
        await writer.drain()
        cursor = 0
        assert self._cond is not None
        while True:
            while cursor < len(job.events):
                chunk = (json.dumps(job.events[cursor], sort_keys=True) + "\n").encode()
                writer.write(b"%x\r\n%s\r\n" % (len(chunk), chunk))
                cursor += 1
            await writer.drain()
            if job.terminal and cursor == len(job.events):
                break
            async with self._cond:
                await self._cond.wait_for(
                    lambda: cursor < len(job.events) or job.terminal
                )
        writer.write(b"0\r\n\r\n")
        await writer.drain()

    # ------------------------------------------------------------------
    # response helpers
    # ------------------------------------------------------------------
    _REASONS = {
        200: "OK",
        202: "Accepted",
        400: "Bad Request",
        404: "Not Found",
        405: "Method Not Allowed",
        413: "Payload Too Large",
        429: "Too Many Requests",
        500: "Internal Server Error",
        503: "Service Unavailable",
    }

    async def _send_raw(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        body: bytes,
        content_type: str,
    ) -> None:
        reason = self._REASONS.get(status, "Unknown")
        head = (
            f"HTTP/1.1 {status} {reason}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: close\r\n\r\n"
        )
        writer.write(head.encode("latin-1") + body)
        await writer.drain()

    async def _send_json(
        self, writer: asyncio.StreamWriter, status: int, payload: Dict[str, object]
    ) -> None:
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        await self._send_raw(writer, status, body, "application/json")

    async def _send_error(
        self, writer: asyncio.StreamWriter, exc: ProtocolError
    ) -> None:
        try:
            await self._send_json(writer, exc.status, exc.body())
        except (ConnectionError, OSError):  # client went away mid-error
            pass


def _execute(
    request: SubmitRequest, observer: Callable[[Any], None]
) -> Dict[str, object]:
    """Run one job's synthesis (worker thread; no loop state touched).

    Returns the job's ``result`` payload: depth/area, the versioned
    ``RuntimeStats.as_dict()`` snapshot, and — for ``emit: "blif"`` —
    the mapped network's exact BLIF text, byte-identical to what a
    serial ``ddbdd synth -o`` run writes for the same input and config.
    """
    from dataclasses import replace

    from repro.flow import run_flow
    from repro.network import network_to_blif

    assert request.net is not None  # dropped only once the job finishes
    config = request.config
    if config.fleet_weight == 1 and request.priority > 0:
        # Queue priority doubles as the fleet's fair-share admission
        # weight (ISSUE: "quotas become fleet admission weights"): a
        # high-priority job is entitled to a bigger worker share while
        # in flight.  An explicit config.fleet_weight wins unchanged.
        config = replace(config, fleet_weight=1 + request.priority // 10)
    result = run_flow(
        request.net,
        config,
        script=request.pipeline_script,
        observer=observer,
    )
    payload: Dict[str, object] = {
        "depth": result.depth,
        "area": result.area,
        "runtime_s": round(result.runtime_s, 4),
        "stats": result.runtime_stats.as_dict() if result.runtime_stats else {},
    }
    if request.emit == "blif":
        payload["blif"] = network_to_blif(result.network)
    return payload


async def serve_main(config: ServerConfig, announce: Callable[[str], None]) -> int:
    """The ``ddbdd serve`` driver: start, announce, serve until drained."""
    server = SynthesisServer(config)
    await server.start()
    server.install_signal_handlers()
    announce(f"ddbdd serve: listening on http://{config.host}:{server.port}")
    await server.run_until_stopped()
    totals = server.queue.totals()
    announce(
        "ddbdd serve: drained "
        f"(served={totals['served']} failed={totals['failed']} "
        f"rejected={totals['rejected']})"
    )
    return 0


__all__ = ["ServerConfig", "SynthesisServer", "serve_main"]
