#!/usr/bin/env python3
"""End-to-end health check for the ``ddbdd serve`` daemon.

Spawns a real daemon subprocess on an ephemeral port, talks to it over
the socket exactly like an operator's curl would, and verifies the
serving contract:

1. the ``listening on`` announcement is printed and parseable;
2. ``/healthz`` reports the package version and a serving state;
3. a sync-submitted Table-I circuit returns depth/area/BLIF
   **byte-identical** to a serial in-process run of the same flow;
4. async submit → poll → result and the event stream work;
5. the tiered cache works end to end: a cache-armed submit materializes
   the sqlite tier on disk, and a repeat submit is served entirely from
   the tier stack (zero misses) with identical BLIF;
6. ``/metrics`` serves both JSON and Prometheus renderings, including
   the per-tier cache counters, fleet dedup telemetry and the claims
   family;
7. SIGTERM drains gracefully: the daemon finishes its work, prints the
   drain summary, and exits 0.

Every HTTP probe runs under its own hard timeout (``--probe-timeout``,
long-running submits under ``--timeout``); a hung endpoint exits
nonzero **naming the check that hung** instead of tracebacking out of a
socket read.

Exit status: 0 when every check passes, 1 otherwise.  Pure stdlib; run
as ``PYTHONPATH=src python scripts/ddbdd_doctor.py [--circuit NAME]``.
"""

from __future__ import annotations

import argparse
import glob
import http.client
import json
import os
import re
import shutil
import signal
import socket
import subprocess
import sys
import tempfile
import time
from typing import Any, Dict, List, Optional, Tuple

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO_ROOT, "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

#: Default hard bound per HTTP probe (fast endpoints: healthz, metrics,
#: polls).  Submits use the looser ``--timeout``.
DEFAULT_PROBE_TIMEOUT_S = 60.0

_CHECKS: List[str] = []


def check(label: str, ok: bool, detail: str = "") -> None:
    _CHECKS.append(label)
    mark = "ok" if ok else "FAIL"
    print(f"  [{mark}] {label}" + (f" — {detail}" if detail else ""))
    if not ok:
        raise SystemExit(f"ddbdd_doctor: check failed: {label} {detail}")


def request(
    port: int, method: str, path: str, payload: Optional[Dict[str, Any]] = None,
    timeout: float = DEFAULT_PROBE_TIMEOUT_S, label: str = "",
) -> Tuple[int, Any]:
    """One HTTP probe under a hard per-check timeout.

    A hang or connection failure exits nonzero naming ``label`` (or the
    method+path) — the doctor's contract is "the failing check is named
    on stderr", never a bare socket traceback.
    """
    what = label or f"{method} {path}"
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        body = json.dumps(payload) if payload is not None else None
        conn.request(method, path, body=body)
        response = conn.getresponse()
        raw = response.read()
        ctype = response.getheader("Content-Type") or ""
        if "json" in ctype and "ndjson" not in ctype:
            return response.status, json.loads(raw)
        return response.status, raw.decode("utf-8")
    except (socket.timeout, TimeoutError) as exc:
        raise SystemExit(
            f"ddbdd_doctor: check failed: {what} — probe hung past "
            f"{timeout}s ({exc})"
        ) from exc
    except (ConnectionError, OSError) as exc:
        raise SystemExit(
            f"ddbdd_doctor: check failed: {what} — probe error: {exc}"
        ) from exc
    finally:
        conn.close()


def golden_run(circuit: str) -> Tuple[int, int, str]:
    """Serial in-process reference: depth, area, exact BLIF text."""
    from repro.benchgen import build_circuit
    from repro.core.config import DDBDDConfig
    from repro.flow import run_flow
    from repro.network import network_to_blif

    result = run_flow(build_circuit(circuit), DDBDDConfig())
    return result.depth, result.area, network_to_blif(result.network)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--circuit", default="misex1", help="Table-I circuit to submit")
    parser.add_argument("--timeout", type=float, default=300.0, help="per-step timeout")
    parser.add_argument(
        "--probe-timeout",
        type=float,
        default=DEFAULT_PROBE_TIMEOUT_S,
        help="hard bound per fast HTTP probe (healthz/metrics/polls); "
        "a hang exits nonzero naming the check",
    )
    args = parser.parse_args(argv)

    from repro.serve.protocol import PROTOCOL_SCHEMA

    print(f"ddbdd_doctor: golden serial run of {args.circuit!r} ...")
    depth, area, blif = golden_run(args.circuit)
    print(f"ddbdd_doctor: golden depth={depth} area={area} blif={len(blif)}B")

    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    cache_root = tempfile.mkdtemp(prefix="ddbdd_doctor_cache_")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--port", "0"],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
        cwd=REPO_ROOT,
    )
    port = 0
    try:
        assert proc.stdout is not None
        deadline = time.monotonic() + args.timeout
        line = ""
        while time.monotonic() < deadline:
            line = proc.stdout.readline()
            if not line and proc.poll() is not None:
                raise SystemExit("ddbdd_doctor: daemon exited before announcing")
            match = re.search(r"listening on http://[^:]+:(\d+)", line)
            if match:
                port = int(match.group(1))
                break
        check("daemon announces its port", port > 0, line.strip())

        status, health = request(
            port, "GET", "/healthz",
            timeout=args.probe_timeout, label="/healthz answers 200",
        )
        check("/healthz answers 200", status == 200)
        check(
            "/healthz carries schema+version",
            health.get("schema") == PROTOCOL_SCHEMA and bool(health.get("version")),
            str(health.get("version")),
        )
        check("daemon is serving", health.get("state") == "serving")

        status, snap = request(
            port,
            "POST",
            "/v1/synthesize",
            {"benchmark": args.circuit, "mode": "sync", "emit": "blif"},
            timeout=args.timeout, label="sync submit answers 200/done",
        )
        check("sync submit answers 200/done", status == 200 and snap["state"] == "done")
        result = snap["result"]
        check(
            "depth/area match golden serial run",
            (result["depth"], result["area"]) == (depth, area),
            f"daemon={result['depth']}/{result['area']} golden={depth}/{area}",
        )
        check("BLIF byte-identical to golden", result["blif"] == blif)
        check(
            "per-pass telemetry present",
            [p["name"] for p in snap["passes"]] == ["sweep", "collapse", "synth", "map"],
        )

        status, accepted = request(
            port, "POST", "/v1/synthesize", {"benchmark": args.circuit},
            timeout=args.timeout, label="async submit answers 202",
        )
        check("async submit answers 202", status == 202)
        job_id = accepted["job"]["id"]
        state = ""
        poll_deadline = time.monotonic() + args.timeout
        while time.monotonic() < poll_deadline:
            status, polled = request(
                port, "GET", f"/v1/jobs/{job_id}",
                timeout=args.probe_timeout, label="async job polls to done",
            )
            state = polled["state"]
            if state in ("done", "failed"):
                break
            time.sleep(0.1)
        check("async job polls to done", state == "done", state)
        status, stream = request(
            port, "GET", f"/v1/jobs/{job_id}/events",
            timeout=args.timeout, label="event stream replays the job",
        )
        events = [json.loads(row) for row in str(stream).strip().splitlines()]
        check(
            "event stream replays the job",
            events[0]["event"] == "state" and events[-1]["state"] == "done",
            f"{len(events)} events",
        )

        cached = {
            "benchmark": args.circuit,
            "mode": "sync",
            "emit": "blif",
            "config": {"cache": "readwrite", "cache_dir": cache_root},
        }
        status, cold = request(port, "POST", "/v1/synthesize", cached,
                               timeout=args.timeout,
                               label="cache-armed submit answers 200/done")
        check("cache-armed submit answers 200/done",
              status == 200 and cold["state"] == "done")
        cold_stats = cold["result"]["stats"]
        check("cold run populates the store",
              cold_stats["cache_puts"] > 0,
              f"puts={cold_stats['cache_puts']}")
        check(
            "sqlite tier materialized on disk",
            bool(glob.glob(os.path.join(cache_root, "v*.sqlite"))),
            ",".join(sorted(os.listdir(cache_root))),
        )
        status, warm = request(port, "POST", "/v1/synthesize", cached,
                               timeout=args.timeout,
                               label="warm repeat answers 200/done")
        check("warm repeat answers 200/done",
              status == 200 and warm["state"] == "done")
        warm_stats = warm["result"]["stats"]
        check(
            "warm repeat served entirely from the tier stack",
            warm_stats["cache_misses"] == 0 and warm_stats["cache_hits"] > 0,
            f"hits={warm_stats['cache_hits']} misses={warm_stats['cache_misses']}",
        )
        tier_hits = {
            tier: counters["hits"]
            for tier, counters in warm_stats["cache_tiers"].items()
        }
        check(
            "tier telemetry attributes the warm hits",
            sum(tier_hits.values()) >= warm_stats["cache_hits"],
            str(tier_hits),
        )
        check("warm BLIF identical to cold", warm["result"]["blif"] == cold["result"]["blif"])

        status, metrics = request(
            port, "GET", "/metrics",
            timeout=args.probe_timeout, label="/metrics JSON aggregates served jobs",
        )
        check(
            "/metrics JSON aggregates served jobs",
            status == 200 and metrics["jobs_observed"] >= 2,
        )
        check(
            "/metrics JSON carries tier + fleet telemetry",
            "cache_tiers" in metrics and "dedup_hits" in metrics
            and metrics["fleet"]["flights_in_flight"] == 0,
        )
        status, prom = request(
            port, "GET", "/metrics?format=prometheus",
            timeout=args.probe_timeout, label="/metrics renders Prometheus text",
        )
        check(
            "/metrics renders Prometheus text",
            status == 200 and "# TYPE ddbdd_jobs_total counter" in str(prom),
        )
        check(
            "Prometheus text exposes tier/dedup families",
            "ddbdd_cache_tier_ops_total" in str(prom)
            and "ddbdd_dedup_total" in str(prom),
        )
        check(
            "Prometheus text exposes the claims family",
            "ddbdd_claims_total" in str(prom),
        )

        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=args.timeout)
        except subprocess.TimeoutExpired:
            check("SIGTERM drains and exits", False, "daemon did not exit")
        tail = proc.stdout.read() or ""
        check("SIGTERM drains and exits 0", proc.returncode == 0, f"rc={proc.returncode}")
        check("drain summary printed", "drained" in tail, tail.strip().splitlines()[-1] if tail.strip() else "")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        shutil.rmtree(cache_root, ignore_errors=True)

    print(f"ddbdd_doctor: all {len(_CHECKS)} checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
