#!/usr/bin/env python3
"""Two daemons on one cache root: the cross-daemon claim leases.

Spawns **two** real ``ddbdd serve`` daemons, fires duplicate
submissions at both with one shared sqlite cache root, and verifies:

1. **Byte-identical results** — every job completes with depth/area/
   BLIF identical to a clean in-process serial run.
2. **Compute-exactly-once, fleet-wide** — across every job on both
   daemons, the sqlite claim leases coordinate so that each distinct
   signature is computed exactly once:
   ``sum(claims.won + claims.reaped) == len(distinct signatures)``.
   The same invariant is re-read from each daemon's ``/metrics`` fold,
   and the shared lease table must be empty afterwards.

Finally both daemons are SIGTERMed and must drain with exit status 0.

Every HTTP probe runs under a hard timeout and a failure exits nonzero
**naming the check**, mirroring ``ddbdd_doctor.py``.  Pure stdlib; run
as ``PYTHONPATH=src python scripts/shared_root_smoke.py [--circuit NAME]``.
"""

from __future__ import annotations

import argparse
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

DEFAULT_PROBE_TIMEOUT_S = 60.0

_CHECKS: List[str] = []


def check(label: str, ok: bool, detail: str = "") -> None:
    _CHECKS.append(label)
    mark = "ok" if ok else "FAIL"
    print(f"  [{mark}] {label}" + (f" — {detail}" if detail else ""))
    if not ok:
        raise SystemExit(f"shared_root_smoke: check failed: {label} {detail}")


def request(
    port: int, method: str, path: str, payload: Optional[Dict[str, Any]] = None,
    timeout: float = DEFAULT_PROBE_TIMEOUT_S, label: str = "",
) -> Tuple[int, Any]:
    """One HTTP probe under a hard per-check timeout; a hang or socket
    error exits nonzero naming ``label`` instead of tracebacking."""
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
            f"shared_root_smoke: check failed: {what} — probe hung past "
            f"{timeout}s ({exc})"
        ) from exc
    except (ConnectionError, OSError) as exc:
        raise SystemExit(
            f"shared_root_smoke: check failed: {what} — probe error: {exc}"
        ) from exc
    finally:
        conn.close()


def golden_run(circuit: str) -> Tuple[int, int, str]:
    """Serial in-process reference: depth, area, exact BLIF text."""
    from repro.benchgen import build_circuit
    from repro.core.config import DDBDDConfig
    from repro.flow import run_flow
    from repro.network import network_to_blif

    result = run_flow(build_circuit(circuit), DDBDDConfig(faults=None))
    return result.depth, result.area, network_to_blif(result.network)


def spawn_daemon(timeout: float, tag: str) -> Tuple[subprocess.Popen, int]:
    """Start one ``ddbdd serve`` subprocess and return ``(process, bound
    port)``.  A standing fault plan is cleared: fault-armed jobs never
    share results, so they take no claims."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    env.pop("DDBDD_FAULTS", None)
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--port", "0"],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
        cwd=REPO_ROOT,
    )
    assert proc.stdout is not None
    port, line = 0, ""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        line = proc.stdout.readline()
        if not line and proc.poll() is not None:
            raise SystemExit(f"shared_root_smoke: daemon {tag} exited before announcing")
        match = re.search(r"listening on http://[^:]+:(\d+)", line)
        if match:
            port = int(match.group(1))
            break
    check(f"daemon {tag} announces its port", port > 0, line.strip())
    return proc, port


def drain(proc: subprocess.Popen, timeout: float, tag: str) -> None:
    """SIGTERM the daemon and require a clean drain (exit status 0)."""
    proc.send_signal(signal.SIGTERM)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        raise SystemExit(f"shared_root_smoke: daemon {tag} hung on SIGTERM drain")
    check(f"daemon {tag} drains cleanly on SIGTERM",
          proc.returncode == 0 and "drained" in (out or ""),
          f"exit={proc.returncode}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--circuit", default="misex1", help="Table-I circuit to submit")
    parser.add_argument("--dup", type=int, default=3,
                        help="duplicate submissions per daemon")
    parser.add_argument("--timeout", type=float, default=300.0,
                        help="per-step timeout (spawn, submit, poll budget)")
    parser.add_argument(
        "--probe-timeout", type=float, default=DEFAULT_PROBE_TIMEOUT_S,
        help="hard bound per fast HTTP probe; a hang exits nonzero naming the check",
    )
    args = parser.parse_args(argv)

    print(f"shared_root_smoke: golden serial run of {args.circuit!r} ...")
    depth, area, blif = golden_run(args.circuit)
    print(f"shared_root_smoke: golden depth={depth} area={area} blif={len(blif)}B")

    cache_root = tempfile.mkdtemp(prefix="ddbdd_shared_root_smoke_")
    print(f"shared_root_smoke: shared root {cache_root}")

    procs: List[subprocess.Popen] = []
    try:
        daemons = []
        for tag in ("A", "B"):
            proc, port = spawn_daemon(args.timeout, tag)
            procs.append(proc)
            daemons.append((tag, port))

        submit = {
            "benchmark": args.circuit,
            "emit": "blif",
            "config": {"cache": "readwrite", "cache_dir": cache_root},
        }

        # Fire every duplicate async before polling any, so the two
        # daemons race on the shared root and the claim leases — not
        # this script's submit loop — decide who computes what.
        jobs: List[Tuple[str, int, str]] = []
        for _ in range(args.dup):
            for tag, port in daemons:
                status, accepted = request(
                    port, "POST", "/v1/synthesize", submit,
                    timeout=args.timeout,
                    label=f"async submit accepted by daemon {tag}",
                )
                check(f"async submit accepted by daemon {tag}", status == 202)
                jobs.append((tag, port, accepted["job"]["id"]))
        print(f"shared_root_smoke: {len(jobs)} duplicate jobs in flight "
              f"across {len(daemons)} daemons")

        results: List[Dict[str, Any]] = []
        poll_deadline = time.monotonic() + args.timeout
        for tag, port, job_id in jobs:
            snap: Dict[str, Any] = {}
            state = ""
            while time.monotonic() < poll_deadline:
                status, snap = request(
                    port, "GET", f"/v1/jobs/{job_id}",
                    timeout=args.probe_timeout,
                    label=f"job {job_id}@{tag} polls to done",
                )
                state = snap.get("state", "")
                if state in ("done", "failed"):
                    break
                time.sleep(0.1)
            check(f"job {job_id}@{tag} polls to done", state == "done",
                  state or "poll budget exhausted")
            results.append(snap["result"])

        # ---- acceptance 1: byte-identical results --------------------
        check(
            "every job matches the golden depth/area",
            all((r["depth"], r["area"]) == (depth, area) for r in results),
            f"golden={depth}/{area}",
        )
        check(
            "every BLIF byte-identical to golden",
            all(r["blif"] == blif for r in results),
        )

        stats = [r["stats"] for r in results]

        # ---- acceptance 2: compute-exactly-once fleet-wide -----------
        from repro.runtime.tiers import SqliteTier

        store = SqliteTier(cache_root)
        distinct = store.keys()
        check("the shared store holds the run's records",
              len(distinct) > 0, f"{len(distinct)} signatures")
        won = sum(int(s.get("claims", {}).get("won", 0)) for s in stats)
        reaped = sum(int(s.get("claims", {}).get("reaped", 0)) for s in stats)
        check(
            "each signature computed exactly once fleet-wide",
            won + reaped == len(distinct),
            f"won={won} reaped={reaped} distinct={len(distinct)}",
        )
        misses = sum(int(s.get("cache_misses", 0)) for s in stats)
        check(
            "claim telemetry accounts for every cache miss",
            won + reaped <= misses,
            f"misses={misses}",
        )
        check(
            "no lease left behind in the shared store",
            all(store.claim_state(key) is None for key in distinct),
        )

        # The daemons' own /metrics folds must tell the same story.
        metrics_won = metrics_reaped = 0
        for tag, port in daemons:
            status, payload = request(
                port, "GET", "/metrics",
                timeout=args.probe_timeout, label=f"/metrics on daemon {tag}",
            )
            check(f"/metrics on daemon {tag}", status == 200)
            claims = payload.get("claims", {})
            metrics_won += int(claims.get("won", 0))
            metrics_reaped += int(claims.get("reaped", 0))
        check(
            "daemon metrics agree on compute-exactly-once",
            metrics_won + metrics_reaped == len(distinct),
            f"won={metrics_won} reaped={metrics_reaped}",
        )

        for proc, (tag, _) in zip(list(procs), daemons):
            drain(proc, args.timeout, tag)
            procs.remove(proc)

        print(f"shared_root_smoke: all {len(_CHECKS)} checks passed "
              f"({len(jobs)} duplicate jobs, {len(distinct)} signatures)")
        return 0
    finally:
        for proc in procs:
            proc.kill()
            proc.wait()
        shutil.rmtree(cache_root, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
