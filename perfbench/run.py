"""DDBDD benchmark: one command, two workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload cache-rerun --seed 1 --seconds 45 --trace 0

Runs the named workload for about ``--seconds`` seconds of whole rounds,
checks every output it produced, and prints as its last line one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
the run wraps the program's layers (see :mod:`tracer`), reports
per-layer metrics instead and writes its spans under ``.perfbench/``.
The line before the result stamps the host (``nproc``, Python version)
and the run's shape.  See README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Environment knobs that would change what the program does under the
#: benchmark (worker count, fault injection, a remote cache tier).
CLEARED_ENV = ("DDBDD_JOBS", "DDBDD_FAULTS", "DDBDD_CACHE_REMOTE")

#: Set-up is repeated in this many fresh processes; setup_s is the median.
SETUP_PROBES = 3

UNITS = {
    "setup_s": "s", "wall_s": "s", "cold_s": "s", "warm_s": "s",
    "throughput_rps": "op/s", "latency_p50_s": "s", "latency_p90_s": "s",
    "depth_total": "levels", "luts_total": "LUTs", "peak_rss_mb": "MB",
}


def layer_unit(name: str) -> str:
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("ratio"):
        return "ratio"
    return "count"


def setup_probe_seconds(workload: str, seed: int) -> float:
    """Wall time from spawning a fresh interpreter until it reports its
    set-up done (imports, inputs, and for serve-mix a listening daemon)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--setup-probe"],
        stdout=subprocess.PIPE, text=True,
    )
    assert proc.stdout is not None
    line = proc.stdout.readline()
    seconds = time.perf_counter() - t0
    rest, _ = proc.communicate(timeout=120)
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {line!r}{rest!r}")
    return seconds


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "repro").is_dir():
        print(f"perfbench: no program sources at {SRC / 'repro'}", file=sys.stderr)
        return 2
    for var in CLEARED_ENV:
        os.environ.pop(var, None)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    sys.path.insert(0, str(SRC))
    os.chdir(ROOT)

    import workloads

    if args.workload not in workloads.RUNNERS:
        print(f"perfbench: unknown workload {args.workload!r} "
              f"(choose from {', '.join(workloads.RUNNERS)})", file=sys.stderr)
        return 2

    if args.setup_probe:
        state = workloads.setup(args.workload, args.seed)
        print("ready", flush=True)
        if "daemon" in state:
            state["daemon"].stop()
        return 0

    tracer = None
    restore = None
    if args.trace:
        from tracer import Tracer, install

        tracer = Tracer()
        if args.workload in workloads.IN_PROCESS:
            restore = install(tracer)
    ctx = workloads.Context(ROOT, args.workload, args.seed, args.seconds, tracer)
    ctx.scratch.mkdir(parents=True, exist_ok=True)
    state: Dict[str, Any] = {}
    try:
        state = workloads.setup(args.workload, args.seed, ctx.scratch, traced=bool(args.trace))
        outcome = workloads.RUNNERS[args.workload](ctx, state)
    finally:
        if restore is not None:
            restore()
        if "daemon" in state:
            state["daemon"].stop()
        shutil.rmtree(ctx.scratch, ignore_errors=True)

    if args.trace:
        from tracer import write_spans

        trace_dir = ROOT / ".perfbench" / "traces"
        trace_dir.mkdir(parents=True, exist_ok=True)
        write_spans(tracer, trace_dir / f"{args.workload}-seed{args.seed}.jsonl",
                    {"workload": args.workload, "seed": args.seed,
                     "per_layer": outcome["per_layer"], **ctx.info})
        chosen: Dict[str, Any] = outcome["per_layer"]
    else:
        chosen = dict(outcome["end_to_end"])
        probes = sorted(setup_probe_seconds(args.workload, args.seed)
                        for _ in range(SETUP_PROBES))
        chosen["setup_s"] = probes[SETUP_PROBES // 2]
        ctx.info["setup_probes_s"] = [round(p, 3) for p in probes]

    stamp = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "problems": ctx.problems[:20], **ctx.info,
    }
    print(json.dumps(stamp, sort_keys=True))
    units = UNITS if not args.trace else {name: layer_unit(name) for name in chosen}
    print(json.dumps({
        "correct": outcome["correct"],
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in sorted(chosen.items())},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
