"""Runtime-subsystem benchmark: serial vs parallel vs warm-cache.

Synthesizes the Table I benchgen suite four ways —

* ``serial``      — ``jobs=1``, cache off: every wavefront in-process,
* ``jobs4``       — four-worker wavefront engine, cache off,
* ``cache_cold``  — ``jobs=1`` wavefront engine populating an empty cache,
* ``cache_warm``  — the same run again, now fully cache-hitting —

and writes the wall times plus speedups to ``BENCH_runtime.json`` at the
repo root (the perf-trajectory seed the CI history builds on).  Every
configuration's depth/area must match the reference exactly; the script
fails loudly if the determinism contract breaks.

The whole four-way experiment repeats ``REPEATS`` times (fresh cache
directory each repeat, so ``cache_cold`` is genuinely cold every time)
and *median* wall times are reported — single-shot numbers on a shared
1-CPU host swing by ±20%.  The committed JSON records the repeat count
and interpreter version.

Usage: ``PYTHONPATH=src python benchmarks/bench_runtime.py [--out FILE]``
"""

from __future__ import annotations

import argparse
import json
import platform
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional

from repro.benchgen import TABLE1_SUITE, build_circuit
from repro.core import DDBDDConfig, ddbdd_synthesize

REPO_ROOT = Path(__file__).resolve().parent.parent
REPEATS = 5


def _run_suite(circuits: List[str], config: DDBDDConfig) -> Dict[str, dict]:
    """Synthesize every circuit; returns per-circuit time/depth/area."""
    rows: Dict[str, dict] = {}
    for name in circuits:
        net = build_circuit(name)
        t0 = time.perf_counter()
        result = ddbdd_synthesize(net, config)
        rows[name] = {
            "seconds": round(time.perf_counter() - t0, 4),
            "depth": result.depth,
            "area": result.area,
        }
    return rows


def _run_once(circuits: List[str], jobs: int) -> Dict[str, Dict[str, dict]]:
    """One four-way experiment with its own (initially empty) cache."""
    cache_dir = tempfile.mkdtemp(prefix="ddbdd_bench_cache_")
    try:
        configs = {
            "serial": DDBDDConfig(jobs=1, cache="off"),
            f"jobs{jobs}": DDBDDConfig(jobs=jobs, cache="off"),
            "cache_cold": DDBDDConfig(
                jobs=1, cache="readwrite", cache_dir=cache_dir
            ),
            "cache_warm": DDBDDConfig(
                jobs=1, cache="readwrite", cache_dir=cache_dir
            ),
        }
        runs = {label: _run_suite(circuits, cfg) for label, cfg in configs.items()}
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)

    reference = runs["serial"]
    for label, rows in runs.items():
        for name in circuits:
            got = (rows[name]["depth"], rows[name]["area"])
            want = (reference[name]["depth"], reference[name]["area"])
            if got != want:
                raise AssertionError(
                    f"{label}/{name}: depth/area {got} != serial {want} "
                    "(determinism contract broken)"
                )
    return runs


def run_bench(
    circuits: Optional[List[str]] = None, jobs: int = 4, repeats: int = REPEATS
) -> dict:
    """Run the four configurations ``repeats`` times; report medians."""
    circuits = list(circuits or TABLE1_SUITE)
    trials = [_run_once(circuits, jobs) for _ in range(repeats)]

    # Depth/area are deterministic across trials too; take trial 0 as the
    # structural reference and fail if any later trial drifted.
    reference = trials[0]["serial"]
    for trial in trials[1:]:
        for name in circuits:
            got = (trial["serial"][name]["depth"], trial["serial"][name]["area"])
            want = (reference[name]["depth"], reference[name]["area"])
            if got != want:
                raise AssertionError(
                    f"serial/{name}: depth/area {got} != first trial {want} "
                    "(determinism contract broken across repeats)"
                )

    labels = list(trials[0].keys())
    runs: Dict[str, Dict[str, dict]] = {}
    for label in labels:
        runs[label] = {
            name: {
                "seconds": round(
                    statistics.median(t[label][name]["seconds"] for t in trials), 4
                ),
                "depth": reference[name]["depth"],
                "area": reference[name]["area"],
            }
            for name in circuits
        }

    totals = {
        label: round(
            statistics.median(
                sum(r["seconds"] for r in t[label].values()) for t in trials
            ),
            4,
        )
        for label in labels
    }
    serial_total = totals["serial"]
    return {
        "suite": circuits,
        "jobs": jobs,
        "repeats": repeats,
        "statistic": "median",
        "python": platform.python_version(),
        "totals_seconds": totals,
        "speedup_vs_serial": {
            label: round(serial_total / t, 3) if t > 0 else None
            for label, t in totals.items()
        },
        "per_circuit": runs,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--out",
        default=str(REPO_ROOT / "BENCH_runtime.json"),
        help="report path (default: BENCH_runtime.json at the repo root)",
    )
    parser.add_argument("--jobs", type=int, default=4, help="parallel worker count")
    parser.add_argument(
        "--repeats", type=int, default=REPEATS, help="experiment repeats (median reported)"
    )
    parser.add_argument(
        "--circuits", nargs="*", default=None, help="benchgen circuit names"
    )
    args = parser.parse_args(argv)
    report = run_bench(args.circuits, jobs=args.jobs, repeats=args.repeats)
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    warm = report["speedup_vs_serial"]["cache_warm"]
    par = report["speedup_vs_serial"][f"jobs{args.jobs}"]
    print(
        f"serial {report['totals_seconds']['serial']:.2f}s | "
        f"jobs={args.jobs} {par}x | warm cache {warm}x -> {args.out}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
