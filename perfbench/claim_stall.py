"""Time the claim-lease stall on its own.

Synthesizes each named circuit cold (empty ``--cache readwrite`` root,
jobs=2), once with the default ``cache_claims=True`` and once with
``cache_claims=False``, in that order, and prints wall time, the
``claim`` stage seconds and the claim counters of each run.  Usage, from
the repository root::

    python3 perfbench/claim_stall.py frg1 cordic

With claims on, a wave holding two supernodes of one content signature
waits on its own lease until it reaps it (``CLAIM_REAP_TICKS`` polls of
``CLAIM_POLL_S``); with claims off there is no wait.  Outputs are the
same either way.
"""

from __future__ import annotations

import shutil
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def main(names: list) -> int:
    from repro.benchgen import build_circuit
    from repro.core import DDBDDConfig, ddbdd_synthesize
    from repro.network import network_to_blif
    from repro.runtime.fleet import reset_fleet

    for name in names:
        covers = set()
        for claims in (True, False):
            root = ROOT / ".perfbench" / f"claim-stall-{name}"
            shutil.rmtree(root, ignore_errors=True)
            root.mkdir(parents=True)
            config = DDBDDConfig(jobs=2, cache="readwrite", cache_dir=str(root),
                                 cache_claims=claims, faults=None, cache_remote=None)
            t0 = time.perf_counter()
            result = ddbdd_synthesize(build_circuit(name), config)
            seconds = time.perf_counter() - t0
            reset_fleet()
            shutil.rmtree(root, ignore_errors=True)
            stats = result.runtime_stats
            assert stats is not None
            covers.add(network_to_blif(result.network))
            print(f"{name} claims={'on ' if claims else 'off'} {seconds:7.2f} s  "
                  f"claim stage {stats.stage_seconds.get('claim', 0.0):6.2f} s  "
                  f"claims {dict(sorted(stats.claims.items()))}", flush=True)
        if len(covers) != 1:
            print(f"{name}: covers differ between claims on and off", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:] or ["frg1", "cordic"]))
