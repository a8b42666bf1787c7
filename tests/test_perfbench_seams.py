"""The benchmark's tracer (``perfbench/tracer.py``) wraps program
functions that it finds by name.  A refactor that removes or renames one
of them must fail here, in the test suite, rather than in a benchmark
run."""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    name = "perfbench_tracer_under_test"
    spec = importlib.util.spec_from_file_location(name, TRACER)
    assert spec is not None and spec.loader is not None
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while decorating.
    sys.modules[name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[name]
    return module


def test_tracer_patches_resolve_and_restore():
    from repro.runtime import fleet, pool, tiers

    def seams():
        return (
            tiers.TieredEmissionCache.get,
            tiers.TieredEmissionCache.put,
            tiers.SqliteTier.claim_state,
            pool.JobRunner.run_batch_outcomes,
            fleet.FleetScheduler.run_wave,
        )

    tracer = _load_tracer()
    originals = seams()
    # install() raises if any name it patches no longer resolves.
    restore = tracer.install(tracer.Tracer())
    try:
        assert all(now is not was for now, was in zip(seams(), originals))
    finally:
        restore()
    assert seams() == originals
