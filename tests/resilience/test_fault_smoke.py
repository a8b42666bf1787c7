"""The PR's acceptance scenario: one run with a worker crash, a stalled
job past its deadline and a corrupted cache shard injected together must
complete with output identical to the clean serial run, and report every
recovery in the structured failure rows."""

from __future__ import annotations

import json

from repro.core import DDBDDConfig, ddbdd_synthesize
from tests.conftest import assert_equivalent, random_gate_network
from tests.runtime.helpers import net_dump

FAULTS = "crash_worker@job=2;stall@job=3:0.8s;corrupt_shard@put=1"


def test_fault_smoke_identical_to_clean_run(tmp_path, monkeypatch):
    net = random_gate_network(0, n_pi=10, n_gates=60, n_po=6)
    clean = ddbdd_synthesize(net, DDBDDConfig(jobs=1, faults=None))

    faulty = ddbdd_synthesize(net, DDBDDConfig(
        jobs=4,
        cache="readwrite",
        cache_dir=str(tmp_path),
        faults=FAULTS,
        job_deadline_s=0.25,
    ))

    # Hard acceptance line: depth/area and the full network identical to
    # the clean serial run, despite three concurrent injected faults.
    assert net_dump(faulty.network) == net_dump(clean.network)
    assert (faulty.depth, faulty.area) == (clean.depth, clean.area)
    assert faulty.po_depths == clean.po_depths
    assert_equivalent(net, faulty.network, "fault-injected synthesis")

    stats = faulty.runtime_stats
    # The stalled job (seq 3) burned its 0.25s deadline and recovered on
    # the ladder's clean retry — same record, nothing degraded.
    budget_rows = [f for f in stats.failures
                   if f.kind == "budget" and f.seq == 3]
    assert len(budget_rows) == 1
    row = budget_rows[0]
    assert row.reason == "deadline"
    assert row.retries >= 1
    assert row.rung == "retry"
    assert row.verified and row.spent_s > 0.25

    # The crashed worker (job seq 2 in flight) was recovered by a pool
    # respawn and a chunk retry.
    pool_rows = [f for f in stats.failures if f.kind == "pool"]
    assert len(pool_rows) == 1
    assert pool_rows[0].retries >= 1
    assert pool_rows[0].rung in ("respawn", "serial")

    # Any organic deadline breaches under host contention must also have
    # recovered cleanly (identity above already proves it; the rows say
    # so explicitly).
    assert all(f.verified for f in stats.failures)

    # The rows survive the JSON stats surface (``--stats-json``).
    dumped = json.loads(json.dumps(stats.as_dict()))
    kinds = {row["kind"] for row in dumped["failures"]}
    assert {"budget", "pool"} <= kinds
    assert "failures recovered" in stats.render()

    # Second, fault-free warm run over the same cache: the shard torn by
    # corrupt_shard@put=1 is detected, counted and healed; output still
    # identical.
    warm = ddbdd_synthesize(net, DDBDDConfig(
        jobs=1, cache="readwrite", cache_dir=str(tmp_path), faults=None,
    ))
    assert net_dump(warm.network) == net_dump(clean.network)
    assert warm.runtime_stats.cache_corruptions == 1
    assert not warm.runtime_stats.failures
