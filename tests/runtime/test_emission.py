"""Emission records: JSON round-trip, validation, replay, verification,
and the worker entry point."""

from __future__ import annotations

import os

import pytest

from repro.bdd.manager import BDDManager
from repro.core.config import DDBDDConfig
from repro.network.netlist import BooleanNetwork
from repro.runtime.emission import (
    EmissionCell,
    EmissionRecord,
    RecordError,
    replay_record,
    verify_record,
)
from repro.runtime.pool import JobRunner, SupernodeJob, chunk_jobs, run_supernode_job
from repro.runtime.signature import dag_size, export_dag
from repro.utils import usable_cpus


def _job(polarities=(False, False, False), arrivals=(0, 0, 0)) -> SupernodeJob:
    mgr = BDDManager(3)
    f = mgr.ite(
        mgr.var(0), mgr.apply_or(mgr.var(1), mgr.var(2)), mgr.apply_and(mgr.var(1), mgr.var(2))
    )
    dag = export_dag(mgr, f)
    return SupernodeJob.from_config("maj", dag, arrivals, polarities, DDBDDConfig())


def test_record_json_roundtrip():
    record = EmissionRecord(
        cells=(EmissionCell(("v0", "v1"), "0111"), EmissionCell(("c0", "v2"), "0110")),
        out_ref="c1",
        out_neg=True,
        out_depth=2,
        states_visited=9,
        bdd_size=4,
        num_inputs=3,
    )
    assert EmissionRecord.from_json_obj(record.to_json_obj()) == record


@pytest.mark.parametrize(
    "obj",
    [
        None,
        [],
        {},
        {"cells": [], "out": ["c0", 0, 1], "stats": [0, 0, 1]},  # forward out ref
        {"cells": [[["v0"], "011"]], "out": ["c0", 0, 1], "stats": [0, 0, 1]},  # width
        {"cells": [[["w0"], "01"]], "out": ["c0", 0, 1], "stats": [0, 0, 1]},  # bad ref
        {"cells": [[["c0"], "01"]], "out": ["c0", 0, 1], "stats": [0, 0, 1]},  # self ref
        {"cells": [[["v0"], "0x"]], "out": ["c0", 0, 1], "stats": [0, 0, 1]},  # alphabet
    ],
)
def test_record_validation_rejects(obj):
    with pytest.raises(RecordError):
        EmissionRecord.from_json_obj(obj)


def test_worker_output_verifies_and_replays():
    job = _job(polarities=(False, True, False), arrivals=(2, 0, 1))
    record = run_supernode_job(job)
    assert verify_record(record, job.dag, job.polarities, k=5)

    net = BooleanNetwork("target")
    for p in ("x", "y", "z"):
        net.add_pi(p)
    leaves = [("x", False, 2), ("y", True, 0), ("z", False, 1)]
    sig, neg, depth = replay_record(net, record, leaves, prefix="sn")
    assert sig in net.nodes
    assert depth == record.out_depth
    assert all(name.startswith("sn_") for name in net.nodes)


def test_tampered_record_fails_verification():
    job = _job()
    record = run_supernode_job(job)
    assert record.cells, "majority needs at least one LUT"
    bad_cells = list(record.cells)
    flipped = "".join("1" if b == "0" else "0" for b in bad_cells[0].truth)
    bad_cells[0] = EmissionCell(bad_cells[0].fanins, flipped)
    bad = EmissionRecord(
        cells=tuple(bad_cells),
        out_ref=record.out_ref,
        out_neg=record.out_neg,
        out_depth=record.out_depth,
        states_visited=record.states_visited,
        bdd_size=record.bdd_size,
        num_inputs=record.num_inputs,
    )
    assert not verify_record(bad, job.dag, job.polarities, k=5)
    # Structural violations fail too (never raise).
    assert not verify_record(bad, job.dag, job.polarities, k=1)


def test_replay_rejects_out_of_range_leaves():
    record = EmissionRecord(
        cells=(EmissionCell(("v0", "v5"), "0001"),),
        out_ref="c0",
        out_neg=False,
        out_depth=1,
        states_visited=0,
        bdd_size=2,
        num_inputs=2,
    )
    net = BooleanNetwork("t")
    net.add_pi("x")
    with pytest.raises(RecordError):
        replay_record(net, record, [("x", False, 0)], prefix="sn")


def test_job_runner_pool_matches_inline():
    jobs = [_job(arrivals=(i, 0, 0)) for i in range(3)]
    inline = [run_supernode_job(j) for j in jobs]
    with JobRunner(2) as runner:
        pooled = [o.record for o in runner.run_batch_outcomes(jobs)]
    assert pooled == inline
    with JobRunner(1) as runner:
        serial = [o.record for o in runner.run_batch_outcomes(jobs)]
    assert serial == inline
    with pytest.raises(ValueError):
        JobRunner(0)


def test_job_runner_clamps_to_the_affinity_mask(monkeypatch):
    """The clamp counts the CPUs this process may use, not the
    machine's: under ``taskset`` or a cpuset a wider pool would
    oversubscribe.  Constructing a runner starts no process."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert usable_cpus() == 1
    runner = JobRunner(4)
    assert runner.workers == 1
    assert runner._executor is None
    assert JobRunner(4, clamp=False).workers == 4
    assert DDBDDConfig(jobs=0).effective_jobs == 1


def test_usable_cpus_falls_back_to_cpu_count(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert usable_cpus() == (os.cpu_count() or 1)


def test_chunk_jobs_partitions_and_balances():
    jobs = [_job(arrivals=(i, 0, 0)) for i in range(7)]
    groups = chunk_jobs(jobs, 3)
    # A partition: every index exactly once, no empty chunks.
    assert sorted(i for g in groups for i in g) == list(range(7))
    assert all(g for g in groups)
    assert len(groups) <= 3
    # Deterministic.
    assert chunk_jobs(jobs, 3) == groups
    # Never more chunks than jobs.
    assert len(chunk_jobs(jobs[:2], 5)) <= 2
    # LPT balance: identical-size jobs spread evenly over workers.
    sizes = [sum(dag_size(jobs[i].dag) for i in g) for g in groups]
    assert max(sizes) <= 3 * min(sizes)


def test_signature_distinguishes_profiles():
    assert _job().signature() == _job().signature()
    assert _job().signature() != _job(arrivals=(1, 0, 0)).signature()
    assert _job().signature() != _job(polarities=(True, False, False)).signature()
