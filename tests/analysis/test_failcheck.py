"""Failure-report diagnostics: documented triggers and code mapping."""

from __future__ import annotations

from repro.analysis import check_failure_reports
from repro.analysis.diagnostics import DIAGNOSTIC_CODES, ERROR, WARNING, errors_of
from repro.analysis.failcheck import DEGRADED_RUNGS
from repro.runtime.stats import FailureReport


def _budget_row(rung: str = "retry", verified: bool = True) -> FailureReport:
    return FailureReport(
        kind="budget",
        job="n1",
        seq=3,
        reason="deadline",
        spent_s=1.5,
        spent_nodes=100,
        rung=rung,
        retries=1,
        verified=verified,
    )


def _pool_row() -> FailureReport:
    return FailureReport(
        kind="pool",
        job="n1,n2",
        seq=0,
        reason="BrokenProcessPool",
        spent_s=0.0,
        spent_nodes=0,
        rung="respawn",
        retries=1,
        verified=True,
    )


def test_docstrings_list_trigger_conditions():
    doc = check_failure_reports.__doc__ or ""
    assert "Trigger conditions" in doc
    for code in ("DD401", "DD402", "DD403", "DD404"):
        assert code in doc, f"{code} trigger not documented"
        assert code in DIAGNOSTIC_CODES
    # The documented conditions name the discriminating report fields.
    assert "report.verified" in doc
    assert '"budget"' in doc and '"pool"' in doc
    assert "DEGRADED_RUNGS" in doc
    for rung in DEGRADED_RUNGS:
        assert rung in doc


def test_budget_breach_triggers_dd403_only_on_clean_retry():
    diags = check_failure_reports([_budget_row(rung="retry")])
    assert [d.code for d in diags] == ["DD403"]
    assert all(d.severity == WARNING for d in diags)


def test_degraded_rung_adds_dd401():
    diags = check_failure_reports([_budget_row(rung="shannon")])
    assert [d.code for d in diags] == ["DD403", "DD401"]


def test_unverified_recovery_is_dd402_error():
    diags = check_failure_reports([_budget_row(verified=False)])
    assert [d.code for d in diags] == ["DD402"]
    assert diags[0].severity == ERROR
    assert errors_of(diags) == diags


def test_pool_recovery_is_dd404():
    diags = check_failure_reports([_pool_row()])
    assert [d.code for d in diags] == ["DD404"]
    assert diags[0].severity == WARNING


def test_unknown_kind_is_silent():
    row = FailureReport(job="n7", seq=0, kind="weird_new_kind", reason="x", retries=0)
    assert check_failure_reports([row]) == []


def test_mixed_outage_report_orders_codes_per_row():
    rows = [
        _pool_row(),
        _budget_row(rung="shannon"),
        _budget_row(verified=False),
        _budget_row(rung="retry"),
    ]
    diags = check_failure_reports(rows)
    assert [d.code for d in diags] == ["DD404", "DD403", "DD401", "DD402", "DD403"]
