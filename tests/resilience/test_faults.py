"""Fault-plan grammar, activation scoping and injection-point counters."""

from __future__ import annotations

import pytest

from repro.core.config import DDBDDConfig
from repro.resilience import faults as fault_mod
from repro.resilience.faults import (
    FaultPlan,
    FaultPlanError,
    InjectedFault,
    activated,
)


# ----------------------------------------------------------------------
# Grammar
# ----------------------------------------------------------------------
def test_parse_full_plan():
    plan = FaultPlan.parse(
        "crash_worker@job=3; corrupt_shard@put=5 ;stall@job=7:2.5s"
    )
    assert [f.describe() for f in plan.faults] == [
        "crash_worker@job=3",
        "corrupt_shard@put=5",
        "stall@job=7:2.5s",
    ]
    stall = plan.faults[2]
    assert (stall.kind, stall.site, stall.n, stall.arg) == ("stall", "job", 7, 2.5)


def test_parse_repeat_count_and_defaults():
    plan = FaultPlan.parse("crash_worker@job=1x5;stall@job=2")
    assert plan.faults[0].remaining == 5
    assert plan.faults[1].arg == 1.0  # stall's default seconds
    assert plan.faults[1].remaining == 1


@pytest.mark.parametrize(
    "bad",
    [
        "",
        "   ;  ; ",
        "crash_worker",                # no @site=N
        "crash_worker@put=1",          # wrong site for the kind
        "corrupt_shard@job=1",         # wrong site for the kind
        "bogus@job=1",                 # unknown kind
        "net_timeout@get=3",           # unknown kind
        "stall@job=0",                 # N must be >= 1
        "crash_worker@job=1x0",        # COUNT must be >= 1
        "crash_worker@job=two",        # N must be an integer
        "raise@job=2:1.5",             # only stall takes an :ARG
        "stall@job=2:soon",            # ARG must be seconds
        "stall@job=2:-1",              # ARG must be >= 0
    ],
)
def test_parse_rejects_malformed(bad):
    with pytest.raises(FaultPlanError):
        FaultPlan.parse(bad)


# ----------------------------------------------------------------------
# Config integration ($DDBDD_FAULTS)
# ----------------------------------------------------------------------
def test_faults_env_default(monkeypatch):
    monkeypatch.setenv("DDBDD_FAULTS", "raise@job=2")
    assert DDBDDConfig().faults == "raise@job=2"
    monkeypatch.setenv("DDBDD_FAULTS", "   ")
    assert DDBDDConfig().faults is None
    monkeypatch.delenv("DDBDD_FAULTS")
    assert DDBDDConfig().faults is None


def test_faults_env_malformed_rejected(monkeypatch):
    # A typo'd plan must fail loudly, naming the variable.
    monkeypatch.setenv("DDBDD_FAULTS", "crash_worker@job")
    with pytest.raises(ValueError, match="DDBDD_FAULTS"):
        DDBDDConfig()


def test_explicit_faults_validated_eagerly(monkeypatch):
    # Pin the env default so the test is hermetic even under the CI
    # fault-smoke leg's standing $DDBDD_FAULTS plan.
    monkeypatch.delenv("DDBDD_FAULTS", raising=False)
    with pytest.raises(ValueError):
        DDBDDConfig(faults="nonsense")
    with pytest.raises(ValueError):
        DDBDDConfig(faults="   ")


def test_budget_config_validation():
    with pytest.raises(ValueError):
        DDBDDConfig(job_deadline_s=0.0)
    with pytest.raises(ValueError):
        DDBDDConfig(job_node_budget=0)


# ----------------------------------------------------------------------
# Activation scoping
# ----------------------------------------------------------------------
def test_activation_scopes_and_rejects_nesting():
    assert not fault_mod.is_active()
    with activated("raise@job=1") as plan:
        assert fault_mod.is_active()
        assert fault_mod.active_plan() is plan
        with pytest.raises(FaultPlanError):
            with activated("raise@job=2"):
                pass  # pragma: no cover - never reached
    assert not fault_mod.is_active()


def test_activation_none_is_noop():
    with activated(None) as plan:
        assert plan is None
        assert not fault_mod.is_active()


def test_injection_points_noop_when_inactive():
    # The fault-free fast path: all module-level hooks are inert.
    fault_mod.fire_job_faults(1)
    assert fault_mod.forced_blowup(1) is False
    assert fault_mod.note_put() is False
    fault_mod.disarm_job(1)
    fault_mod.notify_pool_failure([1, 2])
    assert fault_mod.describe_active() == ()


# ----------------------------------------------------------------------
# Injection-point semantics
# ----------------------------------------------------------------------
def test_raise_fault_fires_once():
    with activated("raise@job=4"):
        fault_mod.fire_job_faults(3)  # wrong seq: no fire
        with pytest.raises(InjectedFault):
            fault_mod.fire_job_faults(4)
        fault_mod.fire_job_faults(4)  # disarmed after one shot


def test_crash_worker_ignored_in_parent():
    # os._exit must only ever run inside a worker process; in the parent
    # the fault stays armed so a later worker attempt still sees it.
    with activated("crash_worker@job=1") as plan:
        fault_mod.fire_job_faults(1)
        assert plan.faults[0].remaining == 1


def test_blowup_consumed_separately():
    with activated("blowup@job=2") as plan:
        fault_mod.fire_job_faults(2)  # blowup never fires here
        assert plan.faults[0].remaining == 1
        assert fault_mod.forced_blowup(2) is True
        assert fault_mod.forced_blowup(2) is False


def test_put_counter_and_corruption():
    with activated("corrupt_shard@put=3"):
        assert [fault_mod.note_put() for _ in range(4)] == [
            False, False, True, False,
        ]


def test_disarm_job_kills_all_job_faults():
    with activated("stall@job=5:0.0s;blowup@job=5;raise@job=6") as plan:
        fault_mod.disarm_job(5)
        assert [f.remaining for f in plan.faults] == [0, 0, 1]


def test_notify_pool_failure_disarms_only_process_killers():
    spec = "crash_worker@job=1;raise@job=2;stall@job=1:0.0s;blowup@job=2"
    with activated(spec) as plan:
        fault_mod.notify_pool_failure([1, 2])
        remaining = {f.kind: f.remaining for f in plan.faults}
        assert remaining == {
            "crash_worker": 0,
            "raise": 0,
            "stall": 1,   # budget matter: stays armed
            "blowup": 1,  # budget matter: stays armed
        }


def test_describe_active_lists_armed_faults():
    with activated("crash_worker@job=1x2;stall@job=3"):
        assert fault_mod.describe_active() == (
            "crash_worker@job=1x2",
            "stall@job=3:1.0s",
        )
