"""Stage-boundary verification hooks and the verify_level knob."""

from __future__ import annotations

import pytest

from repro.analysis import StageVerifier, VerificationError
from repro.benchgen import build_circuit
from repro.core.config import DDBDDConfig
from repro.core.ddbdd import ddbdd_synthesize
from repro.network.netlist import BooleanNetwork

from tests.conftest import assert_equivalent, random_gate_network


def test_verify_level_2_full_flow_on_quickstart_network():
    # The examples/quickstart.py default circuit, under full checking.
    net = build_circuit("sct")
    result = ddbdd_synthesize(net, DDBDDConfig(k=5, verify_level=2))
    assert result.depth >= 1 and result.area >= 1
    assert_equivalent(net, result.network, "verify_level=2 flow")


@pytest.mark.parametrize("level", [0, 1, 2])
def test_verify_levels_agree_on_results(level):
    net = random_gate_network(17, n_pi=7, n_gates=20, n_po=3)
    result = ddbdd_synthesize(net, DDBDDConfig(k=4, verify_level=level))
    baseline = ddbdd_synthesize(net, DDBDDConfig(k=4))
    assert result.depth == baseline.depth
    assert result.area == baseline.area


def test_verify_level_validation():
    with pytest.raises(ValueError):
        DDBDDConfig(verify_level=3)
    assert DDBDDConfig(verify_level=2).verify_emission
    assert not DDBDDConfig().verify_emission


def test_stage_sequence_at_level_1():
    verifier = StageVerifier(level=1, k=4)
    net = random_gate_network(5, n_pi=5, n_gates=8, n_po=2)
    from repro.network.transform import sweep

    sweep(net)
    verifier.after_sweep(net)
    verifier.after_po_binding(net)
    assert verifier.stages_run == ["sweep", "po_binding"]
    # Level-2-only hooks are inert at level 1.
    verifier.after_supernode(net, "sn")
    assert verifier.stages_run == ["sweep", "po_binding"]


def test_hooks_disabled_at_level_0():
    verifier = StageVerifier(level=0, k=4)
    broken = BooleanNetwork("broken")
    broken.add_pi("a")
    broken.add_po("o", "missing")
    verifier.after_sweep(broken)  # must not raise
    assert verifier.stages_run == []


def test_hook_raises_with_stage_tag():
    verifier = StageVerifier(level=1, k=4)
    broken = BooleanNetwork("broken")
    broken.add_pi("a")
    broken.add_po("o", "missing")
    with pytest.raises(VerificationError) as exc:
        verifier.after_sweep(broken)
    assert exc.value.stage == "sweep"
    assert all(d.stage == "sweep" for d in exc.value.diagnostics)
    assert any(d.code == "DD102" for d in exc.value.diagnostics)


@pytest.fixture
def corrupt_dp_managers(monkeypatch):
    """Drop a live row from each job's private DP manager after a good
    emission: the record itself stays correct, so only the
    per-supernode manager audit can see it, wherever the job ran."""
    from repro.core import dp
    from repro.runtime.fleet import reset_fleet

    emit = dp.BDDSynthesizer.emit

    def emit_then_drop_a_unique_row(self, net, leaf_signals, prefix):
        result = emit(self, net, leaf_signals, prefix)
        mgr, row = self.mgr, self.func >> 1
        del mgr._unique[mgr._ukey(mgr._var[row], mgr._lo[row], mgr._hi[row])]
        return result

    monkeypatch.setattr(dp.BDDSynthesizer, "emit", emit_then_drop_a_unique_row)
    reset_fleet()  # pool workers forked from here on inherit the patch
    yield
    reset_fleet()  # retire the patched workers


@pytest.mark.parametrize("jobs", [1, 2])
def test_level_2_audits_the_dp_manager_at_every_job_count(jobs, corrupt_dp_managers):
    net = random_gate_network(2, n_pi=10, n_gates=60, n_po=6)
    with pytest.raises(VerificationError) as exc:
        ddbdd_synthesize(net, DDBDDConfig(jobs=jobs, verify_level=2))
    assert exc.value.stage.startswith("supernode:")
    assert any(d.code == "DD204" for d in exc.value.diagnostics)


def test_records_that_fail_the_dp_audit_are_not_cached(corrupt_dp_managers, tmp_path):
    from repro.runtime.fleet import reset_fleet

    net = random_gate_network(2, n_pi=10, n_gates=60, n_po=6)
    audited = DDBDDConfig(verify_level=2, cache="readwrite", cache_dir=str(tmp_path))
    with pytest.raises(VerificationError):
        ddbdd_synthesize(net, audited)
    reset_fleet()  # read sqlite, not the memory tier
    result = ddbdd_synthesize(net, DDBDDConfig(cache="read", cache_dir=str(tmp_path)))
    assert result.runtime_stats.cache_hits == 0


def test_final_hook_catches_depth_lie():
    net = random_gate_network(9, n_pi=6, n_gates=12, n_po=2)
    result = ddbdd_synthesize(net, DDBDDConfig(k=4))
    verifier = StageVerifier(level=1, k=4)
    with pytest.raises(VerificationError) as exc:
        verifier.final(
            result.network,
            result.depth + 1,
            result.po_depths,
            result.area,
        )
    assert any(d.code == "DD302" for d in exc.value.diagnostics)


def test_cli_verify_level_flag(capsys):
    from repro.cli import main

    assert main(["synth", "sct", "--verify-level", "2"]) == 0
    out = capsys.readouterr().out
    assert "depth=" in out


def test_cli_check_command(capsys, monkeypatch):
    import repro.cli as cli

    assert cli.main(["check", "sct", "--bdd"]) == 0
    assert "0 error(s)" in capsys.readouterr().out

    # The BLIF parser rejects undefined outputs up front, so corrupt an
    # in-memory network behind the loader to exercise the failure path.
    broken = build_circuit("sct")
    broken.pos["broken"] = "missing_signal"
    monkeypatch.setattr(cli, "_load", lambda source: broken)
    assert cli.main(["check", "anything"]) == 1
    assert "DD102" in capsys.readouterr().out
