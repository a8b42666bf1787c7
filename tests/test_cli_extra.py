"""Tests for the equiv/stats CLI subcommands and the synth/check
pipeline-facing flags."""

import json

from repro.cli import main


def test_equiv_same_circuit(capsys):
    assert main(["equiv", "count", "count"]) == 0
    assert "EQUIVALENT" in capsys.readouterr().out


def test_equiv_interface_mismatch(capsys):
    assert main(["equiv", "parity", "9sym"]) == 2
    assert "interface mismatch" in capsys.readouterr().out


def test_equiv_against_mapped(tmp_path, capsys):
    out = tmp_path / "m.blif"
    assert main(["synth", "misex1", "-o", str(out)]) == 0
    capsys.readouterr()
    assert main(["equiv", "misex1", str(out)]) == 0
    assert "EQUIVALENT" in capsys.readouterr().out


def test_stats(capsys):
    assert main(["stats", "count"]) == 0
    out = capsys.readouterr().out
    assert "inputs:" in out and "depth:" in out


def test_synth_stats_shows_per_pass_rows(capsys):
    assert main(["synth", "count", "--stats"]) == 0
    out = capsys.readouterr().out
    for name in ("sweep", "collapse", "synth", "map"):
        assert name in out


def test_synth_stats_json(capsys):
    assert main(["synth", "count", "--jobs", "1", "--stats-json"]) == 0
    json_line = [
        line for line in capsys.readouterr().out.splitlines() if line.startswith("{")
    ][-1]
    payload = json.loads(json_line)
    assert [row["name"] for row in payload["passes"]] == [
        "sweep", "collapse", "synth", "map",
    ]
    assert payload["jobs"] == 1


def test_synth_no_collapse_drops_the_collapse_stage(capsys):
    assert main(["synth", "count", "--no-collapse", "--stats-json"]) == 0
    json_line = [
        line for line in capsys.readouterr().out.splitlines() if line.startswith("{")
    ][-1]
    payload = json.loads(json_line)
    assert [row["name"] for row in payload["passes"]] == ["sweep", "synth", "map"]


def test_synth_profile_out_writes_pstats(tmp_path, capsys):
    import pstats

    out = tmp_path / "synth.prof"
    assert main(["synth", "count", "--profile-out", str(out)]) == 0
    text = capsys.readouterr().out
    assert f"wrote profile to {out}" in text
    # --profile-out alone must not dump the top-N tables to stdout.
    assert "--- profile:" not in text
    stats = pstats.Stats(str(out))
    assert stats.total_calls > 0


def test_check_synth_reports_verified_passes(capsys):
    assert main(["check", "count", "--synth"]) == 0
    out = capsys.readouterr().out
    for name in ("sweep", "collapse", "synth", "map"):
        assert f"pass {name}" in out
    assert "stage boundary" in out


def test_check_synth_exit_2_on_recovered_failure_findings(monkeypatch, capsys):
    # A crashed worker is recovered (run verifies end to end), but the
    # DD404 finding must be surfaced with exit 2 — distinct from a
    # verification error (1) and from a clean pass (0).
    monkeypatch.setenv("DDBDD_JOBS", "2")
    monkeypatch.setenv("DDBDD_FAULTS", "crash_worker@job=1")
    assert main(["check", "count", "--synth"]) == 2
    out = capsys.readouterr().out
    assert "DD404" in out
    assert "stage boundary" in out  # the pipeline itself verified


def test_check_synth_exit_1_on_verification_error(monkeypatch, capsys):
    # An unverified recovered cover yields an error-severity DD402:
    # exit 1, like any other verification failure.
    import repro.analysis as analysis
    from repro.analysis.diagnostics import Diagnostic, ERROR

    def fake_failcheck(reports):
        return [Diagnostic("DD402", "injected: cover failed re-verification",
                           severity=ERROR, where="n1")]

    monkeypatch.setattr(analysis, "check_failure_reports", fake_failcheck)
    assert main(["check", "count", "--synth"]) == 1
    assert "DD402" in capsys.readouterr().out
