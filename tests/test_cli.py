"""CLI smoke tests."""

from repro.cli import main


def test_synth_named_benchmark(capsys):
    assert main(["synth", "count", "--verify"]) == 0
    out = capsys.readouterr().out
    assert "depth=" in out and "PASS" in out


def test_synth_all_flows(capsys):
    for flow in ["ddbdd", "bdspga", "sis-daomap", "abc"]:
        assert main(["synth", "misex1", "--flow", flow]) == 0


def test_synth_blif_roundtrip(tmp_path, capsys):
    out_path = tmp_path / "mapped.blif"
    assert main(["synth", "count", "-o", str(out_path)]) == 0
    assert out_path.exists()
    # Re-synthesize the mapped file.
    assert main(["synth", str(out_path), "--verify"]) == 0


def test_bench_listing(capsys):
    assert main(["bench"]) == 0
    out = capsys.readouterr().out
    assert "9sym" in out and "alu4" in out


def test_vpr_command(capsys):
    assert main(["vpr", "count"]) == 0
    out = capsys.readouterr().out
    assert "critical_path=" in out


def test_no_collapse_flag(capsys):
    assert main(["synth", "count", "--no-collapse"]) == 0
