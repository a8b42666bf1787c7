"""The AST-based project lint gate: its RLxxx rules, its one pass and
its two entry points."""

from __future__ import annotations

from pathlib import Path

from repro.analysis.repolint import RULES, lint_paths, lint_source, main
from repro.cli import main as cli_main


def _codes(source: str) -> "list[str]":
    return [f.code for f in lint_source(source) if f.code.startswith("RL")]


def test_rl001_mutable_defaults():
    assert "RL001" in _codes("def f(x=[]):\n    pass\n")
    assert "RL001" in _codes("def f(x={}):\n    pass\n")
    assert "RL001" in _codes("def f(*, x=set()):\n    pass\n")
    assert "RL001" in _codes("def f(x=dict(a=1)):\n    pass\n")
    assert "RL001" in _codes("def f(x=[i for i in range(3)]):\n    pass\n")
    assert "RL001" not in _codes("def f(x=()):\n    pass\n")
    assert "RL001" not in _codes("def f(x=None):\n    pass\n")
    assert "RL001" not in _codes("def f(x=frozenset()):\n    pass\n")


def test_rl002_bare_except():
    bad = "try:\n    pass\nexcept:\n    pass\n"
    assert "RL002" in _codes(bad)
    good = "try:\n    pass\nexcept ValueError:\n    pass\n"
    assert "RL002" not in _codes(good)
    nested = "def f() -> None:\n    try:\n        pass\n    except:\n        pass\n"
    assert "RL002" in _codes(nested)


def test_rl003_truth_table_documentation():
    undocumented = "def from_tt(bits, n):\n    return bits\n"
    assert "RL003" in _codes(undocumented)
    documented = (
        'def from_tt(bits, n):\n'
        '    """Build from a truth table of 2**n bits."""\n'
        '    return bits\n'
    )
    assert "RL003" not in _codes(documented)
    unrelated = "def f(words, n):\n    return words\n"
    assert "RL003" not in _codes(unrelated)


def test_rl004_public_annotation_coverage():
    assert "RL004" in _codes("def api(x):\n    return x\n")
    assert "RL004" in _codes("def api(x: int):\n    return x\n")
    assert "RL004" not in _codes("def api(x: int) -> int:\n    return x\n")
    # Private helpers, nested functions and dunders are exempt.
    assert "RL004" not in _codes("def _helper(x):\n    return x\n")
    assert "RL004" not in _codes(
        "def api() -> None:\n    def inner(x):\n        return x\n"
    )
    assert "RL004" not in _codes("class C:\n    def __init__(self, x):\n        pass\n")
    # Methods of public classes are public surface; self is exempt.
    assert "RL004" in _codes("class C:\n    def m(self, x):\n        pass\n")
    assert "RL004" not in _codes("class _C:\n    def m(self, x):\n        pass\n")
    assert "RL004" not in _codes(
        "class C:\n    def m(self, x: int) -> int:\n        return x\n"
    )


def test_rl006_stale_suppression():
    # A disable comment that suppresses nothing on its line is itself a
    # finding, so suppressions cannot silently outlive their fix.
    src = "def api(x: int) -> int:  # repolint: disable=RL004\n    return x\n"
    findings = lint_source(src)
    assert [f.code for f in findings] == ["RL006"]
    assert "RL004" in findings[0].message
    assert "suppresses nothing" in findings[0].message


def test_rl006_unknown_rule_code():
    src = "x = 1  # repolint: disable=RL999\n"
    findings = lint_source(src)
    assert [f.code for f in findings] == ["RL006"]
    assert "not a repolint rule" in findings[0].message


def test_rl006_stale_dd_suppression():
    # RL006 checks the DD codes a comment lists as well as the RL ones.
    findings = lint_source("def _key(s):\n    return s  # repolint: disable=DD502\n")
    assert [f.code for f in findings] == ["RL006"]
    assert "DD502 suppresses nothing" in findings[0].message
    assert _codes("for x in s:  # repolint: disable=DD501\n    pass\n") == ["RL006"]


def test_rl006_live_suppression_is_clean():
    src = "def api(x):  # repolint: disable=RL004\n    return x\n"
    assert _codes(src) == []


def test_rl006_opt_out_on_own_line():
    # Listing RL006 on the line opts the whole line out of staleness
    # checking (needed while a fix is being staged across commits).
    src = "def api(x: int) -> int:  # repolint: disable=RL004,RL006\n    return x\n"
    assert _codes(src) == []


def test_suppression_comment():
    src = "def api(x):  # repolint: disable=RL004\n    return x\n"
    assert "RL004" not in _codes(src)
    # Disabling one rule does not disable others on the same line.
    src2 = "def api(x=[]):  # repolint: disable=RL004\n    return x\n"
    codes = _codes(src2)
    assert "RL001" in codes and "RL004" not in codes


def test_findings_carry_location():
    findings = lint_source("def api(x):\n    return x\n", path="mod.py")
    assert findings and findings[0].path == "mod.py"
    assert findings[0].line == 1
    assert "mod.py:1:" in findings[0].render()


def test_repo_source_tree_is_clean():
    src = Path(__file__).resolve().parents[2] / "src"
    assert src.is_dir()
    findings = lint_paths([src])
    assert findings == [], "\n".join(f.render() for f in findings)


def test_main_exit_codes(tmp_path, capsys):
    clean = tmp_path / "clean.py"
    clean.write_text("def api(x: int) -> int:\n    return x\n")
    dirty = tmp_path / "dirty.py"
    dirty.write_text("def api(x=[]):\n    return x\n")
    assert main([str(clean)]) == 0
    assert main([str(dirty)]) == 1
    assert "RL001" in capsys.readouterr().out
    assert main([str(tmp_path / "missing.py")]) == 2


def test_cli_lint_runs_every_rule(tmp_path, capsys):
    # One `ddbdd lint` run reports both rule families.
    clean = tmp_path / "clean.py"
    clean.write_text("def api(x: int) -> int:\n    return x\n")
    assert cli_main(["lint", str(clean)]) == 0
    dirty = tmp_path / "dirty"
    dirty.mkdir()
    (dirty / "defaults.py").write_text("def _f(x=[]):\n    return x\n")
    (dirty / "keys.py").write_text("def _key(s):\n    return hash(s)\n")
    capsys.readouterr()
    assert cli_main(["lint", str(dirty)]) == 1
    out = capsys.readouterr().out
    assert sorted(line.split()[1] for line in out.splitlines()) == ["DD502", "RL001"]
    assert cli_main(["lint", str(tmp_path / "missing.py")]) == 2


def test_rl000_unparsable_file():
    findings = lint_source("def broken(:\n", path="bad.py")
    assert [f.code for f in findings] == ["RL000"]
    assert "unparsable" in findings[0].message


def test_rules_registry_matches_docs():
    for code in ("RL000", "RL001", "RL002", "RL003", "RL004"):
        assert code in RULES
