"""Mutant suite for the determinism analyzer (``DD5xx``).

Each synthetic module triggers exactly one code; every rule also has a
suppressed twin (``# repolint: disable=DD50x``), plus baseline and CLI
behavior and the project-wide self-run.
"""

from __future__ import annotations

import json
import textwrap
from pathlib import Path

from repro.analysis.detcheck import (
    RULES,
    check_fork_safety,
    check_source,
    load_baseline,
    main,
    new_findings,
    run_detcheck,
    write_baseline,
)


def _codes(source: str, path: str = "mod.py") -> "list[str]":
    return [f.code for f in check_source(textwrap.dedent(source), path)]


# ----------------------------------------------------------------------
# DD500
# ----------------------------------------------------------------------
def test_dd500_unparsable_file():
    findings = check_source("def broken(:\n", "bad.py")
    assert [f.code for f in findings] == ["DD500"]
    assert "unparsable" in findings[0].message


# ----------------------------------------------------------------------
# DD501
# ----------------------------------------------------------------------
def test_dd501_set_loop_into_append():
    src = """
    def emit(node_set):
        out = []
        for n in node_set | {0}:
            out.append(n)
        return out
    """
    assert _codes(src) == ["DD501"]


def test_dd501_sorted_wrap_is_clean():
    src = """
    def emit(nodes):
        out = []
        node_set = set(nodes)
        for n in sorted(node_set):
            out.append(n)
        return out
    """
    assert _codes(src) == []


def test_dd501_set_literal_taint_flows_through_assignment():
    src = """
    def emit():
        node_set = {1, 2, 3}
        out = []
        for n in node_set:
            out.append(n)
        return out
    """
    findings = check_source(textwrap.dedent(src), "m.py")
    assert [f.code for f in findings] == ["DD501"]
    assert findings[0].symbol == "emit"


def test_dd501_join_over_set_comprehension():
    src = """
    def key(sigs):
        pool = frozenset(sigs)
        return ",".join(str(s) for s in pool)
    """
    assert _codes(src) == ["DD501"]


def test_dd501_list_comprehension_over_set():
    src = """
    def emit(xs):
        pool = set(xs)
        return [x + 1 for x in pool]
    """
    assert _codes(src) == ["DD501"]


def test_dd501_order_insensitive_consumers_are_clean():
    src = """
    import math

    def total(xs):
        pool = set(xs)
        return (
            len(pool),
            max(x for x in pool),
            math.fsum(float(x) for x in pool),
            sorted(x for x in pool),
        )
    """
    assert _codes(src) == []


def test_dd501_plain_dict_iteration_is_clean():
    # Dicts are insertion-ordered on supported interpreters; only a
    # dict *built from* unordered iteration is tainted.
    src = """
    def emit(d):
        out = []
        for k in d:
            out.append(k)
        for v in d.values():
            out.append(v)
        return out
    """
    assert _codes(src) == []


def test_dd501_set_tainted_dict_views_are_flagged():
    src = """
    def emit(xs):
        pool = set(xs)
        d = {k: 1 for k in pool}
        out = []
        for k in d.keys():
            out.append(k)
        return out
    """
    assert _codes(src) == ["DD501"]


def test_dd501_membership_only_loop_is_clean():
    src = """
    def count(node_set, target):
        hits = 0
        for n in node_set:
            if n == target:
                hits += 1
        return hits
    """
    assert _codes(src) == []


def test_dd501_suppressed():
    src = """
    def emit(node_set):
        out = []
        for n in node_set | {0}:  # repolint: disable=DD501
            out.append(n)
        return out
    """
    assert _codes(src) == []


# ----------------------------------------------------------------------
# DD502
# ----------------------------------------------------------------------
def test_dd502_hash_is_flagged():
    assert _codes("def key(s):\n    return hash(s)\n") == ["DD502"]


def test_dd502_id_outside_identity_map_idiom():
    assert _codes("def key(x):\n    y = id(x)\n    return y\n") == ["DD502"]


def test_dd502_id_identity_map_idiom_is_clean():
    src = """
    def dedup(items):
        seen = set()
        table = {}
        for it in items:
            if id(it) in seen:
                continue
            seen.add(id(it))
            table[id(it)] = it
        return table
    """
    assert _codes(src) == []


def test_dd502_wall_clock_flagged_outside_telemetry():
    src = "import time\n\ndef stamp():\n    return time.time()\n"
    assert _codes(src) == ["DD502"]
    # The telemetry allowlist is path-based.
    assert _codes(src, path="src/repro/experiments/runall.py") == []


def test_dd502_perf_counter_is_clean():
    # Monotonic clocks feed deadlines/telemetry, never results.
    src = "import time\n\ndef tick():\n    return time.perf_counter()\n"
    assert _codes(src) == []


def test_dd502_global_random_flagged_seeded_rng_clean():
    bad = "import random\n\ndef pick(xs):\n    return random.choice(xs)\n"
    assert _codes(bad) == ["DD502"]
    good = """
    import random

    def pick(xs, seed):
        rng = random.Random(seed)
        return rng.choice(list(xs))
    """
    assert _codes(good) == []


def test_dd502_os_urandom_flagged():
    assert _codes("import os\n\ndef salt():\n    return os.urandom(8)\n") == ["DD502"]


def test_dd502_suppressed():
    src = "def key(s):\n    return hash(s)  # repolint: disable=DD502\n"
    assert _codes(src) == []


# ----------------------------------------------------------------------
# DD503
# ----------------------------------------------------------------------
def test_dd503_bare_sum_over_costs():
    src = "def total(costs):\n    return sum(costs)\n"
    assert _codes(src) == ["DD503"]


def test_dd503_float_literal_and_division_heuristics():
    assert _codes("def t(xs):\n    return sum(x * 0.5 for x in xs)\n") == ["DD503"]
    assert _codes("def t(xs, n):\n    return sum(x / n for x in xs)\n") == ["DD503"]


def test_dd503_int_sum_is_clean():
    assert _codes("def total(sizes):\n    return sum(sizes)\n") == []
    assert _codes("def total(xs):\n    return sum(len(x) for x in xs)\n") == []


def test_dd503_fsum_is_clean():
    src = "import math\n\ndef total(costs):\n    return math.fsum(costs)\n"
    assert _codes(src) == []


def test_dd503_suppressed():
    src = "def total(costs):\n    return sum(costs)  # repolint: disable=DD503\n"
    assert _codes(src) == []


# ----------------------------------------------------------------------
# DD504 — needs a synthetic project tree
# ----------------------------------------------------------------------
_POOL = """
from concurrent.futures import ProcessPoolExecutor

from repro.runtime.worker import run_one


def run_supernode_jobs_guarded(jobs):
    return [run_one(j) for j in jobs]


class JobRunner:
    def run_batch(self, jobs):
        pool = ProcessPoolExecutor()
        return pool.submit(run_supernode_jobs_guarded, jobs)
"""

_WORKER_BAD = """
_MEMO = {}


def run_one(job):
    _MEMO[job] = 1
    return job
"""

_WORKER_GOOD = """
def run_one(job):
    memo = {}
    memo[job] = 1
    return job
"""


def _sources(worker: str) -> "dict[str, str]":
    return {
        "src/repro/runtime/pool.py": textwrap.dedent(_POOL),
        "src/repro/runtime/worker.py": textwrap.dedent(worker),
    }


def test_dd504_worker_mutating_global_is_flagged():
    findings = check_fork_safety(_sources(_WORKER_BAD))
    assert [f.code for f in findings] == ["DD504"]
    assert findings[0].symbol == "repro.runtime.worker.run_one"
    assert findings[0].path.endswith("worker.py")
    assert "_MEMO" in findings[0].message


def test_dd504_local_state_is_clean():
    assert check_fork_safety(_sources(_WORKER_GOOD)) == []


def test_dd504_handle_capture_is_flagged():
    worker = """
    LOG = open("log.txt", "w")


    def run_one(job):
        LOG.write(str(job))
        return job
    """
    findings = check_fork_safety(_sources(worker))
    assert [f.code for f in findings] == ["DD504"]
    assert "LOG" in findings[0].message


def test_dd504_unreachable_impurity_is_clean():
    # The same mutation outside the worker call graph is not DD504's
    # business (module-level hygiene belongs to other rules).
    sources = _sources(_WORKER_GOOD)
    sources["src/repro/runtime/other.py"] = textwrap.dedent(
        """
        _CACHE = {}


        def remember(x):
            _CACHE[x] = 1
        """
    )
    assert check_fork_safety(sources) == []


def test_dd504_suppressed_through_run_detcheck(tmp_path):
    bad = textwrap.dedent(_WORKER_BAD).replace(
        "def run_one(job):", "def run_one(job):  # repolint: disable=DD504"
    )
    _write_tree(tmp_path, {**_sources(_WORKER_BAD), "src/repro/runtime/worker.py": bad})
    assert [f.code for f in run_detcheck([tmp_path])] == []


def _write_tree(tmp_path: Path, files: "dict[str, str]") -> None:
    for rel, text in files.items():
        p = tmp_path / rel
        p.parent.mkdir(parents=True, exist_ok=True)
        p.write_text(textwrap.dedent(text), encoding="utf-8")


# ----------------------------------------------------------------------
# The acceptance scenario: a planted ordering bug in a scratch file.
# ----------------------------------------------------------------------
def test_planted_set_iteration_bug_is_caught(tmp_path):
    scratch = tmp_path / "scratch.py"
    scratch.write_text(
        "def collect(node_set):\n"
        "    cover = []\n"
        "    for n in node_set & node_set:\n"  # line 3
        "        cover.append(n)\n"
        "    return cover\n",
        encoding="utf-8",
    )
    findings = run_detcheck([tmp_path])
    assert len(findings) == 1
    f = findings[0]
    assert (f.code, f.line) == ("DD501", 3)
    assert f.path == str(scratch)
    assert f.symbol == "collect"


# ----------------------------------------------------------------------
# Baseline and CLI behavior
# ----------------------------------------------------------------------
def test_baseline_roundtrip_tolerates_old_findings_only(tmp_path):
    mod = tmp_path / "legacy.py"
    mod.write_text("def key(s):\n    return hash(s)\n", encoding="utf-8")
    findings = run_detcheck([tmp_path])
    assert [f.code for f in findings] == ["DD502"]

    baseline_file = tmp_path / "baseline.json"
    write_baseline(baseline_file, findings)
    baseline = load_baseline(baseline_file)
    assert new_findings(run_detcheck([tmp_path]), baseline) == []

    # A *second* instance of the same (path, code, symbol) key is new.
    mod.write_text(
        "def key(s):\n    return hash(s)\n\n"
        "def key2(s):\n    return hash(s)\n",
        encoding="utf-8",
    )
    fresh = new_findings(run_detcheck([tmp_path]), baseline)
    assert [f.code for f in fresh] == ["DD502"]
    assert fresh[0].symbol == "key2"


def test_baseline_preserves_justifications(tmp_path):
    mod = tmp_path / "legacy.py"
    mod.write_text("def key(s):\n    return hash(s)\n", encoding="utf-8")
    baseline_file = tmp_path / "baseline.json"
    findings = run_detcheck([tmp_path])
    write_baseline(baseline_file, findings)
    data = json.loads(baseline_file.read_text(encoding="utf-8"))
    data["findings"][0]["justification"] = "legacy cache key, migration tracked"
    baseline_file.write_text(json.dumps(data), encoding="utf-8")
    # Rewriting keeps the justification for unchanged keys.
    write_baseline(baseline_file, findings)
    data = json.loads(baseline_file.read_text(encoding="utf-8"))
    assert data["findings"][0]["justification"] == "legacy cache key, migration tracked"


def test_main_exit_codes_and_json(tmp_path, capsys):
    clean = tmp_path / "clean"
    clean.mkdir()
    (clean / "ok.py").write_text("def f(x):\n    return x\n", encoding="utf-8")
    assert main([str(clean)]) == 0

    dirty = tmp_path / "dirty"
    dirty.mkdir()
    (dirty / "bad.py").write_text("def key(s):\n    return hash(s)\n", encoding="utf-8")
    assert main([str(dirty)]) == 1
    assert "DD502" in capsys.readouterr().out

    assert main([str(dirty), "--json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["new"] and payload["new"][0]["code"] == "DD502"

    baseline = tmp_path / "baseline.json"
    assert main([str(dirty), "--update-baseline", "--baseline", str(baseline)]) == 0
    capsys.readouterr()
    assert main([str(dirty), "--baseline", str(baseline)]) == 0

    assert main([str(tmp_path / "missing.py")]) == 2


def test_rules_registry_matches_docs():
    for code in ("DD500", "DD501", "DD502", "DD503", "DD504"):
        assert code in RULES


def test_repo_source_tree_is_clean():
    src = Path(__file__).resolve().parents[2] / "src"
    assert src.is_dir()
    findings = run_detcheck([src])
    assert findings == [], "\n".join(f.render() for f in findings)
