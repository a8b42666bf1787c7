"""Mutant suite for repolint's determinism rules (``DD5xx``).

Each synthetic module triggers exactly one DD code; every rule also has
a suppressed twin (``# repolint: disable=DD50x``).  The synthetic
functions are unannotated, so each test keeps only the DD findings.
"""

from __future__ import annotations

import textwrap
from pathlib import Path

from repro.analysis.repolint import RULES, lint_paths, lint_source, lint_sources


def _dd(findings: list) -> list:
    return [f for f in findings if f.code.startswith("DD")]


def _codes(source: str, path: str = "mod.py") -> "list[str]":
    return [f.code for f in _dd(lint_source(textwrap.dedent(source), path))]


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
    findings = _dd(lint_source(textwrap.dedent(src), "m.py"))
    assert [f.code for f in findings] == ["DD501"]
    assert findings[0].line == 5


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
    # No path is exempt; telemetry times itself with time.perf_counter().
    assert _codes(src, path="src/repro/experiments/runall.py") == ["DD502"]


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
    # The package __init__ modules put a module name that prefixes
    # every other one into the tree, as in the real source tree.
    return {
        "src/repro/__init__.py": "",
        "src/repro/runtime/__init__.py": "",
        "src/repro/runtime/pool.py": textwrap.dedent(_POOL),
        "src/repro/runtime/worker.py": textwrap.dedent(worker),
    }


def test_dd504_worker_mutating_global_is_flagged():
    findings = _dd(lint_sources(_sources(_WORKER_BAD)))
    assert [f.code for f in findings] == ["DD504"]
    assert "repro.runtime.worker.run_one" in findings[0].message
    assert findings[0].path.endswith("worker.py")
    assert findings[0].line == 5
    assert "_MEMO" in findings[0].message


def test_dd504_local_state_is_clean():
    assert _dd(lint_sources(_sources(_WORKER_GOOD))) == []


def test_dd504_handle_capture_is_flagged():
    worker = """
    LOG = open("log.txt", "w")


    def run_one(job):
        LOG.write(str(job))
        return job
    """
    findings = _dd(lint_sources(_sources(worker)))
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
    assert _dd(lint_sources(sources)) == []


def test_dd504_suppression_counts_as_used(tmp_path):
    # Suppressions apply after DD504 has run, so the comment on the
    # worker's def line silences the finding and RL006 sees it used.
    bad = textwrap.dedent(_WORKER_BAD).replace(
        "def run_one(job):", "def run_one(job):  # repolint: disable=DD504"
    )
    _write_tree(tmp_path, {**_sources(_WORKER_BAD), "src/repro/runtime/worker.py": bad})
    codes = [f.code for f in lint_paths([tmp_path])]
    assert "DD504" not in codes
    assert "RL006" not in codes


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
    findings = _dd(lint_paths([tmp_path]))
    assert len(findings) == 1
    f = findings[0]
    assert (f.code, f.line) == ("DD501", 3)
    assert f.path == str(scratch)
    assert "list.append() at line 4" in f.message


def test_rules_registry_matches_docs():
    for code in ("DD501", "DD502", "DD503", "DD504"):
        assert code in RULES
