"""Determinism & fork-safety static analyzer (``DD5xx``).

Every headline result of this reproduction — ``jobs=N`` cell-for-cell
identical to serial synthesis, content-addressed cache signatures,
PYTHONHASHSEED-independent Table-I depth/area — is a *determinism*
claim.  The dynamic tests catch violations after the fact; this module
enforces the underlying coding rules statically, the way
:mod:`repro.analysis.repolint` enforces import boundaries.  Run as
``ddbdd lint --det`` or ``python -m repro.analysis.detcheck src/repro``.

Rules
-----
``DD500``
    File does not parse (``SyntaxError``) — the gate fails on it like
    on any other rule.
``DD501``
    Iteration over an *unordered* collection (``set``/``frozenset``
    literals, ``set()``/``frozenset()`` calls, set operators, set
    comprehensions, or ``.keys()``/``.values()``/``.items()`` of a dict
    whose own construction order is set-tainted) whose elements flow
    into an *ordered* result — a ``list.append``/``extend``/``insert``,
    ``str.join``, ``heapq.heappush`` or ``yield`` — without an enclosing
    ``sorted()``.  Such code emits in hash-seed-dependent order.  Plain
    dict iteration is insertion-ordered on the supported interpreters
    and is deliberately not flagged.
``DD502``
    Use of a nondeterminism source that can affect results: ``hash()``
    (PYTHONHASHSEED-dependent on str/bytes), ``id()`` outside the
    identity-map idiom (subscript key / ``in`` membership /
    ``set.add``), wall-clock reads (``time.time``/``time_ns``,
    ``datetime.now``) outside the telemetry allowlist, the module-level
    ``random`` functions (unseeded global RNG; ``random.Random(seed)``
    instances are fine), ``os.urandom``, ``uuid.uuid1/uuid4`` and the
    ``secrets`` module.
``DD503``
    Float accumulation via bare ``sum()`` in a cost/gain path (the
    summed expression mentions cost/gain/weight/flow/score/delay/slack
    names, float literals or divisions).  The codebase convention is
    ``math.fsum``, which is correctly rounded and therefore independent
    of the iteration order of hash-seeded containers (see
    ``repro/mapping/netcover.py``).
``DD504``
    Fork-unsafety: a function reachable (static call graph) from the
    worker entry points the runtime dispatches — discovered from the
    ``.submit(...)`` sites in ``repro/runtime/pool.py`` plus the fleet
    scheduler's inline dispatch of the same entry points in
    ``repro/runtime/fleet.py`` — rebinds or mutates module-level
    globals or references a module-level open file handle.  Workers
    must touch nothing but the job payload.

Soundness limits: the dataflow is best-effort and intra-procedural
(except the DD504 call graph); calls through variables, ``getattr`` and
attribute-typed sets (for example a method returning a set) are not
tracked.  A miss means a missed finding; there are no crashes on odd
code.  Findings are suppressed with ``# repolint: disable=DD50x`` on
the offending line — the same syntax repolint uses — and the committed
baseline (``detcheck_baseline.json``) lets the CI gate fail only on
*new* findings.
"""

from __future__ import annotations

import ast
import json
import sys
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.analysis.astutil import (
    Finding,
    ImportMap,
    apply_suppressions,
    enclosing_symbols,
    iter_sources,
    parse_module,
    suppression_comments,
)
from repro.analysis.purity import (
    ModuleFacts,
    build_call_graph,
    fleet_dispatch_roots,
    pool_dispatch_roots,
    reachable,
)

RULES = {
    "DD500": "unparsable file",
    "DD501": "unordered iteration flows into an ordered result",
    "DD502": "result-affecting nondeterminism source",
    "DD503": "bare float sum() in a cost/gain path (convention: math.fsum)",
    "DD504": "fork-unsafe function reachable from the worker pool",
}

#: Paths (suffix match) where wall-clock reads are legitimate telemetry.
TELEMETRY_ALLOW = (
    "repro/experiments/runall.py",
)

#: Modules exempt from DD504 (deliberate, documented process-global
#: state — e.g. the fault-injection plan's fork-inherit semantics).
FORK_SAFETY_ALLOW: Tuple[str, ...] = ()

_SET_FACTORIES = {"set", "frozenset"}
_ORDER_INSENSITIVE_CONSUMERS = {
    "sorted", "set", "frozenset", "sum", "min", "max", "len", "any", "all",
    "math.fsum", "fsum", "collections.Counter", "Counter",
}
_ORDERED_SINK_METHODS = {"append", "extend", "insert", "appendleft"}
_WALLCLOCK_CALLS = {"time.time", "time.time_ns", "datetime.now", "datetime.datetime.now"}
_ENTROPY_CALLS = {
    "os.urandom", "uuid.uuid1", "uuid.uuid4", "secrets.token_bytes",
    "secrets.token_hex", "secrets.token_urlsafe", "secrets.randbelow",
    "secrets.choice",
}
_GLOBAL_RANDOM_CALLS = {
    "random.random", "random.randint", "random.randrange", "random.choice",
    "random.choices", "random.shuffle", "random.sample", "random.uniform",
    "random.getrandbits", "random.seed",
}
_FLOATISH_NAME_TOKENS = (
    "cost", "gain", "weight", "flow", "score", "delay", "slack",
)


def _setish_name(name: str) -> bool:
    """Whether a bare name announces set-typed contents (``node_set``,
    ``pi_set``): the naming convention substitutes for type info."""
    return name == "set" or name.endswith("_set") or name.endswith("_sets")


# ----------------------------------------------------------------------
# File-local rules: DD501 / DD502 / DD503
# ----------------------------------------------------------------------
class _FileChecker:
    """One file's DD501–DD503 findings (suppressions applied later)."""

    def __init__(self, tree: ast.Module, path: str) -> None:
        self.tree = tree
        self.path = path
        self.imports = ImportMap(tree)
        self.symbols = enclosing_symbols(tree)
        self.findings: List[Finding] = []
        self.parents: Dict[ast.AST, ast.AST] = {}
        for parent in ast.walk(tree):
            for child in ast.iter_child_nodes(parent):
                self.parents[child] = parent

    def _add(self, node: ast.AST, code: str, message: str) -> None:
        line = getattr(node, "lineno", 0)
        self.findings.append(
            Finding(
                self.path,
                line,
                getattr(node, "col_offset", 0),
                code,
                message,
                symbol=self.symbols.get(line, ""),
            )
        )

    def run(self) -> List[Finding]:
        # Each scope (module body, every function body) gets its own
        # forward taint pass.
        self._check_scope(list(self.tree.body))
        for node in ast.walk(self.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._check_scope(list(node.body))
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Call):
                self._check_call(node)
        return self.findings

    # ------------------------------------------------------------------
    # DD501
    # ------------------------------------------------------------------
    def _check_scope(self, body: List[ast.stmt]) -> None:
        tainted: Set[str] = set()
        self._scan_statements(body, tainted)

    def _scan_statements(self, stmts: Sequence[ast.stmt], tainted: Set[str]) -> None:
        for stmt in stmts:
            if isinstance(stmt, ast.Assign):
                self._note_assign(stmt.targets, stmt.value, tainted)
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                self._note_assign([stmt.target], stmt.value, tainted)
            elif isinstance(stmt, (ast.For, ast.AsyncFor)):
                if self._unordered(stmt.iter, tainted):
                    self._check_loop_sinks(stmt, tainted)
                self._scan_statements(stmt.body, tainted)
                self._scan_statements(stmt.orelse, tainted)
                continue
            # Comprehension checks apply to every expression in the
            # statement, whatever its kind.
            for node in ast.walk(stmt):
                if isinstance(node, (ast.ListComp, ast.GeneratorExp)):
                    self._check_comprehension(node, tainted)
            for attr in ("body", "orelse", "finalbody"):
                inner = getattr(stmt, attr, None)
                if isinstance(inner, list) and inner and isinstance(inner[0], ast.stmt):
                    if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        self._scan_statements(inner, tainted)
            for handler in getattr(stmt, "handlers", []):
                self._scan_statements(handler.body, tainted)

    def _note_assign(
        self, targets: Sequence[ast.expr], value: ast.expr, tainted: Set[str]
    ) -> None:
        unordered = self._unordered(value, tainted)
        for t in targets:
            if isinstance(t, ast.Name):
                if unordered:
                    tainted.add(t.id)
                else:
                    tainted.discard(t.id)

    def _unordered(self, node: ast.expr, tainted: Set[str]) -> bool:
        """Whether iterating ``node`` yields hash-seed-dependent order."""
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Name):
            # Untracked names (parameters, attributes of other objects)
            # have no type info; a ``*_set`` naming convention is taken
            # at its word.
            return node.id in tainted or _setish_name(node.id)
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.BitXor, ast.Sub)
        ):
            return self._unordered(node.left, tainted) or self._unordered(
                node.right, tainted
            )
        if isinstance(node, ast.DictComp):
            return any(self._unordered(g.iter, tainted) for g in node.generators)
        if isinstance(node, ast.Call):
            target = self.imports.call_target(node)
            if target in _SET_FACTORIES:
                return True
            if target == "sorted":
                return False
            if target == "dict.fromkeys" and node.args:
                return self._unordered(node.args[0], tainted)
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr in ("keys", "values", "items")
                and not node.args
            ):
                # Dict views are insertion-ordered; only a dict whose
                # construction order is itself set-tainted is unordered.
                return self._unordered(func.value, tainted)
        return False

    def _check_loop_sinks(self, loop: "ast.For | ast.AsyncFor", tainted: Set[str]) -> None:
        tracked: Set[str] = {
            n.id for n in ast.walk(loop.target) if isinstance(n, ast.Name)
        }
        sink = self._find_ordered_sink(loop.body, tracked)
        if sink is not None:
            node, what = sink
            self._add(
                loop.iter,
                "DD501",
                f"{RULES['DD501']}: loop over an unordered collection feeds "
                f"{what} at line {node.lineno} — wrap the iterable in sorted()",
            )

    def _find_ordered_sink(
        self, body: Sequence[ast.stmt], tracked: Set[str]
    ) -> Optional[Tuple[ast.AST, str]]:
        """First ordered sink in ``body`` consuming a tracked name.

        ``tracked`` grows through derived assignments (``y = f(x)``)
        scanned in statement order.
        """
        for stmt in body:
            if isinstance(stmt, ast.Assign):
                if any(self._references(stmt.value, tracked) for _ in (0,)):
                    for t in stmt.targets:
                        for n in ast.walk(t):
                            if isinstance(n, ast.Name):
                                tracked.add(n.id)
                elif all(isinstance(t, ast.Name) for t in stmt.targets):
                    for t in stmt.targets:
                        tracked.discard(t.id)  # type: ignore[union-attr]
            for node in ast.walk(stmt):
                if isinstance(node, ast.Call):
                    func = node.func
                    target = self.imports.call_target(node)
                    if (
                        isinstance(func, ast.Attribute)
                        and func.attr in _ORDERED_SINK_METHODS
                        and any(self._references(a, tracked) for a in node.args)
                    ):
                        return node, f"list.{func.attr}()"
                    if (
                        isinstance(func, ast.Attribute)
                        and func.attr == "join"
                        and any(self._references(a, tracked) for a in node.args)
                    ):
                        return node, "str.join()"
                    if target in ("heapq.heappush", "heappush") and any(
                        self._references(a, tracked) for a in node.args
                    ):
                        return node, "heapq.heappush()"
                elif isinstance(node, (ast.Yield, ast.YieldFrom)):
                    value = node.value
                    if value is not None and self._references(value, tracked):
                        return node, "yield"
            inner_lists = [getattr(stmt, a, None) for a in ("body", "orelse", "finalbody")]
            for inner in inner_lists:
                if isinstance(inner, list) and inner and isinstance(inner[0], ast.stmt):
                    hit = self._find_ordered_sink(inner, tracked)
                    if hit is not None:
                        return hit
        return None

    @staticmethod
    def _references(node: ast.expr, tracked: Set[str]) -> bool:
        return any(
            isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load) and n.id in tracked
            for n in ast.walk(node)
        )

    def _check_comprehension(
        self, comp: "ast.ListComp | ast.GeneratorExp", tainted: Set[str]
    ) -> None:
        if not comp.generators or not self._unordered(comp.generators[0].iter, tainted):
            return
        parent = self.parents.get(comp)
        consumer: Optional[str] = None
        if isinstance(parent, ast.Call) and comp in parent.args:
            consumer = self.imports.call_target(parent)
            if consumer in _ORDER_INSENSITIVE_CONSUMERS:
                return
            if (
                isinstance(parent.func, ast.Attribute)
                and parent.func.attr == "join"
            ):
                consumer = "str.join()"
        if isinstance(comp, ast.GeneratorExp):
            # A generator over a set is lazy; it only matters when an
            # order-sensitive consumer drains it.
            if consumer not in ("list", "tuple", "str.join()"):
                return
            what = consumer
        else:
            what = "a list" if consumer is None else f"{consumer}"
        self._add(
            comp,
            "DD501",
            f"{RULES['DD501']}: comprehension over an unordered collection "
            f"builds {what} — wrap the iterable in sorted()",
        )

    # ------------------------------------------------------------------
    # DD502 / DD503
    # ------------------------------------------------------------------
    def _check_call(self, node: ast.Call) -> None:
        target = self.imports.call_target(node)
        if target is None:
            return
        if target == "hash":
            self._add(
                node,
                "DD502",
                f"{RULES['DD502']}: hash() is PYTHONHASHSEED-dependent on "
                "str/bytes — use a content hash (hashlib) or a structural key",
            )
        elif target == "id" and not self._identity_map_idiom(node):
            self._add(
                node,
                "DD502",
                f"{RULES['DD502']}: id() values vary between runs — confine "
                "them to identity-map keys or membership tests",
            )
        elif target in _WALLCLOCK_CALLS and not self._telemetry_exempt():
            self._add(
                node,
                "DD502",
                f"{RULES['DD502']}: {target}() reads the wall clock — keep it "
                "out of result paths (telemetry modules are allowlisted)",
            )
        elif target in _GLOBAL_RANDOM_CALLS:
            self._add(
                node,
                "DD502",
                f"{RULES['DD502']}: {target}() uses the unseeded global RNG — "
                "use random.Random(seed) as the rest of the repo does",
            )
        elif target in _ENTROPY_CALLS:
            self._add(
                node,
                "DD502",
                f"{RULES['DD502']}: {target}() is an OS entropy source",
            )
        elif target == "sum" and node.args and self._floatish(node.args[0]):
            self._add(
                node,
                "DD503",
                f"{RULES['DD503']} — fsum is correctly rounded, so the total "
                "is independent of hash-seeded iteration order",
            )

    def _identity_map_idiom(self, node: ast.Call) -> bool:
        """``d[id(x)]``, ``id(x) in s`` and ``s.add(id(x))`` are the
        accepted identity-map uses: the value never orders anything."""
        parent = self.parents.get(node)
        if isinstance(parent, ast.Subscript):
            return True
        if isinstance(parent, ast.Compare) and any(
            isinstance(op, (ast.In, ast.NotIn)) for op in parent.ops
        ):
            return True
        if (
            isinstance(parent, ast.Call)
            and isinstance(parent.func, ast.Attribute)
            and parent.func.attr in ("add", "discard", "remove", "get")
        ):
            return True
        if isinstance(parent, (ast.Tuple, ast.Index)):
            grand = self.parents.get(parent)
            if isinstance(grand, ast.Subscript) or isinstance(grand, ast.Index):
                return True
        return False

    def _telemetry_exempt(self) -> bool:
        normal = self.path.replace("\\", "/")
        return any(normal.endswith(suffix) for suffix in TELEMETRY_ALLOW)

    def _floatish(self, node: ast.expr) -> bool:
        """Whether the summed expression looks float-valued: float
        literals, divisions, ``float()`` casts or cost/gain-family
        names anywhere in the subtree."""
        for n in ast.walk(node):
            if isinstance(n, ast.Constant) and isinstance(n.value, float):
                return True
            if isinstance(n, ast.BinOp) and isinstance(n.op, ast.Div):
                return True
            if isinstance(n, ast.Call):
                t = self.imports.call_target(n)
                if t == "float":
                    return True
            name = None
            if isinstance(n, ast.Name):
                name = n.id
            elif isinstance(n, ast.Attribute):
                name = n.attr
            if name and any(tok in name.lower() for tok in _FLOATISH_NAME_TOKENS):
                return True
        return False


def check_source(source: str, path: str = "<string>") -> List[Finding]:
    """DD500/DD501/DD502/DD503 findings for one source text, with
    ``# repolint: disable=DD50x`` suppressions applied."""
    tree, syntax_finding = parse_module(source, path, syntax_code="DD500")
    if tree is None:
        return [syntax_finding] if syntax_finding is not None else []
    findings = _FileChecker(tree, path).run()
    kept, _ = apply_suppressions(findings, suppression_comments(source))
    return kept


# ----------------------------------------------------------------------
# DD504 — fork-safety of the worker call graph
# ----------------------------------------------------------------------
def _modname(path: Path) -> str:
    """Dotted module name from a file path (relative to the nearest
    ``src`` ancestor, else the trailing path segments)."""
    parts = list(path.with_suffix("").parts)
    if "src" in parts:
        parts = parts[len(parts) - parts[::-1].index("src"):]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def check_fork_safety(
    sources: Dict[str, str],
    pool_path_suffix: str = "repro/runtime/pool.py",
    fleet_path_suffix: str = "repro/runtime/fleet.py",
    allow: Sequence[str] = FORK_SAFETY_ALLOW,
) -> List[Finding]:
    """DD504 findings over a project-wide source map (path -> text).

    The worker roots are discovered from the pool module's
    ``.submit(...)`` sites plus the fleet scheduler's inline dispatch
    of the same worker entry points
    (:func:`repro.analysis.purity.fleet_dispatch_roots`); everything
    statically reachable from them must neither touch module-level
    globals nor capture open handles.  Returns nothing when the pool
    module is not in ``sources``.
    """
    modules: Dict[str, ModuleFacts] = {}
    pool_mod: Optional[ModuleFacts] = None
    fleet_mod: Optional[ModuleFacts] = None
    for path, text in sources.items():
        try:
            facts = ModuleFacts.from_source(text, path, _modname(Path(path)))
        except SyntaxError:
            continue  # reported as DD500 by the per-file pass
        modules[facts.modname] = facts
        normal = path.replace("\\", "/")
        if normal.endswith(pool_path_suffix):
            pool_mod = facts
        elif normal.endswith(fleet_path_suffix):
            fleet_mod = facts
    if pool_mod is None:
        return []
    edges, facts_by_fn = build_call_graph(modules)
    roots = pool_dispatch_roots(pool_mod)
    if fleet_mod is not None:
        roots |= fleet_dispatch_roots(fleet_mod, set(facts_by_fn))
    findings: List[Finding] = []
    for full in sorted(reachable(edges, roots)):
        f = facts_by_fn.get(full)
        if f is None or not f.fork_unsafe:
            continue
        modname = full.rsplit(".", 1)[0] if "." in full else full
        owner = next(
            (m for m in modules.values() if full.startswith(m.modname + ".")), None
        )
        if owner is None or any(owner.modname == a for a in allow):
            continue
        troubles = []
        if f.global_rebinds:
            troubles.append(f"rebinds global(s) {', '.join(sorted(f.global_rebinds))}")
        if f.global_mutations:
            troubles.append(
                f"mutates module-level {', '.join(sorted(f.global_mutations))}"
            )
        if f.handle_captures:
            troubles.append(
                f"captures open handle(s) {', '.join(sorted(f.handle_captures))}"
            )
        findings.append(
            Finding(
                owner.path,
                f.lineno,
                0,
                "DD504",
                f"{RULES['DD504']}: {full} is dispatched through the worker "
                f"pool and {'; '.join(troubles)} — workers must touch nothing "
                "but the job payload",
                symbol=full,
            )
        )
    return findings


# ----------------------------------------------------------------------
# Project runner, baseline, CLI
# ----------------------------------------------------------------------
def run_detcheck(paths: Sequence[Path]) -> List[Finding]:
    """All DD5xx findings for the Python files under ``paths``,
    suppressions applied, deterministically ordered."""
    sources: Dict[str, str] = {}
    findings: List[Finding] = []
    for file, text in iter_sources(paths):
        sources[str(file)] = text
        findings.extend(check_source(text, str(file)))

    comments = {path: suppression_comments(text) for path, text in sources.items()}

    def _suppress(extra: Iterable[Finding]) -> List[Finding]:
        kept: List[Finding] = []
        by_path: Dict[str, List[Finding]] = {}
        for f in extra:
            by_path.setdefault(f.path, []).append(f)
        for path, fs in by_path.items():
            k, _ = apply_suppressions(fs, comments.get(path, {}))
            kept.extend(k)
        return kept

    findings.extend(_suppress(check_fork_safety(sources)))
    return sorted(findings, key=lambda f: (f.path, f.line, f.code, f.message))


#: Default committed baseline location (repo root).
BASELINE_NAME = "detcheck_baseline.json"


def load_baseline(path: Path) -> Dict[Tuple[str, str, str], int]:
    """Baseline as ``(path, code, symbol) -> allowed count``.  A missing
    file is an empty baseline."""
    if not path.exists():
        return {}
    data = json.loads(path.read_text(encoding="utf-8"))
    out: Dict[Tuple[str, str, str], int] = {}
    for row in data.get("findings", []):
        key = (str(row["path"]), str(row["code"]), str(row.get("symbol", "")))
        out[key] = out.get(key, 0) + 1
    return out


def write_baseline(path: Path, findings: Sequence[Finding]) -> None:
    """Write ``findings`` as the new baseline (sorted, justification
    fields preserved from an existing file where the key matches)."""
    old_just: Dict[Tuple[str, str, str], str] = {}
    if path.exists():
        for row in json.loads(path.read_text(encoding="utf-8")).get("findings", []):
            key = (str(row["path"]), str(row["code"]), str(row.get("symbol", "")))
            if row.get("justification"):
                old_just[key] = str(row["justification"])
    rows = []
    for f in findings:
        row: Dict[str, object] = {
            "path": f.path,
            "code": f.code,
            "symbol": f.symbol,
            "message": f.message,
        }
        just = old_just.get((f.path, f.code, f.symbol))
        if just:
            row["justification"] = just
        rows.append(row)
    payload = {
        "comment": (
            "detcheck baseline: pre-existing DD5xx findings the lint-det "
            "gate tolerates. New findings (not matching path+code+symbol "
            "here) fail the build. Keep this empty, or justify each entry."
        ),
        "findings": rows,
    }
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def new_findings(
    findings: Sequence[Finding], baseline: Dict[Tuple[str, str, str], int]
) -> List[Finding]:
    """Findings not covered by the baseline (per-key counted, so a file
    can gain a *second* instance of a baselined finding and still fail)."""
    budget = dict(baseline)
    out: List[Finding] = []
    for f in findings:
        key = (f.path, f.code, f.symbol)
        if budget.get(key, 0) > 0:
            budget[key] -= 1
        else:
            out.append(f)
    return out


def main(argv: "Sequence[str] | None" = None) -> int:
    """CLI entry point; exit 0 clean (or fully baselined), 1 on new
    findings, 2 on usage errors."""
    argv = list(sys.argv[1:] if argv is None else argv)
    emit_json = "--json" in argv
    update = "--update-baseline" in argv
    argv = [a for a in argv if a not in ("--json", "--update-baseline")]
    baseline_path: Optional[Path] = None
    if "--baseline" in argv:
        i = argv.index("--baseline")
        if i + 1 >= len(argv):
            print("detcheck: --baseline needs a file argument", file=sys.stderr)
            return 2
        baseline_path = Path(argv[i + 1])
        del argv[i:i + 2]
    if any(a in ("-h", "--help") for a in argv):
        print(__doc__)
        return 0
    paths = [Path(a) for a in argv] or [Path("src/repro")]
    for p in paths:
        if not p.exists():
            print(f"detcheck: no such path: {p}", file=sys.stderr)
            return 2

    findings = run_detcheck(paths)
    if update:
        target = baseline_path or Path(BASELINE_NAME)
        write_baseline(target, findings)
        print(f"detcheck: wrote {len(findings)} finding(s) to {target}")
        return 0
    baseline = load_baseline(baseline_path) if baseline_path else {}
    fresh = new_findings(findings, baseline)
    if emit_json:
        print(json.dumps(
            {
                "findings": [f.as_dict() for f in findings],
                "new": [f.as_dict() for f in fresh],
                "baselined": len(findings) - len(fresh),
            },
            indent=2,
            sort_keys=True,
        ))
    else:
        for f in fresh:
            print(f.render())
        if len(findings) != len(fresh):
            print(
                f"detcheck: {len(findings) - len(fresh)} baselined finding(s) "
                "tolerated",
                file=sys.stderr,
            )
    if fresh:
        print(f"detcheck: {len(fresh)} new finding(s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
