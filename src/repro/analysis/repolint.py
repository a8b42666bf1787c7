"""Project lint pass: the repo's AST-enforced coding and determinism rules.

Run as ``python -m repro.analysis.repolint src/`` or ``ddbdd lint
[PATH...]`` (any mix of files and directories; the default is
``src/repro``).  Exit status is 0 when clean, 1 when findings exist, 2
on usage errors.  Every rule is stdlib-AST checkable (the shared
machinery lives in :mod:`repro.analysis.astutil`, the DD504 call graph
in :mod:`repro.analysis.purity`).  One pass parses each file once, runs
the per-file rules on it, runs DD504 over the project call graph,
applies the suppression comments once, and only then looks for stale
ones (RL006).

The ``RLxxx`` rules are the repo's coding contract:

``RL000``
    File does not parse (``SyntaxError``); reported as a finding so the
    gate fails on it like any other rule.
``RL001``
    No mutable default arguments (list/dict/set displays,
    comprehensions, or calls to ``list``/``dict``/``set``/``bytearray``
    in a parameter default).
``RL002``
    No bare ``except:`` handlers.
``RL003``
    Functions taking truth-table integers (a parameter named ``bits``,
    ``tt``, ``truth`` or ``truth_table``) must document the arity
    convention in their docstring (mention ``2**``, ``arity`` or
    ``variable``): a truth-table ``int`` is meaningless without the
    variable count that fixes its width.
``RL004``
    Public functions and public methods of public classes must be fully
    annotated (every parameter and the return type).
``RL006``
    No stale suppressions: a disable comment listing an ``RLnnn`` or
    ``DDnnn`` code that suppresses nothing on that line (either the
    finding it once silenced is gone, or the code was never a rule of
    this linter).

The ``DD5xx`` rules guard the determinism contract every headline
result rests on — ``jobs=N`` cell-for-cell identical to serial
synthesis, content-addressed cache signatures, PYTHONHASHSEED-
independent Table-I depth/area:

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
    ``datetime.now``; telemetry times itself with
    ``time.perf_counter``), the module-level ``random`` functions
    (unseeded global RNG; ``random.Random(seed)`` instances are fine),
    ``os.urandom``, ``uuid.uuid1/uuid4`` and the ``secrets`` module.
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
    ``.submit(...)`` sites in ``repro/runtime/pool.py`` — rebinds or
    mutates module-level globals or references a module-level open file
    handle.  Workers must touch nothing but the job payload.

Soundness limits of the DD rules: the dataflow is best-effort and
intra-procedural (except the DD504 call graph); calls through
variables, ``getattr`` and attribute-typed sets (for example a method
returning a set) are not tracked.  A miss means a missed finding; there
are no crashes on odd code.

Suppress a finding with a ``# repolint: disable=CODE[,CODE...]``
comment on the offending line (the ``def``/``except``/loop/call line).
It is the only exemption: every other finding fails the gate.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis.astutil import (
    Finding,
    ImportMap,
    apply_suppressions,
    iter_sources,
    parse_module,
    suppression_comments,
)
from repro.analysis.purity import (
    ModuleFacts,
    build_call_graph,
    pool_dispatch_roots,
    reachable,
)

RULES = {
    "RL000": "unparsable file",
    "RL001": "mutable default argument",
    "RL002": "bare except",
    "RL003": "truth-table parameter without documented arity",
    "RL004": "public function not fully annotated",
    "RL006": "stale repolint suppression",
    "DD501": "unordered iteration flows into an ordered result",
    "DD502": "result-affecting nondeterminism source",
    "DD503": "bare float sum() in a cost/gain path (convention: math.fsum)",
    "DD504": "fork-unsafe function reachable from the worker pool",
}

_MUTABLE_CALLS = {"list", "dict", "set", "bytearray", "defaultdict", "Counter", "deque"}
_TT_PARAM_NAMES = {"bits", "tt", "truth", "truth_table", "truth_bits"}
_TT_DOC_TOKENS = ("2**", "2 **", "arity", "variable")
#: Shape of a code RL006 takes responsibility for.  Anything else in a
#: disable comment (prose caught by the docstring of a linter...) is not
#: this rule's business.
_CODE_RE = re.compile(r"^(RL|DD)\d{3}$")

#: Path (suffix match) of the module whose ``.submit(...)`` sites name
#: the worker entry points DD504 walks from.
_POOL_PATH_SUFFIX = "repro/runtime/pool.py"

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


# ----------------------------------------------------------------------
# The one pass
# ----------------------------------------------------------------------
def lint_sources(sources: Dict[str, str]) -> List[Finding]:
    """Every unsuppressed finding over a project (path -> source text),
    sorted by path, line, column and code.

    Suppressions are applied once, after the per-file rules and DD504
    have run, so RL006 sees every code a comment actually silenced.  An
    unparsable file yields its RL000 finding and nothing else.
    """
    kept: List[Finding] = []
    trees: Dict[str, ast.Module] = {}
    for path, text in sources.items():
        tree, syntax_finding = parse_module(text, path)
        if tree is not None:
            trees[path] = tree
        elif syntax_finding is not None:
            kept.append(syntax_finding)
    found: Dict[str, List[Finding]] = {path: [] for path in trees}
    for path, tree in trees.items():
        _walk(tree, path, found[path], class_public=True, depth=0)
        found[path].extend(_FileChecker(tree, path).run())
    for finding in check_fork_safety(trees):
        found[finding.path].append(finding)
    for path, findings in found.items():
        comments = suppression_comments(sources[path])
        live, used = apply_suppressions(findings, comments)
        kept.extend(live)
        kept.extend(_check_stale_suppressions(path, comments, used))
    return sorted(kept, key=lambda f: (f.path, f.line, f.col, f.code))


def lint_source(source: str, path: str = "<string>") -> List[Finding]:
    """Lint one Python source text as a one-file project."""
    return lint_sources({path: source})


def lint_paths(paths: Sequence[Path]) -> List[Finding]:
    """Lint every ``.py`` file under the given files/directories."""
    return lint_sources({str(file): text for file, text in iter_sources(paths)})


def _check_stale_suppressions(
    path: str, comments: dict, used: dict
) -> List[Finding]:
    """RL006 — disable comments whose RL/DD codes silenced nothing.

    A line listing ``RL006`` itself opts out (that is how a stale-looking
    comment kept deliberately, e.g. in documentation, is excused).
    """
    out: List[Finding] = []
    for line, listed in sorted(comments.items()):
        if "RL006" in listed:
            continue
        for code in listed:
            if not _CODE_RE.match(code):
                continue
            if code in used.get(line, set()):
                continue
            why = (
                "suppresses nothing on this line"
                if code in RULES
                else "is not a repolint rule"
            )
            out.append(
                Finding(path, line, 0, "RL006", f"{RULES['RL006']}: {code} {why}")
            )
    return out


# ----------------------------------------------------------------------
# Coding-contract rules: RL001 – RL004
# ----------------------------------------------------------------------
def _walk(
    node: ast.AST, path: str, findings: List[Finding], class_public: bool, depth: int
) -> None:
    """Recurse, tracking whether the enclosing class chain is public and
    whether we are at module/class level (``depth`` counts enclosing
    function bodies: nested helpers are not part of the public surface)."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.ExceptHandler):
            if child.type is None:
                findings.append(
                    Finding(path, child.lineno, child.col_offset, "RL002", RULES["RL002"])
                )
            _walk(child, path, findings, class_public, depth)
        elif isinstance(child, ast.ClassDef):
            _walk(
                child,
                path,
                findings,
                class_public and not child.name.startswith("_"),
                depth,
            )
        elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            _check_function(child, path, findings, class_public, depth)
            _walk(child, path, findings, class_public, depth + 1)
        else:
            _walk(child, path, findings, class_public, depth)


def _check_function(
    fn: "ast.FunctionDef | ast.AsyncFunctionDef",
    path: str,
    findings: List[Finding],
    class_public: bool,
    depth: int,
) -> None:
    args = fn.args
    all_args = [*args.posonlyargs, *args.args, *args.kwonlyargs]

    # RL001 — mutable defaults apply to every function, public or not.
    for default in [*args.defaults, *[d for d in args.kw_defaults if d is not None]]:
        if _is_mutable_literal(default):
            findings.append(
                Finding(path, default.lineno, default.col_offset, "RL001", RULES["RL001"])
            )

    # RL003 — truth-table parameters need a documented arity convention.
    if any(a.arg in _TT_PARAM_NAMES for a in all_args):
        doc = ast.get_docstring(fn) or ""
        if not any(token in doc for token in _TT_DOC_TOKENS):
            findings.append(
                Finding(
                    path,
                    fn.lineno,
                    fn.col_offset,
                    "RL003",
                    f"{RULES['RL003']} (function {fn.name!r})",
                )
            )

    # RL004 — annotation coverage of the public surface: module-level
    # functions and methods of public classes, excluding underscore
    # names (dunders included) and nested helpers.
    if depth > 0 or fn.name.startswith("_") or not class_public:
        return
    skip = {"self", "cls"}
    missing = [a.arg for a in all_args if a.annotation is None and a.arg not in skip]
    for extra in (args.vararg, args.kwarg):
        if extra is not None and extra.annotation is None:
            missing.append(extra.arg)
    problems = []
    if missing:
        problems.append(f"unannotated parameter(s): {', '.join(missing)}")
    if fn.returns is None:
        problems.append("missing return annotation")
    if problems:
        findings.append(
            Finding(
                path,
                fn.lineno,
                fn.col_offset,
                "RL004",
                f"{RULES['RL004']} (function {fn.name!r}: {'; '.join(problems)})",
            )
        )


def _is_mutable_literal(node: ast.AST) -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in _MUTABLE_CALLS
    return False


# ----------------------------------------------------------------------
# File-local determinism rules: DD501 / DD502 / DD503
# ----------------------------------------------------------------------
def _setish_name(name: str) -> bool:
    """Whether a bare name announces set-typed contents (``node_set``,
    ``pi_set``): the naming convention substitutes for type info."""
    return name == "set" or name.endswith("_set") or name.endswith("_sets")


class _FileChecker:
    """One file's DD501–DD503 findings (suppressions applied later)."""

    def __init__(self, tree: ast.Module, path: str) -> None:
        self.tree = tree
        self.path = path
        self.imports = ImportMap(tree)
        self.findings: List[Finding] = []
        self.parents: Dict[ast.AST, ast.AST] = {}
        for parent in ast.walk(tree):
            for child in ast.iter_child_nodes(parent):
                self.parents[child] = parent

    def _add(self, node: ast.AST, code: str, message: str) -> None:
        self.findings.append(
            Finding(
                self.path,
                getattr(node, "lineno", 0),
                getattr(node, "col_offset", 0),
                code,
                message,
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
        elif target in _WALLCLOCK_CALLS:
            self._add(
                node,
                "DD502",
                f"{RULES['DD502']}: {target}() reads the wall clock — keep it "
                "out of result paths (time telemetry with time.perf_counter())",
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


def check_fork_safety(trees: Dict[str, ast.Module]) -> List[Finding]:
    """DD504 findings over a project-wide map of parsed modules
    (path -> tree).

    The worker roots are discovered from the pool module's
    ``.submit(...)`` sites; everything statically reachable from them
    must neither touch module-level globals nor capture open handles.
    Each finding points at the offending function's own file and
    ``def`` line.  Returns nothing when the pool module is not in
    ``trees``.
    """
    modules: Dict[str, ModuleFacts] = {}
    pool_mod: Optional[ModuleFacts] = None
    for path, tree in trees.items():
        facts = ModuleFacts(_modname(Path(path)), path, tree)
        modules[facts.modname] = facts
        if path.replace("\\", "/").endswith(_POOL_PATH_SUFFIX):
            pool_mod = facts
    if pool_mod is None:
        return []
    edges, facts_by_fn = build_call_graph(modules)
    owners = {f"{m.modname}.{q}": m for m in modules.values() for q in m.functions}
    findings: List[Finding] = []
    for full in sorted(reachable(edges, pool_dispatch_roots(pool_mod))):
        f = facts_by_fn.get(full)
        if f is None or not f.fork_unsafe:
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
                owners[full].path,
                f.lineno,
                0,
                "DD504",
                f"{RULES['DD504']}: {full} is dispatched through the worker "
                f"pool and {'; '.join(troubles)} — workers must touch nothing "
                "but the job payload",
            )
        )
    return findings


def main(argv: "Sequence[str] | None" = None) -> int:
    """CLI entry point; returns the process exit status."""
    argv = list(sys.argv[1:] if argv is None else argv)
    if any(a in ("-h", "--help") for a in argv):
        print(__doc__)
        return 0
    paths = [Path(a) for a in argv] or [Path("src/repro")]
    for p in paths:
        if not p.exists():
            print(f"repolint: no such path: {p}", file=sys.stderr)
            return 2
    findings = lint_paths(paths)
    for finding in findings:
        print(finding.render())
    if findings:
        print(f"repolint: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
