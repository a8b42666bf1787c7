"""Function purity and fork-safety facts (support for repolint's DD504).

The parallel runtime ships :class:`~repro.runtime.pool.SupernodeJob`
payloads into forked worker processes; its determinism contract says a
worker "must touch nothing but the job payload".  This module extracts
the *static* facts that contract rests on:

* :class:`ModuleFacts` — per-module AST summary: the names bound at
  module level, which of them are mutable containers, which hold open
  file handles, and every function/method with its AST.
* :class:`FunctionFacts` — per-function summary: module-level globals
  the function writes or mutates, open-handle globals it touches, and
  the (import-resolved) dotted names it calls.
* :func:`build_call_graph` / :func:`reachable` — a best-effort static
  call graph over a set of modules, used to walk from the pool's
  dispatch sites to everything a worker can execute.

Soundness limits (by design — this is a lint, not a verifier): calls
through variables, ``getattr`` and method dispatch on objects are not
resolved; only plain-name and ``module.attr`` calls enter the graph.
Mutations are recognized syntactically (``global`` writes, augmented
assignment, subscript stores and the standard mutating method names on
a module-level binding).  A miss means a missed finding, never a crash.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.analysis.astutil import ImportMap, dotted_name

#: Method names that mutate their receiver in place.
MUTATING_METHODS = {
    "append", "extend", "insert", "add", "update", "pop", "popitem",
    "remove", "discard", "clear", "setdefault", "sort", "reverse",
    "appendleft", "extendleft",
}

#: Calls whose result is a mutable container (module-level bindings of
#: these are shared mutable state under ``fork``).
_MUTABLE_FACTORIES = {
    "list", "dict", "set", "bytearray", "defaultdict", "Counter", "deque",
    "collections.defaultdict", "collections.Counter", "collections.deque",
    "collections.OrderedDict", "OrderedDict",
}

#: Calls that yield an open OS-level handle.
_HANDLE_FACTORIES = {
    "open", "io.open", "os.fdopen", "tempfile.NamedTemporaryFile",
    "tempfile.TemporaryFile", "socket.socket", "sqlite3.connect",
}


def _is_mutable_value(node: ast.AST, imports: ImportMap) -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        target = imports.call_target(node)
        return target in _MUTABLE_FACTORIES if target else False
    return False


def _is_handle_value(node: ast.AST, imports: ImportMap) -> bool:
    if isinstance(node, ast.Call):
        target = imports.call_target(node)
        return target in _HANDLE_FACTORIES if target else False
    return False


@dataclass
class FunctionFacts:
    """What one function does to state outside its own frame."""

    qualname: str
    lineno: int
    #: Module-level names the function rebinds (``global x; x = ...``).
    global_rebinds: Set[str] = field(default_factory=set)
    #: Module-level mutable names the function mutates in place.
    global_mutations: Set[str] = field(default_factory=set)
    #: Module-level open-handle names the function references.
    handle_captures: Set[str] = field(default_factory=set)
    #: Import-resolved dotted names of everything the function calls.
    calls: Set[str] = field(default_factory=set)

    @property
    def fork_unsafe(self) -> bool:
        return bool(self.global_rebinds or self.global_mutations or self.handle_captures)


@dataclass
class ModuleFacts:
    """AST summary of one module, keyed for the project call graph."""

    modname: str
    path: str
    tree: ast.Module
    imports: ImportMap = field(init=False)
    #: Names bound at module level (functions, classes, constants, ...).
    module_bindings: Set[str] = field(default_factory=set)
    #: Module-level names bound to mutable containers.
    mutable_globals: Set[str] = field(default_factory=set)
    #: Module-level names bound to open handles.
    handle_globals: Set[str] = field(default_factory=set)
    #: qualname -> function AST node (methods use ``Class.method``).
    functions: Dict[str, "ast.FunctionDef | ast.AsyncFunctionDef"] = field(
        default_factory=dict
    )

    def __post_init__(self) -> None:
        self.imports = ImportMap(self.tree)
        self._collect_module_level()
        self._collect_functions(self.tree, "")

    def _collect_module_level(self) -> None:
        for node in self.tree.body:
            targets: List[ast.AST] = []
            value: Optional[ast.AST] = None
            if isinstance(node, ast.Assign):
                targets, value = list(node.targets), node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets, value = [node.target], node.value
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                self.module_bindings.add(node.name)
                continue
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            for t in targets:
                for name_node in ast.walk(t):
                    if isinstance(name_node, ast.Name):
                        self.module_bindings.add(name_node.id)
                        if value is not None and _is_mutable_value(value, self.imports):
                            self.mutable_globals.add(name_node.id)
                        if value is not None and _is_handle_value(value, self.imports):
                            self.handle_globals.add(name_node.id)

    def _collect_functions(self, node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self.functions[f"{prefix}{child.name}"] = child
                self._collect_functions(child, f"{prefix}{child.name}.")
            elif isinstance(child, ast.ClassDef):
                self._collect_functions(child, f"{prefix}{child.name}.")

    # ------------------------------------------------------------------
    def function_facts(self, qualname: str) -> FunctionFacts:
        """Analyze one function of this module (see class docstring for
        what is and is not recognized)."""
        fn = self.functions[qualname]
        facts = FunctionFacts(qualname=f"{self.modname}.{qualname}", lineno=fn.lineno)
        local = _local_bindings(fn)
        declared_global: Set[str] = set()
        for node in ast.walk(fn):
            if isinstance(node, ast.Global):
                declared_global.update(node.names)
            elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                self._note_store(node, facts, local, declared_global)
            elif isinstance(node, ast.Call):
                target = self.imports.call_target(node)
                if target:
                    facts.calls.add(target)
                self._note_mutating_call(node, facts, local)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                if node.id in self.handle_globals and node.id not in local:
                    facts.handle_captures.add(node.id)
        return facts

    def _note_store(
        self,
        node: "ast.Assign | ast.AnnAssign | ast.AugAssign",
        facts: FunctionFacts,
        local: Set[str],
        declared_global: Set[str],
    ) -> None:
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        for t in targets:
            if isinstance(t, ast.Name):
                if t.id in declared_global and t.id in self.module_bindings:
                    facts.global_rebinds.add(t.id)
                elif (
                    isinstance(node, ast.AugAssign)
                    and t.id in self.mutable_globals
                    and t.id not in local
                ):
                    facts.global_mutations.add(t.id)
            elif isinstance(t, (ast.Subscript, ast.Attribute)):
                base = t.value
                if (
                    isinstance(base, ast.Name)
                    and base.id in self.mutable_globals
                    and base.id not in local
                ):
                    facts.global_mutations.add(base.id)

    def _note_mutating_call(
        self, node: ast.Call, facts: FunctionFacts, local: Set[str]
    ) -> None:
        func = node.func
        if not isinstance(func, ast.Attribute) or func.attr not in MUTATING_METHODS:
            return
        base = func.value
        if (
            isinstance(base, ast.Name)
            and base.id in self.mutable_globals
            and base.id not in local
        ):
            facts.global_mutations.add(base.id)


def _local_bindings(fn: "ast.FunctionDef | ast.AsyncFunctionDef") -> Set[str]:
    """Names bound inside the function (parameters, assignments, loop
    targets, withitems, comprehension targets, nested defs) — these
    shadow module-level bindings of the same name."""
    names: Set[str] = set()
    args = fn.args
    for a in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
        names.add(a.arg)
    for extra in (args.vararg, args.kwarg):
        if extra is not None:
            names.add(extra.arg)
    for node in ast.walk(fn):
        if isinstance(node, ast.Name) and isinstance(node.ctx, (ast.Store, ast.Del)):
            names.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if node is not fn:
                names.add(node.name)
        elif isinstance(node, ast.Global):
            # ``global x`` inside the body un-shadows x for this pass.
            names.difference_update(node.names)
    return names


# ----------------------------------------------------------------------
# Project call graph
# ----------------------------------------------------------------------
def build_call_graph(
    modules: Dict[str, ModuleFacts],
) -> Tuple[Dict[str, Set[str]], Dict[str, FunctionFacts]]:
    """``(edges, facts)`` over every function of ``modules``.

    Nodes are fully-qualified ``module.qualname`` strings.  A call to a
    bare name resolves within its own module first, then through the
    import map; ``module.attr`` calls resolve when the module is in the
    analyzed set.  Unresolvable calls are dropped (documented miss).
    """
    edges: Dict[str, Set[str]] = {}
    facts: Dict[str, FunctionFacts] = {}
    # Function index: last path segment matching wins only on exact
    # module+qualname; plus a map from "module.func" dotted spellings.
    index: Set[str] = set()
    for mod in modules.values():
        for qual in mod.functions:
            index.add(f"{mod.modname}.{qual}")

    for mod in modules.values():
        for qual in mod.functions:
            full = f"{mod.modname}.{qual}"
            f = mod.function_facts(qual)
            facts[full] = f
            out: Set[str] = set()
            for call in f.calls:
                resolved = _resolve_call(call, mod, index)
                if resolved is not None:
                    out.add(resolved)
            edges[full] = out
    return edges, facts


def _resolve_call(call: str, mod: ModuleFacts, index: Set[str]) -> Optional[str]:
    # Same-module function (bare name or method-qualified).
    candidate = f"{mod.modname}.{call}"
    if candidate in index:
        return candidate
    # Import-resolved dotted path (``from x import f`` / ``import x``).
    resolved = mod.imports.resolve_dotted(call)
    if resolved in index:
        return resolved
    # ``pkg.mod.func`` spelled directly.
    if call in index:
        return call
    return None


def reachable(edges: Dict[str, Set[str]], roots: Iterable[str]) -> Set[str]:
    """Transitive closure of ``roots`` over the call graph (roots that
    are not graph nodes are kept — callers report them as misses)."""
    seen: Set[str] = set()
    stack = [r for r in roots]
    while stack:
        node = stack.pop()
        if node in seen:
            continue
        seen.add(node)
        stack.extend(edges.get(node, ()))
    return seen


def pool_dispatch_roots(pool_mod: ModuleFacts) -> Set[str]:
    """The worker entry points dispatched by the runtime pool module.

    Discovered, not hard-coded: every plain-name first argument of an
    ``<executor>.submit(...)`` call inside the module, plus every
    function those entries call locally — the transitive walk happens in
    the project graph.  Falls back to the conventional ``run_supernode_*``
    names if no submit site parses.
    """
    roots: Set[str] = set()
    for node in ast.walk(pool_mod.tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "submit"
            and node.args
        ):
            target = dotted_name(node.args[0])
            if target and f"{pool_mod.modname}.{target}" in {
                f"{pool_mod.modname}.{q}" for q in pool_mod.functions
            }:
                roots.add(f"{pool_mod.modname}.{target}")
    if not roots:
        roots = {
            f"{pool_mod.modname}.{q}"
            for q in pool_mod.functions
            if q.startswith("run_supernode_job")
        }
    return roots
