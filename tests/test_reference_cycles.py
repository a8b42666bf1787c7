"""No reference cycles on the synthesis path, in the baselines, or in
any self-recursive closure of the package.

A dead BDD manager must release its store columns, unique table and
operator caches when its last user drops it, and a finished synthesizer
its plan, not when the cyclic collector next runs (DESIGN.md §7).  Every
runtime test here runs with the collector disabled, so an object that
only the collector could free is seen as garbage or as a live weakref.
A static scan of the source guards the most common cause, a nested
function that calls itself, in code that no test runs.
"""

from __future__ import annotations

import ast
import gc
import weakref
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, List, Set, Tuple, Union

import pytest

from repro.baselines import abc_flow, bdspga_synthesize, sis_daomap_flow
from repro.bdd import ops
from repro.bdd.leveled import LeveledBDD
from repro.bdd.manager import BDDManager
from repro.bdd.reorder import reorder_for_size
from repro.benchgen import build_circuit
from repro.core import DDBDDConfig, ddbdd_synthesize
from repro.core.dp import BDDSynthesizer
from repro.mapping.netcover import cover_network
from repro.network.blif import network_to_blif
from repro.network.dontcare import simplify_with_odc
from repro.network.netlist import BooleanNetwork
from repro.network.simulate import eval_bdd_words
from repro.resilience.budget import Budget
from repro.runtime.fleet import reset_fleet
from repro.runtime.signature import export_dag

#: Small Table-I circuits: together they reach collapse, sifting, the
#: special decompositions, linear expansion, covering and packing.
CIRCUITS = ("sct", "misex1", "9sym", "count")

#: Cyclic garbage one synthesis pass over CIRCUITS may leave; the code
#: leaves none, the bound only keeps the test independent of objects the
#: interpreter or a library makes.  Before this rule held, a pass left
#: about a quarter of a million.
GARBAGE_BOUND = 50


@contextmanager
def collector_off() -> Iterator[None]:
    """Collect once, then keep the cyclic collector off for the block."""
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _garbage_left(run, circuits) -> int:
    """Run ``run`` on each circuit (inputs built first, outside the
    count); returns the cyclic garbage the runs left."""
    nets = [build_circuit(name) for name in circuits]
    with collector_off():
        while nets:
            run(nets.pop(0))
        return gc.collect()


def _synthesize_all(config: DDBDDConfig) -> int:
    """Synthesize CIRCUITS and write their BLIF; returns the cyclic
    garbage the pass left."""
    return _garbage_left(
        lambda net: network_to_blif(ddbdd_synthesize(net, config).network), CIRCUITS
    )


def test_synthesis_leaves_no_cyclic_garbage():
    assert _synthesize_all(DDBDDConfig()) < GARBAGE_BOUND


@pytest.mark.parametrize(
    "flow", [abc_flow, bdspga_synthesize, sis_daomap_flow],
    ids=["abc", "bdspga", "sis_daomap"],
)
def test_baseline_flows_leave_no_cyclic_garbage(flow):
    # The Table III baselines: AIG balancing and mapping, cover
    # extraction and BDS decomposition.
    assert _garbage_left(flow, ("count", "9sym")) < GARBAGE_BOUND


def test_odc_simplification_leaves_no_cyclic_garbage():
    assert _garbage_left(simplify_with_odc, ("misex1",)) < GARBAGE_BOUND


def test_cached_parallel_synthesis_leaves_no_cyclic_garbage(tmp_path):
    config = DDBDDConfig(jobs=2, cache="readwrite", cache_dir=str(tmp_path))
    try:
        assert _synthesize_all(config) < GARBAGE_BOUND  # cold
        reset_fleet()
        assert _synthesize_all(config) < GARBAGE_BOUND  # warm, from sqlite
    finally:
        reset_fleet()


def _exercise(mgr: BDDManager) -> None:
    """Run every engine and walk of ``mgr`` once."""
    a, b, c, d = (mgr.var(v) for v in range(4))
    f = mgr.ite(a, mgr.apply_xor(b, c), mgr.apply_and(c, d))
    g = mgr.apply_xnor(mgr.apply_or(a, d), b)
    mgr.cofactor(f, 1, True)
    mgr.compose(f, 0, g)
    mgr.exists(f, [1])
    mgr.forall(g, [0])
    mgr.sat_count(f)
    mgr.truth_table(f, [0, 1, 2, 3])
    mgr.cache_stats()
    same = BDDManager(4)
    mgr.transfer(f, same)
    swapped = BDDManager(4, order=[3, 2, 1, 0])
    mgr.transfer(f, swapped)
    ops.constrain(mgr, f, g)
    ops.serialize(mgr, [f, g])
    ops.translate(mgr, f, same, {v: same.var(v) for v in range(4)})
    eval_bdd_words(mgr, f, {v: 0b1010 for v in range(4)}, 0b1111)
    LeveledBDD(mgr, f).bs_function(f, 1, mgr.ONE)
    export_dag(mgr, f)
    reorder_for_size(mgr, f, "sift")


def test_manager_dies_at_its_last_del():
    mgr = BDDManager(4)
    with collector_off():
        _exercise(mgr)
        refs = [weakref.ref(x) for x in (mgr, mgr.apply_and, mgr.apply_xor, mgr.ite)]
        del mgr
        assert [r() for r in refs] == [None] * 4


@pytest.mark.parametrize("budgeted", [False, True])
def test_synthesizer_dies_after_emit(budgeted):
    src = BDDManager(6)
    xs = [src.var(v) for v in range(6)]
    f = src.apply_or(src.apply_and(xs[0], src.apply_xor(xs[1], xs[2])),
                     src.apply_and(xs[3], src.apply_or(xs[4], xs[5])))
    net = BooleanNetwork("scratch")
    leaves = {}
    for v in range(6):
        net.add_pi(f"i{v}")
        leaves[v] = (f"i{v}", False, v % 3)
    with collector_off():
        meter = Budget(deadline_s=600.0).meter() if budgeted else None
        synth = BDDSynthesizer(src, f, {v: v % 3 for v in range(6)},
                               DDBDDConfig(verify_level=2), meter=meter)
        del meter  # the synthesizer holds it
        synth.emit(net, leaves, "t")
        refs = [weakref.ref(x) for x in (synth, synth.mgr, synth.lb)]
        del synth
        assert [r() for r in refs] == [None] * 3


def test_cover_network_output_dies_at_its_last_del():
    net = ddbdd_synthesize(build_circuit("count"), DDBDDConfig(final_packing=False)).network
    with collector_off():
        out = cover_network(net, 5)
        refs = [weakref.ref(out), weakref.ref(out.mgr)]
        del out
        assert [r() for r in refs] == [None, None]


@pytest.mark.parametrize("name", ["9sym", "t481"])
def test_symmetric_inputs_die_at_their_last_del(name):
    with collector_off():
        net = build_circuit(name)
        refs = [weakref.ref(net), weakref.ref(net.mgr)]
        del net
        assert [r() for r in refs] == [None, None]



# ----------------------------------------------------------------------
# Static guard: no self-recursive closure anywhere in the package
# ----------------------------------------------------------------------
#: The package source, scanned as text: the guard covers code that no
#: test runs, and needs no host speed.
SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

#: Scopes whose nested functions may reach themselves: the compiled BDD
#: engines, whose closure cells ``BDDManager.__del__`` empties.
RECURSION_ALLOWED = {"bdd/manager.py::_build_engines"}

_FUNCS = (ast.FunctionDef, ast.AsyncFunctionDef)
_Def = Union[ast.FunctionDef, ast.AsyncFunctionDef]


def _function_scopes(tree: ast.Module) -> Iterator[Tuple[str, _Def]]:
    """Every function of ``tree`` with its qualname (``Class.method``,
    ``outer.inner``)."""
    stack: List[Tuple[ast.AST, str]] = [(tree, "")]
    while stack:
        node, prefix = stack.pop()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, _FUNCS + (ast.ClassDef,)):
                qual = prefix + child.name
                if isinstance(child, _FUNCS):
                    yield qual, child
                stack.append((child, qual + "."))
            else:
                stack.append((child, prefix))


def _nested_defs(scope: _Def) -> List[_Def]:
    """Functions defined in ``scope``'s own body, inside its blocks too,
    but not inside a nested function, lambda or class."""
    found: List[_Def] = []
    stack: List[ast.AST] = list(scope.body)
    while stack:
        node = stack.pop()
        if isinstance(node, _FUNCS):
            found.append(node)
        elif not isinstance(node, (ast.Lambda, ast.ClassDef)):
            stack.extend(ast.iter_child_nodes(node))
    return found


def _names_read(func: _Def) -> Set[str]:
    return {
        node.id
        for stmt in func.body
        for node in ast.walk(stmt)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }


def _self_reaching(scope: _Def) -> List[str]:
    """Nested functions of ``scope`` that reach themselves, directly or
    through a sibling: each call of ``scope`` would leave a closure
    cycle that only the cyclic collector frees."""
    defs = {d.name: d for d in _nested_defs(scope)}
    reads = {name: _names_read(d) & defs.keys() for name, d in defs.items()}
    looping = []
    for name in defs:
        seen: Set[str] = set()
        todo = list(reads[name])
        while todo:
            cur = todo.pop()
            if cur not in seen:
                seen.add(cur)
                todo.extend(reads[cur])
        if name in seen:
            looping.append(name)
    return looping


def recursive_closures() -> List[str]:
    """``path::qualname`` of every self-reaching nested function."""
    found = []
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for qual, scope in _function_scopes(tree):
            if f"{rel}::{qual}" not in RECURSION_ALLOWED:
                found.extend(f"{rel}::{qual}.{name}" for name in _self_reaching(scope))
    return sorted(found)


def test_no_nested_function_reaches_itself():
    assert recursive_closures() == []
