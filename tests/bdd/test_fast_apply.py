"""Equivalence of the fast apply paths with a reference ITE-only engine.

The hot-path rewrite gave :class:`BDDManager` dedicated binary
recursions (``apply_and``/``apply_or``/``apply_xor``/``apply_xnor``)
and ITE standard-triple normalization.  All of them are pure speed: in
a hash-consed manager, canonical node ids *are* function identity, so
every path must return the exact id the generic 3-operand ITE recursion
would.  These tests pin that contract with random expressions, plus the
end-to-end Table-I golden regression that proves the optimized kernel
changes no synthesized circuit.
"""

from __future__ import annotations

import sys

import pytest
from hypothesis import given, settings, strategies as st

from repro.bdd.manager import BDDManager
from repro.utils import recursion_headroom

N_VARS = 5


def reference_ite(mgr: BDDManager, f: int, g: int, h: int) -> int:
    """Textbook ITE recursion using only terminal rules and ``make_node``
    — no operator caches, no normalization, no fast paths.  The slow
    but obviously-correct engine the optimized paths must match."""
    if f == mgr.ONE:
        return g
    if f == mgr.ZERO:
        return h
    if g == h:
        return g
    level = min(mgr._level(f), mgr._level(g), mgr._level(h))
    v = mgr.var_at_level(level)

    def split(x: int) -> tuple:
        if not mgr.is_terminal(x) and mgr.top_var(x) == v:
            return mgr.lo(x), mgr.hi(x)
        return x, x

    f0, f1 = split(f)
    g0, g1 = split(g)
    h0, h1 = split(h)
    lo = reference_ite(mgr, f0, g0, h0)
    hi = reference_ite(mgr, f1, g1, h1)
    return lo if lo == hi else mgr.make_node(v, lo, hi)


# Random expression trees: leaves are literals/constants, inner nodes
# Boolean connectives.  Kept small — each example replays the tree in
# several managers.
_leaf = st.one_of(
    st.tuples(st.just("lit"), st.integers(0, N_VARS - 1), st.booleans()),
    st.tuples(st.just("const"), st.booleans()),
)
_expr = st.recursive(
    _leaf,
    lambda sub: st.one_of(
        st.tuples(st.sampled_from(["and", "or", "xor", "xnor"]), sub, sub),
        st.tuples(st.just("not"), sub),
        st.tuples(st.just("ite"), sub, sub, sub),
    ),
    max_leaves=12,
)


def build(mgr: BDDManager, expr) -> int:
    op = expr[0]
    if op == "lit":
        return mgr.nvar(expr[1]) if expr[2] else mgr.var(expr[1])
    if op == "const":
        return mgr.ONE if expr[1] else mgr.ZERO
    if op == "not":
        return mgr.negate(build(mgr, expr[1]))
    if op == "ite":
        return mgr.ite(build(mgr, expr[1]), build(mgr, expr[2]), build(mgr, expr[3]))
    f = build(mgr, expr[1])
    g = build(mgr, expr[2])
    return getattr(mgr, f"apply_{op}")(f, g)


def eval_expr(expr, env) -> bool:
    op = expr[0]
    if op == "lit":
        value = env[expr[1]]
        return not value if expr[2] else value
    if op == "const":
        return expr[1]
    if op == "not":
        return not eval_expr(expr[1], env)
    if op == "ite":
        return (
            eval_expr(expr[2], env) if eval_expr(expr[1], env) else eval_expr(expr[3], env)
        )
    a = eval_expr(expr[1], env)
    b = eval_expr(expr[2], env)
    if op == "and":
        return a and b
    if op == "or":
        return a or b
    if op == "xor":
        return a != b
    return a == b


def all_envs():
    for bits in range(1 << N_VARS):
        yield {v: bool((bits >> v) & 1) for v in range(N_VARS)}


@settings(max_examples=120, deadline=None)
@given(expr=_expr)
def test_fast_paths_compute_the_right_function(expr):
    """Semantic ground truth: the built BDD evaluates exactly like the
    expression on every assignment.  With hash consing this already
    implies the canonical-id contract within one manager."""
    mgr = BDDManager(N_VARS)
    f = build(mgr, expr)
    for env in all_envs():
        assert mgr.eval(f, env) == eval_expr(expr, env)


@settings(max_examples=120, deadline=None)
@given(expr=_expr, g_expr=_expr)
def test_binary_ops_match_reference_ite(expr, g_expr):
    """Every dedicated binary recursion returns the same node id as the
    cache-free textbook ITE formulation of the same connective."""
    mgr = BDDManager(N_VARS)
    f = build(mgr, expr)
    g = build(mgr, g_expr)
    nf = mgr.negate(f)
    assert mgr.apply_and(f, g) == reference_ite(mgr, f, g, mgr.ZERO)
    assert mgr.apply_or(f, g) == reference_ite(mgr, f, mgr.ONE, g)
    assert mgr.apply_xor(f, g) == reference_ite(mgr, f, mgr.negate(g), g)
    assert mgr.apply_xnor(f, g) == reference_ite(mgr, f, g, mgr.negate(g))
    assert mgr.negate(f) == reference_ite(mgr, f, mgr.ZERO, mgr.ONE)
    assert nf == mgr.negate(f)


@settings(max_examples=120, deadline=None)
@given(expr=_expr, g_expr=_expr, h_expr=_expr)
def test_normalized_ite_matches_reference(expr, g_expr, h_expr):
    """Standard-triple normalization must not change any ITE result."""
    mgr = BDDManager(N_VARS)
    f = build(mgr, expr)
    g = build(mgr, g_expr)
    h = build(mgr, h_expr)
    assert mgr.ite(f, g, h) == reference_ite(mgr, f, g, h)


def test_deep_chains_run_inside_recursion_headroom():
    """The operators recurse once per BDD level.  A 1500-variable chain
    is deeper than the interpreter's default limit of 1000 frames, so
    callers wrap such work in ``recursion_headroom``, as the DP does.
    (Chains are built bottom-up, so each step only adds a top node.)"""
    n = 1500

    def chain(bottom: int) -> int:
        f = bottom
        for v in range(n - 2, -1, -1):
            f = mgr.apply_and(mgr.var(v), f)
        return f

    old = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        mgr = BDDManager(n)
        with recursion_headroom(4 * n):
            f = chain(mgr.var(n - 1))
            g = chain(mgr.nvar(n - 1))
            prefix = chain(mgr.ONE)
            assert mgr.count_nodes(f) == n + 2  # one per variable + 2 terminals
            # Each of these walks both chains down to the bottom level.
            assert mgr.apply_and(f, g) == mgr.ZERO
            assert mgr.apply_or(f, g) == prefix
            assert mgr.apply_xor(f, g) == prefix
            assert mgr.ite(mgr.var(n - 1), f, g) == prefix
    finally:
        sys.setrecursionlimit(old)


def test_cache_stats_observe_hits():
    mgr = BDDManager(4)
    f = mgr.apply_and(mgr.var(0), mgr.var(1))
    g = mgr.apply_or(mgr.var(2), mgr.var(3))
    before = mgr.cache_stats()
    mgr.apply_and(mgr.var(0), mgr.var(1))  # replays the cached recursion
    mgr.ite(f, g, mgr.ZERO)  # normalizes into apply_and
    after = mgr.cache_stats()
    assert after["and_hits"] > before["and_hits"]


# Golden Table-I results (depth, area) of the seed flow.  The kernel
# optimization contract is *output-identical* synthesis: any drift here
# means a fast path changed a decision somewhere, not just its speed.
TABLE1_GOLDEN = {
    "cht": (8, 644),
    "sct": (3, 50),
    "misex1": (3, 76),
    "9sym": (3, 13),
    "sse": (5, 1199),
    # The seed flow gave 445 LUTs here; from b45d212 (the complement-edge
    # store rewrite) on, the flow gives 447.
    "ttt2": (10, 447),
    "count": (2, 33),
    "lal": (10, 551),
}

# The full suite runs in the benchmarks; the regression gate pins the
# fastest circuits so the unit-test wall time stays reasonable while
# still crossing every kernel path (reorder, DP, packing, emission).
GOLDEN_SAMPLE = ["sct", "misex1", "9sym", "count"]


@pytest.mark.parametrize("name", GOLDEN_SAMPLE)
def test_table1_depth_area_unchanged(name):
    from repro.benchgen import build_circuit
    from repro.core import DDBDDConfig, ddbdd_synthesize

    result = ddbdd_synthesize(build_circuit(name), DDBDDConfig())
    assert (result.depth, result.area) == TABLE1_GOLDEN[name]
