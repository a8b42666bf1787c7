"""Tests for variable reordering (rebuild, in-place sifting, exact)."""

import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.bdd.manager import BDDManager
from repro.bdd.reorder import (
    _level_rows,
    exhaustive_reorder,
    reorder_for_size,
    sift,
    sift_inplace,
)


def eval_all(m, f, num_vars):
    return [m.eval(f, {v: bool((i >> v) & 1) for v in range(num_vars)}) for i in range(1 << num_vars)]


def interleaved_function(m):
    """x0·x3 + x1·x4 + x2·x5 — the classic bad-order function."""
    f = m.ZERO
    for i in range(3):
        f = m.apply_or(f, m.apply_and(m.var(i), m.var(i + 3)))
    return f


class TestSift:
    def test_sift_finds_good_order(self):
        m = BDDManager(6)
        f = interleaved_function(m)
        before = m.count_nodes(f)
        sm, sf, order = sift(m, f)
        after = sm.count_nodes(sf)
        assert after < before
        assert after == 8  # optimal for this function

    def test_sift_preserves_function(self):
        m = BDDManager(6)
        f = interleaved_function(m)
        sm, sf, _ = sift(m, f)
        assert eval_all(sm, sf, 6) == eval_all(m, f, 6)

    def test_sift_literal(self):
        m = BDDManager(3)
        sm, sf, order = sift(m, m.var(1))
        assert sm.count_nodes(sf) == 3
        assert order == [1]

    def test_sift_never_inflates(self):
        rng = random.Random(3)
        for _ in range(10):
            m = BDDManager(5)
            bits = [rng.randint(0, 1) for _ in range(32)]
            f = m.from_truth_table(bits, list(range(5)))
            if m.is_terminal(f):
                continue
            sm, sf, _ = sift(m, f)
            assert sm.count_nodes(sf) <= m.count_nodes(f)


class TestSwapAdjacent:
    def test_swap_preserves_function(self):
        rng = random.Random(7)
        for _ in range(20):
            m = BDDManager(5)
            bits = [rng.randint(0, 1) for _ in range(32)]
            f = m.from_truth_table(bits, list(range(5)))
            if m.is_terminal(f):
                continue
            table_before = eval_all(m, f, 5)
            level = rng.randrange(4)
            m.swap_adjacent_levels(level, rows=_level_rows(m, f, level))
            assert eval_all(m, f, 5) == table_before

    def test_swap_swaps_order(self):
        m = BDDManager(4)
        m.var(0)
        m.swap_adjacent_levels(0)
        assert m.order[:2] == [1, 0]

    def test_double_swap_is_identity_on_order(self):
        m = BDDManager(4)
        f = m.apply_and(m.var(0), m.var(1))
        table = eval_all(m, f, 2)
        m.swap_adjacent_levels(0, rows=_level_rows(m, f, 0))
        m.swap_adjacent_levels(0, rows=_level_rows(m, f, 0))
        assert m.order == [0, 1, 2, 3]
        assert eval_all(m, f, 2) == table


class TestSiftInplace:
    def test_sift_inplace_keeps_root_valid(self):
        m = BDDManager(6)
        f = interleaved_function(m)
        table = eval_all(m, f, 6)
        size = sift_inplace(m, f, num_support=6, audit=True)
        assert size <= 16
        assert eval_all(m, f, 6) == table

    def test_bound_matches_unpruned_sift_on_seeded_functions(self):
        rng = random.Random(2024)
        for trial in range(40):
            num_vars = rng.randint(2, 10)
            order = rng.sample(range(num_vars), num_vars)
            if trial % 2:
                # Random truth table over a subset: the other levels
                # hold no node.
                used = sorted(rng.sample(range(num_vars), rng.randint(1, min(num_vars, 7))))
                spec = ("table", used, [rng.randint(0, 1) for _ in range(1 << len(used))])
            else:
                spec = ("sop", random_sop(rng, num_vars))
            assert_sift_matches_reference(num_vars, order, spec)


def random_sop(rng, num_vars):
    return [
        [(rng.randrange(num_vars), rng.random() < 0.5) for _ in range(rng.randint(1, 3))]
        for _ in range(rng.randint(1, 6))
    ]


def build_spec(m, spec):
    if spec[0] == "table":
        return m.from_truth_table(spec[2], spec[1])
    f = m.ZERO
    for cube in spec[1]:
        term = m.ONE
        for v, positive in cube:
            term = m.apply_and(term, m.var(v) if positive else m.nvar(v))
        f = m.apply_or(f, term)
    return f


def reference_sift_inplace(m, root, num_support=None):
    """Rudell sifting without the bound: every variable visits every
    position of the sifted region, each size a full traversal."""
    n = num_support if num_support is not None else m.num_vars
    if n <= 1:
        return len(m.reachable(root))
    occupancy = Counter(m.top_var(h) for h in m.reachable(root) if h > 1)
    priority = sorted((m.var_at_level(l) for l in range(n)), key=lambda v: -occupancy[v])
    best = len(m.reachable(root))

    def swap(pos):
        m.swap_adjacent_levels(pos, rows=_level_rows(m, root, pos))
        return len(m.reachable(root))

    for v in priority:
        pos = best_pos = m.level_of(v)
        while pos < n - 1:
            size = swap(pos)
            pos += 1
            if size < best:
                best, best_pos = size, pos
        while pos > 0:
            size = swap(pos - 1)
            pos -= 1
            if size < best:
                best, best_pos = size, pos
        while pos < best_pos:
            swap(pos)
            pos += 1
    return len(m.reachable(root))


def assert_sift_matches_reference(num_vars, order, spec):
    """The bounded sift parks every variable where the unpruned one
    does, on the whole manager (non-support levels included) and on the
    support alone at the top, as :func:`sift` runs it."""
    got = BDDManager(num_vars, order=order)
    want = BDDManager(num_vars, order=order)
    f = build_spec(got, spec)
    g = build_spec(want, spec)
    table = eval_all(got, f, num_vars)
    assert sift_inplace(got, f, audit=True) == reference_sift_inplace(want, g)
    assert got.order == want.order
    assert eval_all(got, f, num_vars) == table
    support = got.support_ordered(f)
    top = support + [v for v in range(num_vars) if v not in support]
    got = BDDManager(num_vars, order=top)
    want = BDDManager(num_vars, order=top)
    f = build_spec(got, spec)
    g = build_spec(want, spec)
    size = sift_inplace(got, f, num_support=len(support), audit=True)
    assert size == reference_sift_inplace(want, g, num_support=len(support))
    assert got.order == want.order


@settings(max_examples=60, deadline=None)
@given(
    order=st.permutations(range(9)),
    cubes=st.lists(
        st.lists(st.tuples(st.integers(0, 8), st.booleans()), min_size=1, max_size=3),
        min_size=1,
        max_size=7,
    ),
)
def test_property_bounded_sift_is_the_unpruned_sift(order, cubes):
    assert_sift_matches_reference(9, list(order), ("sop", cubes))


class TestExhaustive:
    def test_exhaustive_at_most_sift(self):
        rng = random.Random(11)
        for _ in range(8):
            m = BDDManager(5)
            bits = [rng.randint(0, 1) for _ in range(32)]
            f = m.from_truth_table(bits, list(range(5)))
            if m.is_terminal(f):
                continue
            _, sf, _ = (res := sift(m, f))
            sm = res[0]
            em, ef, _ = exhaustive_reorder(m, f)
            assert em.count_nodes(ef) <= sm.count_nodes(sf)


class TestReorderForSize:
    def test_none_effort_keeps_order(self):
        m = BDDManager(4)
        f = m.apply_and(m.var(0), m.var(3))
        nm, nf, order = reorder_for_size(m, f, "none")
        assert order == [0, 3]

    def test_unknown_effort_rejected(self):
        m = BDDManager(2)
        f = m.apply_and(m.var(0), m.var(1))
        with pytest.raises(ValueError):
            reorder_for_size(m, f, "bogus")

    def test_exact_small_support(self):
        m = BDDManager(6)
        f = interleaved_function(m)
        nm, nf, _ = reorder_for_size(m, f, "exact")
        assert nm.count_nodes(nf) == 8


@settings(max_examples=40, deadline=None)
@given(bits=st.lists(st.integers(0, 1), min_size=32, max_size=32))
def test_property_sift_preserves_semantics(bits):
    m = BDDManager(5)
    f = m.from_truth_table(bits, list(range(5)))
    if m.is_terminal(f):
        return
    sm, sf, _ = sift(m, f)
    for i in range(32):
        env = {v: bool((i >> v) & 1) for v in range(5)}
        assert sm.eval(sf, env) == bool(bits[i])


def shannon_transfer(src, f, dst, var_map):
    """Reference rebuild: Shannon expansion on the destination's top
    remaining variable, hi before lo (every order is supported)."""
    src_vars = src.support_ordered(f)
    order = [v for _, v in sorted((dst.level_of(var_map[v]), v) for v in src_vars)]
    cache = {}

    def build(node, depth):
        if node <= 1:
            return node
        if (node, depth) not in cache:
            v = order[depth]
            hi = build(src.cofactor(node, v, True), depth + 1)
            lo = build(src.cofactor(node, v, False), depth + 1)
            cache[node, depth] = dst._mk(var_map[v], lo, hi)
        return cache[node, depth]

    return build(f, 0)


@settings(max_examples=60, deadline=None)
@given(
    bits=st.lists(st.integers(0, 1), min_size=64, max_size=64),
    src_order=st.permutations(range(6)),
    targets=st.permutations(range(9)),
    negate=st.booleans(),
    seed=st.integers(0, 3),
)
def test_order_preserving_transfer_creates_the_reference_rows(
    bits, src_order, targets, negate, seed
):
    # A destination that keeps the source's relative order takes the
    # node-by-node copy; it must create exactly the rows, in exactly the
    # order, of the Shannon rebuild (the DP breaks ties on raw handles).
    src = BDDManager(6, order=list(src_order))
    f = src.from_truth_table(bits, list(range(6)))
    f = src.negate(f) if negate else f
    support = src.support_ordered(f)
    var_map = {v: t for v, t in zip(support, sorted(targets[: len(support)]))}
    dsts = []
    for _ in range(2):
        dst = BDDManager(9)
        rng = random.Random(seed)
        for _ in range(seed):  # a destination that already holds rows
            dst.from_truth_table([rng.randint(0, 1) for _ in range(8)], [0, 4, 8])
        dsts.append(dst)
    got = src.transfer(f, dsts[0], var_map)
    want = shannon_transfer(src, f, dsts[1], var_map)
    assert got == want
    assert (dsts[0]._var, dsts[0]._lo, dsts[0]._hi) == (dsts[1]._var, dsts[1]._lo, dsts[1]._hi)
