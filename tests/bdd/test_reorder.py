"""Tests for variable reordering (rebuild, in-place sifting, exact)."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.bdd.manager import BDDManager
from repro.bdd.reorder import (
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
            m.swap_adjacent_levels(level, nodes=m.reachable(f))
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
        m.swap_adjacent_levels(0, nodes=m.reachable(f))
        m.swap_adjacent_levels(0, nodes=m.reachable(f))
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
