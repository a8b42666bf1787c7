"""Tests for the leveled view: Definitions 1–7 and Algorithm 4,
including the paper's own worked examples (Figs. 1, 4, 5)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.bdd.leveled import LeveledBDD
from repro.bdd.manager import BDDManager


def fig1_bdd():
    """Fig. 1: f = a·b ∨ ¬b·c with order a < b < c."""
    m = BDDManager(3, var_names=["a", "b", "c"])
    a, b, c = m.var(0), m.var(1), m.var(2)
    f = m.apply_or(m.apply_and(a, b), m.apply_and(m.negate(b), c))
    return m, f


def fig5_bdd():
    """A 5-variable BDD shaped like the paper's Fig. 5 (order a<b<c<d<e):
    f = a·(b + c·(d + e·1)) style chain giving nontrivial cut sets."""
    m = BDDManager(5, var_names=list("abcde"))
    a, b, c, d, e = (m.var(i) for i in range(5))
    f = m.apply_or(
        m.apply_and(a, b),
        m.apply_and(m.negate(b), m.apply_or(m.apply_and(c, d), m.apply_and(m.negate(c), e))),
    )
    return m, f


class TestLevels:
    def test_depth_is_support_size(self):
        m, f = fig1_bdd()
        lb = LeveledBDD(m, f)
        assert lb.depth == 3
        assert lb.support == [0, 1, 2]

    def test_var_levels(self):
        m, f = fig1_bdd()
        lb = LeveledBDD(m, f)
        assert [lb.var_level(v) for v in lb.support] == [0, 1, 2]

    def test_terminal_level_is_depth(self):
        m, f = fig1_bdd()
        lb = LeveledBDD(m, f)
        assert lb.level(m.ONE) == 3
        assert lb.level(m.ZERO) == 3

    def test_root_level_zero(self):
        m, f = fig1_bdd()
        lb = LeveledBDD(m, f)
        assert lb.level(lb.root) == 0

    def test_children_accessors(self):
        m, f = fig1_bdd()
        lb = LeveledBDD(m, f)
        r = lb.root
        assert lb.var_of(r) == 0
        assert lb.level(lb.t_child(r)) > 0
        assert lb.level(lb.e_child(r)) > 0


class TestCutSets:
    def test_cut_level_zero(self):
        m, f = fig1_bdd()
        lb = LeveledBDD(m, f)
        r = lb.root
        assert set(lb.cut_set(r, 0)) == {lb.t_child(r), lb.e_child(r)}

    def test_deepest_cut_is_terminals(self):
        m, f = fig1_bdd()
        lb = LeveledBDD(m, f)
        cs = lb.cut_set(lb.root, lb.depth - 1)
        assert set(cs) <= {m.ZERO, m.ONE}
        assert m.ONE in cs

    def test_cut_set_members_below_cut(self):
        m, f = fig5_bdd()
        lb = LeveledBDD(m, f)
        for l in range(lb.depth):
            for w in lb.cut_set(lb.root, l):
                assert lb.level(w) > l

    def test_cut_set_at_least_two(self):
        m, f = fig5_bdd()
        lb = LeveledBDD(m, f)
        for u in lb.nodes:
            for l in range(lb.max_cut_level(u) + 1):
                assert len(lb.cut_set(u, l)) >= 2

    def test_cut_set_contains(self):
        m, f = fig5_bdd()
        lb = LeveledBDD(m, f)
        cs = lb.cut_set(lb.root, 1)
        for w in cs:
            assert lb.cut_set_contains(lb.root, 1, w)
        assert not lb.cut_set_contains(lb.root, 1, lb.root)

    def test_max_cut_level(self):
        m, f = fig1_bdd()
        lb = LeveledBDD(m, f)
        assert lb.max_cut_level(lb.root) == 2


class TestBsFunctions:
    def test_full_function_identity(self):
        """Bs(r, n-1, 1) equals the original function (Sec. II-B)."""
        m, f = fig5_bdd()
        lb = LeveledBDD(m, f)
        assert lb.bs_function(lb.root, lb.depth - 1, m.ONE) == f

    def test_bs_level_zero_is_literal(self):
        m, f = fig1_bdd()
        lb = LeveledBDD(m, f)
        r = lb.root
        pos = lb.bs_function(r, 0, lb.t_child(r))
        neg = lb.bs_function(r, 0, lb.e_child(r))
        assert pos == m.var(lb.var_of(r))
        assert neg == m.nvar(lb.var_of(r))

    def test_partition_property(self):
        """The Bs(u, l, w) over w ∈ CS(u, l) partition the input space:
        exactly one is true for each assignment (the foundation of
        linear expansion)."""
        m, f = fig5_bdd()
        lb = LeveledBDD(m, f)
        for u in [lb.root] + lb.nodes[:4]:
            for l in range(lb.max_cut_level(u) + 1):
                cs = lb.cut_set(u, l)
                funcs = [lb.bs_function(u, l, w) for w in cs]
                union = m.ZERO
                for g in funcs:
                    union = m.apply_or(union, g)
                assert union == m.ONE
                for i in range(len(funcs)):
                    for j in range(i + 1, len(funcs)):
                        assert m.apply_and(funcs[i], funcs[j]) == m.ZERO

    def test_bs_never_constant(self):
        m, f = fig5_bdd()
        lb = LeveledBDD(m, f)
        for u in lb.nodes:
            for l in range(lb.max_cut_level(u) + 1):
                for w in lb.cut_set(u, l):
                    g = lb.bs_function(u, l, w)
                    assert not m.is_terminal(g)

    def test_root_below_cut_rejected(self):
        m, f = fig1_bdd()
        lb = LeveledBDD(m, f)
        deep = max(lb.nodes, key=lb.level)
        with pytest.raises(ValueError):
            lb.bs_function(deep, -1, m.ONE)

    def test_sub_bdd_nodes(self):
        m, f = fig1_bdd()
        lb = LeveledBDD(m, f)
        all_nodes = lb.sub_bdd_nodes(lb.root)
        assert set(all_nodes) == set(lb.nodes)


@settings(max_examples=30, deadline=None)
@given(bits=st.lists(st.integers(0, 1), min_size=32, max_size=32))
def test_property_partition_random_functions(bits):
    m = BDDManager(5)
    f = m.from_truth_table(bits, list(range(5)))
    if m.is_terminal(f) or len(m.support(f)) < 2:
        return
    lb = LeveledBDD(m, f)
    for l in range(lb.depth):
        cs = lb.cut_set(lb.root, l)
        union = m.ZERO
        for w in cs:
            union = m.apply_or(union, lb.bs_function(lb.root, l, w))
        assert union == m.ONE
