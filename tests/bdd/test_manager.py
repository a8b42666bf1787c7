"""Unit and property tests for the ROBDD manager."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.bdd.manager import BDDManager, BDDError, NodeLimitExceeded


def truth_table(mgr, f, num_vars):
    return [mgr.eval(f, {v: bool((i >> v) & 1) for v in range(num_vars)}) for i in range(1 << num_vars)]


class TestBasics:
    def test_terminals(self, mgr):
        assert mgr.ZERO == 0 and mgr.ONE == 1
        assert mgr.is_terminal(mgr.ZERO) and mgr.is_terminal(mgr.ONE)

    def test_var_and_nvar(self, mgr):
        x = mgr.var(2)
        assert mgr.eval(x, {2: True}) and not mgr.eval(x, {2: False})
        nx = mgr.nvar(2)
        assert mgr.eval(nx, {2: False}) and not mgr.eval(nx, {2: True})
        assert mgr.negate(x) == nx

    def test_var_is_hashconsed(self, mgr):
        assert mgr.var(3) == mgr.var(3)

    def test_reduction_lo_eq_hi(self, mgr):
        # ite(x, g, g) must collapse to g.
        g = mgr.var(4)
        assert mgr.ite(mgr.var(1), g, g) == g

    def test_node_accessors(self, mgr):
        x = mgr.var(1)
        var, lo, hi = mgr.node(x)
        assert (var, lo, hi) == (1, mgr.ZERO, mgr.ONE)
        assert mgr.top_var(x) == 1
        assert mgr.lo(x) == mgr.ZERO and mgr.hi(x) == mgr.ONE

    def test_add_var_and_names(self):
        m = BDDManager()
        v = m.add_var("alpha")
        assert m.var_name(v) == "alpha"
        assert m.num_vars == 1

    def test_order_must_be_permutation(self):
        with pytest.raises(BDDError):
            BDDManager(3, order=[0, 0, 1])

    def test_order_change_after_population_rejected(self, mgr):
        mgr.var(0)
        with pytest.raises(BDDError):
            mgr.set_order(list(range(mgr.num_vars)))

    def test_node_limit(self):
        m = BDDManager(10, node_limit=5)
        with pytest.raises(NodeLimitExceeded):
            f = m.ZERO
            for i in range(10):
                f = m.apply_or(f, m.apply_and(m.var(i), m.var((i + 1) % 10)))

    @pytest.mark.parametrize("op", ["apply_and", "apply_xor", "ite", "make_node"])
    def test_every_node_creator_enforces_the_limit(self, op):
        m = BDDManager(3, node_limit=4)  # the terminal row and three literals
        a, b, c = (m.var(v) for v in range(3))
        with pytest.raises(NodeLimitExceeded):
            if op == "ite":
                m.ite(a, b, c)
            elif op == "make_node":
                m.make_node(0, m.ZERO, b)
            else:
                getattr(m, op)(a, b)
        assert m.num_nodes == 4

    def test_node_limit_is_read_only(self):
        m = BDDManager(2, node_limit=10)
        assert m.node_limit == 10
        with pytest.raises(AttributeError):
            m.node_limit = 20


class TestConnectives:
    def test_and_or_xor_tables(self, mgr):
        a, b = mgr.var(0), mgr.var(1)
        cases = [(False, False), (False, True), (True, False), (True, True)]
        for x, y in cases:
            env = {0: x, 1: y}
            assert mgr.eval(mgr.apply_and(a, b), env) == (x and y)
            assert mgr.eval(mgr.apply_or(a, b), env) == (x or y)
            assert mgr.eval(mgr.apply_xor(a, b), env) == (x != y)
            assert mgr.eval(mgr.apply_xnor(a, b), env) == (x == y)

    def test_negation_involution(self, mgr):
        f = mgr.apply_or(mgr.apply_and(mgr.var(0), mgr.var(1)), mgr.var(2))
        assert mgr.negate(mgr.negate(f)) == f

    def test_de_morgan(self, mgr):
        a, b = mgr.var(0), mgr.var(1)
        assert mgr.negate(mgr.apply_and(a, b)) == mgr.apply_or(mgr.negate(a), mgr.negate(b))

    def test_apply_many(self, mgr):
        vs = [mgr.var(i) for i in range(4)]
        conj = mgr.apply_many("and", vs)
        assert mgr.eval(conj, {i: True for i in range(4)})
        assert not mgr.eval(conj, {0: True, 1: True, 2: True, 3: False})
        assert mgr.apply_many("or", []) == mgr.ZERO
        assert mgr.apply_many("and", []) == mgr.ONE
        with pytest.raises(BDDError):
            mgr.apply_many("nope", vs)

    def test_ite_shortcuts(self, mgr):
        g, h = mgr.var(3), mgr.var(4)
        assert mgr.ite(mgr.ONE, g, h) == g
        assert mgr.ite(mgr.ZERO, g, h) == h
        f = mgr.var(0)
        assert mgr.ite(f, mgr.ONE, mgr.ZERO) == f


class TestCofactorCompose:
    def test_cofactor(self, mgr):
        f = mgr.apply_or(mgr.apply_and(mgr.var(0), mgr.var(1)), mgr.var(2))
        f1 = mgr.cofactor(f, 0, True)
        assert f1 == mgr.apply_or(mgr.var(1), mgr.var(2))
        f0 = mgr.cofactor(f, 0, False)
        assert f0 == mgr.var(2)

    def test_cofactor_of_independent_var(self, mgr):
        f = mgr.var(1)
        assert mgr.cofactor(f, 5, True) == f

    def test_compose(self, mgr):
        f = mgr.apply_and(mgr.var(0), mgr.var(1))
        g = mgr.apply_or(mgr.var(2), mgr.var(3))
        composed = mgr.compose(f, 1, g)
        # f[x1 := x2 | x3] = x0 & (x2 | x3)
        assert composed == mgr.apply_and(mgr.var(0), g)

    def test_shannon_identity(self, mgr):
        rng = random.Random(5)
        bits = [rng.randint(0, 1) for _ in range(16)]
        f = mgr.from_truth_table(bits, [0, 1, 2, 3])
        for v in range(4):
            rebuilt = mgr.ite(mgr.var(v), mgr.cofactor(f, v, True), mgr.cofactor(f, v, False))
            assert rebuilt == f

    def test_exists_forall(self, mgr):
        f = mgr.apply_and(mgr.var(0), mgr.var(1))
        assert mgr.exists(f, [0]) == mgr.var(1)
        assert mgr.forall(f, [0]) == mgr.ZERO
        g = mgr.apply_or(mgr.var(0), mgr.var(1))
        assert mgr.forall(g, [0]) == mgr.var(1)


class TestQueries:
    def test_support(self, mgr):
        f = mgr.apply_or(mgr.apply_and(mgr.var(0), mgr.var(3)), mgr.var(5))
        assert mgr.support(f) == {0, 3, 5}
        assert mgr.support_ordered(f) == [0, 3, 5]

    def test_count_nodes(self, mgr):
        x = mgr.var(0)
        assert mgr.count_nodes(x) == 3  # node + two terminals
        assert mgr.count_nodes(mgr.ONE) == 1

    def test_count_nodes_multi_shares(self, mgr):
        a = mgr.var(0)
        b = mgr.var(1)
        both = mgr.count_nodes_multi([a, b])
        assert both == 4  # two nodes + two terminals shared

    def test_sat_count(self, mgr):
        f = mgr.apply_and(mgr.var(0), mgr.var(1))
        assert mgr.sat_count(f, 3) == 2
        assert mgr.sat_count(mgr.ONE, 4) == 16
        assert mgr.sat_count(mgr.ZERO, 4) == 0

    def test_sat_count_matches_truth_table(self, mgr):
        rng = random.Random(9)
        bits = [rng.randint(0, 1) for _ in range(32)]
        f = mgr.from_truth_table(bits, [0, 1, 2, 3, 4])
        assert mgr.sat_count(f, 5) == sum(bits)

    def test_one_sat(self, mgr):
        f = mgr.apply_and(mgr.var(1), mgr.nvar(3))
        asg = mgr.one_sat(f)
        full = {v: asg.get(v, False) for v in range(mgr.num_vars)}
        assert mgr.eval(f, full)
        assert mgr.one_sat(mgr.ZERO) is None

    def test_iter_nodes(self, mgr):
        f = mgr.apply_and(mgr.var(0), mgr.var(1))
        nodes = list(mgr.iter_nodes(f))
        assert len(nodes) == 2


class TestTruthTableAndTransfer:
    def test_from_truth_table_roundtrip(self, mgr):
        rng = random.Random(1)
        bits = [rng.randint(0, 1) for _ in range(16)]
        f = mgr.from_truth_table(bits, [0, 1, 2, 3])
        assert truth_table(mgr, f, 4) == [bool(b) for b in bits]

    def test_from_truth_table_bad_length(self, mgr):
        with pytest.raises(BDDError):
            mgr.from_truth_table([0, 1, 1], [0, 1])

    def test_transfer_identity(self, mgr):
        f = mgr.apply_xor(mgr.var(0), mgr.var(2))
        other = BDDManager(8)
        g = mgr.transfer(f, other)
        assert truth_table(other, g, 3) == truth_table(mgr, f, 3)

    def test_transfer_with_var_map(self, mgr):
        f = mgr.apply_and(mgr.var(0), mgr.var(1))
        other = BDDManager(4)
        g = mgr.transfer(f, other, var_map={0: 2, 1: 3})
        assert other.support(g) == {2, 3}

    def test_transfer_reversed_order(self, mgr):
        f = mgr.apply_or(mgr.apply_and(mgr.var(0), mgr.var(1)), mgr.var(2))
        other = BDDManager(8, order=[7, 6, 5, 4, 3, 2, 1, 0])
        g = mgr.transfer(f, other)
        for i in range(8):
            env = {v: bool((i >> v) & 1) for v in range(3)}
            assert other.eval(g, env) == mgr.eval(f, env)


@settings(max_examples=80, deadline=None)
@given(bits=st.lists(st.integers(0, 1), min_size=16, max_size=16),
       bits2=st.lists(st.integers(0, 1), min_size=16, max_size=16))
def test_property_connectives_match_tables(bits, bits2):
    """AND/OR/XOR/NOT over arbitrary functions match the truth tables."""
    m = BDDManager(4)
    f = m.from_truth_table(bits, [0, 1, 2, 3])
    g = m.from_truth_table(bits2, [0, 1, 2, 3])
    for i in range(16):
        env = {v: bool((i >> v) & 1) for v in range(4)}
        assert m.eval(m.apply_and(f, g), env) == (bool(bits[i]) and bool(bits2[i]))
        assert m.eval(m.apply_or(f, g), env) == (bool(bits[i]) or bool(bits2[i]))
        assert m.eval(m.apply_xor(f, g), env) == (bool(bits[i]) != bool(bits2[i]))
        assert m.eval(m.negate(f), env) == (not bits[i])


@settings(max_examples=60, deadline=None)
@given(bits=st.lists(st.integers(0, 1), min_size=16, max_size=16))
def test_property_canonicity(bits):
    """Two different construction routes give the same node id."""
    m = BDDManager(4)
    f = m.from_truth_table(bits, [0, 1, 2, 3])
    # Rebuild via Shannon expansion on var 2.
    g = m.ite(m.var(2), m.cofactor(f, 2, True), m.cofactor(f, 2, False))
    assert f == g
