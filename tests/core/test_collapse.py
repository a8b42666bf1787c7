"""Tests for gain-based clustering and partial collapsing (Algorithm 2)."""

import pytest

from repro.bdd.manager import BDDManager, NodeLimitExceeded
from repro.core import collapse as collapse_mod
from repro.core.collapse import CollapseStats, _gain, _mergable, partial_collapse
from repro.core.config import DDBDDConfig
from repro.network.netlist import BooleanNetwork
from tests.conftest import assert_equivalent, random_gate_network
from tests.runtime.helpers import net_dump


class TestGainFormula:
    def test_positive_delta_multiplies_weight(self):
        cfg = DDBDDConfig()
        g_shallow = _gain((10, 10, 15), do_x=1, dix_y=2, no_x=1, config=cfg)
        g_deep = _gain((10, 10, 15), do_x=2, dix_y=2, no_x=1, config=cfg)
        assert g_deep > g_shallow  # deeper fanins preferred (Fig. 6)

    def test_fewer_fanouts_preferred(self):
        cfg = DDBDDConfig()
        g1 = _gain((10, 10, 15), do_x=1, dix_y=1, no_x=1, config=cfg)
        g4 = _gain((10, 10, 15), do_x=1, dix_y=1, no_x=4, config=cfg)
        assert g1 > g4

    def test_negative_delta_divides_weight(self):
        cfg = DDBDDConfig()
        # Growth: n > n1+n2. Weight should *soften* the penalty for
        # good (deep, single-fanout) candidates.
        g_good = _gain((5, 5, 12), do_x=3, dix_y=3, no_x=1, config=cfg)
        g_bad = _gain((5, 5, 12), do_x=1, dix_y=3, no_x=4, config=cfg)
        assert g_good > g_bad
        assert g_good < 0


class TestMergable:
    def test_size_bound_respected(self):
        net = random_gate_network(1, n_gates=20)
        cfg = DDBDDConfig(size_bound=3)
        for out_name, node in net.nodes.items():
            for in_name in node.fanins:
                if in_name in net.nodes:
                    sizes = _mergable(net, in_name, out_name, cfg)
                    if sizes is not None:
                        assert sizes[2] <= 3

    def test_support_bound_respected(self):
        net = random_gate_network(2, n_gates=30)
        cfg = DDBDDConfig(support_bound=3)
        partial_collapse(net, cfg)
        for node in net.nodes.values():
            assert len(net.mgr.support(node.func)) <= max(3, 3)


def _fanin_pairs(net):
    return [(i, o) for o, node in net.nodes.items() for i in node.fanins if i in net.nodes]


def _unbudgeted_mergable(net, in_name, out_name, config, *_memos):
    """The merge test with a full compose and a full shape walk."""
    mgr = net.mgr
    n1 = mgr.count_nodes(net.nodes[in_name].func)
    n2 = mgr.count_nodes(net.nodes[out_name].func)
    merged = net.merged_function(in_name, out_name)
    n = len(mgr.reachable(merged))
    if n > config.size_bound or not n < (n1 + n2) * (1 + config.alpha):
        return None
    if config.support_bound is not None and len(mgr.support(merged)) > config.support_bound:
        return None
    return n1, n2, n


MERGE_CONFIGS = [
    DDBDDConfig(),
    DDBDDConfig(size_bound=8),
    DDBDDConfig(alpha=0.0),
    DDBDDConfig(alpha=0.3, support_bound=4),
    DDBDDConfig(size_bound=12, alpha=0.5, support_bound=3),
    DDBDDConfig(support_bound=None),
]


class TestMergeBudget:
    @pytest.mark.parametrize("seed", range(4))
    def test_none_exactly_when_the_compose_needs_more_rows(self, seed):
        for in_name, out_name in _fanin_pairs(random_gate_network(seed, n_gates=40)):
            # The full compose in one fresh build: the rows its ite adds
            # once both cofactors exist, and its size.
            ref = random_gate_network(seed, n_gates=40)
            f, v = ref.nodes[out_name].func, ref.var_of(in_name)
            ref.mgr.cofactor(f, v, True)
            ref.mgr.cofactor(f, v, False)
            before = ref.mgr.num_nodes
            full = ref.merged_function(in_name, out_name)
            rows = ref.mgr.num_nodes - before
            size = ref.mgr.count_nodes(full)
            support = sorted(ref.mgr.support(full))
            for budget in sorted({0, rows - 1, rows, rows + 3, size - 1} - {-1}):
                net = random_gate_network(seed, n_gates=40)
                got = net.merged_function(in_name, out_name, max_new_rows=budget)
                assert (got is None) == (rows > budget)
                if got is None:
                    assert size > budget, "a spent budget proves the size exceeds it"
                else:
                    assert net.mgr.truth_table(got, support) == ref.mgr.truth_table(full, support)

    def test_node_limit_still_raises_under_a_budget(self):
        def build(mgr):
            f = mgr.ZERO
            for i in range(3):
                f = mgr.apply_or(f, mgr.apply_and(mgr.var(i), mgr.var(i + 3)))
            g = mgr.apply_xor(mgr.var(6), mgr.var(7))
            mgr.cofactor(f, 0, True)
            mgr.cofactor(f, 0, False)
            return f, g

        free = BDDManager(8)
        f, g = build(free)
        free.compose(f, 0, g)
        limited = BDDManager(8, node_limit=free.num_nodes - 1)
        f, g = build(limited)
        # A budget below the limit's headroom trips first: no error.
        assert limited.compose(f, 0, g, max_new_rows=0) is None
        with pytest.raises(NodeLimitExceeded):
            limited.compose(f, 0, g, max_new_rows=100)

    @pytest.mark.parametrize("seed", range(6))
    def test_mergable_triple_matches_the_unbudgeted_test(self, seed):
        for cfg in MERGE_CONFIGS:
            net = random_gate_network(seed, n_gates=40)
            shapes, rejects = {}, set()
            for in_name, out_name in _fanin_pairs(net):
                got = _mergable(net, in_name, out_name, cfg, shapes, rejects)
                want = _unbudgeted_mergable(net, in_name, out_name, cfg)
                assert got == want
                # Again, from the memos.
                assert _mergable(net, in_name, out_name, cfg, shapes, rejects) == want

    @pytest.mark.parametrize("seed", range(4))
    def test_collapse_matches_the_unbudgeted_collapse(self, seed, monkeypatch):
        for cfg in MERGE_CONFIGS:
            budgeted = random_gate_network(seed, n_gates=50)
            partial_collapse(budgeted, cfg)
            with monkeypatch.context() as patch:
                patch.setattr(collapse_mod, "_mergable", _unbudgeted_mergable)
                reference = random_gate_network(seed, n_gates=50)
                partial_collapse(reference, cfg)
            assert net_dump(budgeted) == net_dump(reference)


class TestPartialCollapse:
    @pytest.mark.parametrize("seed", range(6))
    def test_function_preservation(self, seed):
        net = random_gate_network(seed, n_gates=40)
        ref = net.copy()
        stats = partial_collapse(net, DDBDDConfig())
        assert isinstance(stats, CollapseStats)
        assert_equivalent(ref, net, f"seed {seed}")
        net.check()

    def test_reduces_node_count(self):
        net = random_gate_network(3, n_gates=50)
        before = len(net.nodes)
        partial_collapse(net, DDBDDConfig())
        assert len(net.nodes) < before

    def test_bdd_sizes_bounded(self):
        net = random_gate_network(4, n_gates=60)
        cfg = DDBDDConfig()
        stats = partial_collapse(net, cfg)
        assert stats.largest_bdd <= cfg.size_bound

    def test_po_drivers_survive(self):
        net = random_gate_network(5, n_gates=30)
        drivers = net.po_drivers()
        partial_collapse(net, DDBDDConfig())
        for d in drivers:
            assert d in net.nodes or d in net.pis

    def test_chain_collapses_fully(self):
        net = BooleanNetwork()
        net.add_pi("a")
        net.add_pi("b")
        prev = "a"
        for i in range(6):
            net.add_gate(f"g{i}", "and" if i % 2 else "or", [prev, "b"])
            prev = f"g{i}"
        net.add_po("y", prev)
        partial_collapse(net, DDBDDConfig())
        # The whole single-fanout chain folds into one supernode.
        assert len(net.nodes) == 1

    def test_iteration_cap(self):
        net = random_gate_network(6, n_gates=30)
        stats = partial_collapse(net, DDBDDConfig(max_collapse_iterations=1))
        assert stats.iterations == 1
