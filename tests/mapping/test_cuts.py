"""Cut-enumeration tests."""

from repro.aig.aig import AIG
from repro.aig.from_network import network_to_aig
from repro.mapping.cuts import enumerate_cuts
from tests.conftest import random_gate_network


def chain_aig(n):
    aig = AIG()
    lits = [aig.add_pi(f"i{k}") for k in range(n)]
    cur = lits[0]
    for l in lits[1:]:
        cur = aig.and2(cur, l)
    aig.add_po("y", cur)
    return aig


class TestEnumeration:
    def test_cut_sizes_bounded(self):
        net = random_gate_network(1, n_pi=8, n_gates=25)
        aig = network_to_aig(net)
        cuts, label, af = enumerate_cuts(aig, k=4, cut_limit=8)
        for node, clist in cuts.items():
            for cut in clist:
                assert 1 <= cut.size <= 4
            assert len(clist) <= 8

    def test_labels_monotone(self):
        """A node's label is ≥ its fanins' labels are consistent:
        label = 1 + max(leaf labels) for the chosen cut."""
        net = random_gate_network(2, n_pi=8, n_gates=25)
        aig = network_to_aig(net)
        cuts, label, _ = enumerate_cuts(aig, k=5, cut_limit=8)
        for node, clist in cuts.items():
            if clist:
                assert label[node] == min(1 + max(label[x] for x in c.leaves) for c in clist)

    def test_chain_depth_optimal_label(self):
        """AND-chain of 16: K=5 LUTs absorb 4 chain gates each, so the
        depth-optimal label is ceil(15/4) = 4."""
        aig = chain_aig(16)
        cuts, label, _ = enumerate_cuts(aig, k=5, cut_limit=10)
        out = max(label.values())
        assert out == 4

    def test_pi_labels_zero(self):
        aig = chain_aig(4)
        _, label, _ = enumerate_cuts(aig, k=4, cut_limit=6)
        for pi in aig.pis:
            assert label[pi] == 0

    def test_leaves_cover_cone(self):
        """Every PI-to-node path crosses a cut leaf (checked by
        cofactoring: function depends only on leaf values)."""
        net = random_gate_network(3, n_pi=6, n_gates=15)
        aig = network_to_aig(net)
        cuts, _, _ = enumerate_cuts(aig, k=4, cut_limit=6)
        # structural check: walking fanins from node, stopping at cut
        # leaves, never reaches a PI not in the cut
        for node, clist in list(cuts.items())[:20]:
            for cut in clist[:3]:
                stack = [node]
                seen = set()
                while stack:
                    n = stack.pop()
                    if n in cut.leaves or n in seen:
                        continue
                    seen.add(n)
                    assert n not in aig._pi_set or n in cut.leaves, (node, cut.leaves)
                    if aig.is_and(n):
                        from repro.aig.aig import lit_var

                        stack.append(lit_var(aig.fanin0[n]))
                        stack.append(lit_var(aig.fanin1[n]))
