"""LUT-network extraction from a cut selection.

Every node reachable from the POs through chosen-cut leaves becomes one
LUT whose local function is the BDD of the AIG cone between the node
and its cut leaves.  PO polarity is absorbed by duplicating the driver
LUT with a complemented function (depth-neutral, matching how real
mappers treat output inverters as free), or an explicit inverter when
the driver is a primary input.
"""

from __future__ import annotations

from typing import Dict

from repro.aig.aig import AIG, lit_compl, lit_var
from repro.mapping.cuts import Cut
from repro.network.netlist import BooleanNetwork


def extract_cover(aig: AIG, chosen: Dict[int, Cut]) -> BooleanNetwork:
    """Build the mapped LUT network from ``chosen`` cuts."""
    net = BooleanNetwork(aig.name + "_mapped")
    pi_name: Dict[int, str] = {}
    for node, name in zip(aig.pis, aig.pi_names):
        net.add_pi(name)
        pi_name[node] = name

    emitted: Dict[int, str] = dict(pi_name)
    neg_cache: Dict[int, str] = {}
    for po, literal in aig.pos.items():
        node = lit_var(literal)
        compl = lit_compl(literal)
        if node == 0:
            # Constant output.
            cname = net.fresh_name(f"{po}_const")
            net.add_node_function(cname, [], net.mgr.ONE if compl else net.mgr.ZERO)
            net.add_po(po, cname)
            continue
        sig = _emit(aig, chosen, net, emitted, node)
        if compl:
            dup = neg_cache.get(node)
            if dup is None:
                dup = net.fresh_name(f"{sig}_n")
                if node in pi_name:
                    # Complement of a PI: a 1-input inverter LUT.
                    func = net.mgr.nvar(net.var_of(sig))
                    net.add_node_function(dup, [sig], func)
                else:
                    src = net.nodes[sig]
                    net.add_node_function(dup, list(src.fanins), net.mgr.negate(src.func))
                neg_cache[node] = dup
            sig = dup
        net.add_po(po, sig)
    return net


def _emit(
    aig: AIG, chosen: Dict[int, Cut], net: BooleanNetwork,
    emitted: Dict[int, str], node: int,
) -> str:
    """Materialize the LUT of ``node`` (its cut leaves first); returns
    its signal name.  ``emitted`` starts out holding the PIs."""
    got = emitted.get(node)
    if got is not None:
        return got
    leaf_signals = {
        leaf: _emit(aig, chosen, net, emitted, leaf) for leaf in chosen[node].leaves
    }
    func = _cone_node(aig, net, leaf_signals, {}, node)
    name = f"n{node}"
    net.add_node_function(name, list(leaf_signals.values()), func)
    emitted[node] = name
    return name


def _cone_node(
    aig: AIG, net: BooleanNetwork, leaf_signals: Dict[int, str],
    memo: Dict[int, int], node: int,
) -> int:
    """BDD (in ``net``'s manager) of the cone from ``node`` to the cut
    leaves ``leaf_signals``; fanin0 is built before fanin1."""
    mgr = net.mgr
    if node in leaf_signals:
        return mgr.var(net.var_of(leaf_signals[node]))
    if node == 0:
        return mgr.ZERO
    got = memo.get(node)
    if got is not None:
        return got
    lit0, lit1 = aig.fanin0[node], aig.fanin1[node]
    f0 = _cone_node(aig, net, leaf_signals, memo, lit_var(lit0))
    if lit_compl(lit0):
        f0 = mgr.negate(f0)
    f1 = _cone_node(aig, net, leaf_signals, memo, lit_var(lit1))
    if lit_compl(lit1):
        f1 = mgr.negate(f1)
    result = mgr.apply_and(f0, f1)
    memo[node] = result
    return result
