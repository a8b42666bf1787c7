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


def _node_name(aig: AIG, node: int) -> str:
    if node in aig._pi_set:
        return aig.pi_names[aig.pis.index(node)]
    return f"n{node}"


def extract_cover(aig: AIG, chosen: Dict[int, Cut]) -> BooleanNetwork:
    """Build the mapped LUT network from ``chosen`` cuts."""
    net = BooleanNetwork(aig.name + "_mapped")
    pi_name: Dict[int, str] = {}
    for node, name in zip(aig.pis, aig.pi_names):
        net.add_pi(name)
        pi_name[node] = name

    emitted: Dict[int, str] = {}

    def emit(node: int) -> str:
        """Materialize the LUT of ``node``; returns its signal name."""
        if node in pi_name:
            return pi_name[node]
        got = emitted.get(node)
        if got is not None:
            return got
        cut = chosen[node]
        leaf_signals = {leaf: emit(leaf) for leaf in cut.leaves}
        func = _cone_function(aig, net, node, leaf_signals)
        name = f"n{node}"
        net.add_node_function(name, list(leaf_signals.values()), func)
        emitted[node] = name
        return name

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
        sig = emit(node)
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


def _cone_function(
    aig: AIG, net: BooleanNetwork, root: int, leaf_signals: Dict[int, str]
) -> int:
    """BDD (in ``net``'s manager) of the cone from ``root`` to the cut."""
    mgr = net.mgr
    cache: Dict[int, int] = {}

    def node_func(node: int) -> int:
        if node in leaf_signals:
            return mgr.var(net.var_of(leaf_signals[node]))
        if node == 0:
            return mgr.ZERO
        got = cache.get(node)
        if got is not None:
            return got
        f0 = lit_func(aig.fanin0[node])
        f1 = lit_func(aig.fanin1[node])
        result = mgr.apply_and(f0, f1)
        cache[node] = result
        return result

    def lit_func(literal: int) -> int:
        f = node_func(lit_var(literal))
        return mgr.negate(f) if lit_compl(literal) else f

    return node_func(root)
