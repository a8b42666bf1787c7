"""ESPRESSO-lite: two-level cleanup on BDD-backed networks.

The real ESPRESSO performs heuristic exact-ish two-level minimization;
our networks carry canonical BDDs, so the Minato–Morreale ISOP already
yields an irredundant cover, and the remaining SIS-script value is the
*eliminate* pass: collapse a node into its fanouts when that does not
increase total literal count by more than a threshold (the classic
``eliminate <threshold>``).
"""

from __future__ import annotations

from repro.bdd.isop import cube_literal_count, isop
from repro.network.depth import topological_order
from repro.network.netlist import BooleanNetwork


def node_literals(net: BooleanNetwork, name: str) -> int:
    """ISOP literal count of one node (SIS cost metric)."""
    return cube_literal_count(isop(net.mgr, net.nodes[name].func))


def network_literals(net: BooleanNetwork) -> int:
    """Total ISOP literal count of the network."""
    return sum(node_literals(net, n) for n in net.nodes)


def eliminate(
    net: BooleanNetwork,
    threshold: int = 0,
    size_bound: int = 500,
    max_passes: int = 1,
) -> int:
    """SIS-style ``eliminate``: collapse nodes whose removal does not
    increase literal count by more than ``threshold``.

    Returns the number of nodes eliminated.  ``size_bound`` caps the
    merged BDD size so pathological compositions are skipped.
    """
    eliminated = 0
    for _ in range(max_passes):
        changed = False
        fanouts = net.fanouts()
        po_drivers = net.po_drivers()
        for name in topological_order(net):
            if name not in net.nodes or name in po_drivers:
                continue
            consumers = [c for c in fanouts.get(name, []) if c in net.nodes]
            if not consumers:
                continue
            lits_before = node_literals(net, name) + sum(
                node_literals(net, c) for c in consumers
            )
            merged_lits = 0
            feasible = True
            for c in consumers:
                merged = net.merged_function(name, c)
                if net.mgr.count_nodes(merged) > size_bound:
                    feasible = False
                    break
                merged_lits += cube_literal_count(isop(net.mgr, merged))
            if not feasible:
                continue
            if merged_lits - lits_before > threshold:
                continue
            for c in consumers:
                net.collapse_into(name, c)
            net.remove_node(name)
            eliminated += 1
            changed = True
            fanouts = net.fanouts()
        if not changed:
            break
    return eliminated
