"""Shared helpers for the runtime-subsystem tests."""

from __future__ import annotations

from typing import List, Tuple

from repro.network.netlist import BooleanNetwork


def net_dump(net: BooleanNetwork) -> tuple:
    """Exact structural fingerprint of a LUT network: PI/PO bindings
    plus every node's name, fanin list and truth table (over
    ``2**fanins`` rows) in creation order.  Two networks with equal
    dumps are byte-identical for the determinism contract."""
    nodes: List[Tuple[str, tuple, str]] = []
    for name in net.nodes:
        node = net.nodes[name]
        variables = [net.var_of(f) for f in node.fanins]
        nodes.append((name, tuple(node.fanins), net.mgr.truth_table(node.func, variables)))
    return (tuple(net.pis), tuple(sorted(net.pos.items())), tuple(nodes))
