"""Network cleanup passes (the SIS "sweep" family).

* :func:`sweep` — remove dangling nodes, propagate constants, collapse
  buffers and inverters into their fanouts.
* :func:`merge_duplicates` — structural-functional dedup: nodes with the
  same local function over the same signals become one.
* :func:`absorb_single_input_nodes` — fold any remaining single-input
  node into its fanouts (used after decomposition to erase buffers).

All passes preserve PO functions exactly; tests check this with the
equivalence checker.
"""

from __future__ import annotations

from typing import Dict

from repro.network.depth import topological_order
from repro.network.netlist import BooleanNetwork


def remove_dangling(net: BooleanNetwork) -> int:
    """Delete nodes that reach no primary output.  Returns count.

    Worklist algorithm over fanout *counts*: O(nodes + edges) instead
    of rescanning the whole network once per removal wave.  The removed
    set is the unique fixed point of "drop any fanout-free non-PO
    node", so the order of processing cannot change the result.
    """
    po_drivers = net.po_drivers()
    count: Dict[str, int] = {name: 0 for name in net.nodes}
    for node in net.nodes.values():
        for f in node.fanins:
            if f in count:
                count[f] += 1
    worklist = [n for n, c in count.items() if c == 0 and n not in po_drivers]
    removed = 0
    while worklist:
        name = worklist.pop()
        node = net.nodes.get(name)
        if node is None:
            continue
        for f in node.fanins:
            if f in count:
                count[f] -= 1
                if count[f] == 0 and f not in po_drivers:
                    worklist.append(f)
        net.remove_node(name)
        removed += 1
    return removed


def sweep(net: BooleanNetwork) -> int:
    """Constant propagation + buffer/inverter absorption + dangling
    removal, to a fixed point.  Returns number of nodes removed."""
    before = len(net.nodes)
    changed = True
    while changed:
        changed = False
        fanouts = net.fanouts()
        po_drivers = net.po_drivers()
        for name in topological_order(net):
            node = net.nodes.get(name)
            if node is None:
                continue
            mgr = net.mgr
            func = node.func
            is_const = mgr.is_terminal(func)
            is_wire = len(node.fanins) == 1 and func in (
                mgr.var(net.var_of(node.fanins[0])),
                mgr.nvar(net.var_of(node.fanins[0])),
            )
            if not (is_const or is_wire):
                continue
            if name in po_drivers:
                # A PO driver must remain a named node; constants and
                # wires at POs are legal nodes, leave them.
                continue
            # Substitute into every fanout.
            for consumer in list(fanouts.get(name, [])):
                cnode = net.nodes.get(consumer)
                if cnode is None or name not in cnode.fanins:
                    continue
                if is_const:
                    g = func
                    cnode.func = mgr.compose(cnode.func, net.var_of(name), g)
                    support = mgr.support(cnode.func)
                    cnode.fanins = [f for f in cnode.fanins if net.var_of(f) in support]
                else:
                    src = node.fanins[0]
                    negate = func == mgr.nvar(net.var_of(src))
                    net.replace_fanin(consumer, name, src, negate=negate)
                changed = True
        removed_now = remove_dangling(net)
        changed = changed or removed_now > 0
    return before - len(net.nodes)


def merge_duplicates(net: BooleanNetwork) -> int:
    """Merge nodes computing identical functions of identical signals.

    Because all local functions live in one manager over shared signal
    variables, two nodes are functionally identical exactly when their
    BDD node ids match.  Returns the number of nodes merged away.
    """
    merged = 0
    changed = True
    while changed:
        changed = False
        seen: Dict[int, str] = {}
        po_drivers = net.po_drivers()
        # One fanout map per round, maintained across merges (a merge
        # only rewires consumers of the merged node, which sit *after*
        # it in this round's topological order — so every node is
        # scanned with its final function and a full restart per merge
        # buys nothing).
        fanouts = net.fanouts()
        for name in topological_order(net):
            node = net.nodes.get(name)
            if node is None:
                continue
            canonical = seen.get(node.func)
            if canonical is None:
                seen[node.func] = name
                continue
            if name in po_drivers:
                # Keep the PO-driving node; make it a buffer of canonical.
                continue
            consumers = fanouts.get(name, [])
            for consumer in consumers:
                if consumer in net.nodes:
                    net.replace_fanin(consumer, name, canonical)
            # Conservative update: stale entries are harmless (the
            # rewire above is a no-op for a consumer that no longer
            # reads the signal), missing ones are not.
            fanouts.setdefault(canonical, []).extend(consumers)
            net.remove_node(name)
            merged += 1
            changed = True
    remove_dangling(net)
    return merged


def absorb_single_input_nodes(net: BooleanNetwork) -> int:
    """Fold buffer/inverter nodes into fanouts (POs excepted)."""
    return sweep(net)


def make_po_drivers_nodes(net: BooleanNetwork) -> None:
    """Ensure every PO is driven by an internal node (not a bare PI), by
    inserting buffers where needed — some flows require this shape."""
    for po, driver in list(net.pos.items()):
        if driver in net.pis:
            buf = net.fresh_name(f"{po}_buf")
            net.add_gate(buf, "buf", [driver])
            net.pos[po] = buf
