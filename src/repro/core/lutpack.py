"""Final gate-to-LUT-cell packing.

Algorithm 1 produces a network of small gates (2-input ANDs from linear
expansion, MUX/XNOR cells, bin-packed ORs) and the paper then "maps all
the gates to cells implementable by K-LUTs".  Pure emission is already
K-feasible, but adjacent shallow gates frequently fit a *single* LUT —
e.g. a tree of 2-input ANDs is really one wide AND that K-LUT cells
cover log_K deep, not log_2.  This pass performs that final covering:

* **depth merges** — collapse a critical fanin into its consumer when
  the merged support still fits one LUT and the consumer's level
  strictly drops (duplicating the fanin if it has other consumers);
* **area merges** — collapse single-fanout fanins whenever the merged
  support fits and the consumer's level does not increase.

Both merges are function-preserving by construction (BDD composition);
the pass iterates to a fixed point.
"""

from __future__ import annotations

from repro.network.depth import depth_map, topological_order
from repro.network.netlist import BooleanNetwork
from repro.network.transform import merge_duplicates, remove_dangling


def lut_pack(net: BooleanNetwork, k: int, max_rounds: int = 40) -> int:
    """Pack adjacent gates into K-LUTs in place.  Returns merges done."""
    merges = 0
    for _ in range(max_rounds):
        depths = depth_map(net)
        fanouts = net.fanouts()
        po_drivers = net.po_drivers()
        changed = False
        for name in topological_order(net):
            node = net.nodes.get(name)
            if node is None:
                continue
            my_depth = depths[name]
            for f in list(node.fanins):
                fnode = net.nodes.get(f)
                if fnode is None:
                    continue
                merged = net.merged_function(f, name)
                # One walk that stops past k variables and memoizes
                # nothing: a per-row support memo would outlive every
                # probe in the mapped manager.
                shape = net.mgr.shape_within(merged, max_vars=k)
                if shape is None:
                    continue
                support = shape[1]
                # Depth of this node if the merge is applied now.
                names_of = [s for s in node.fanins if s != f] + list(fnode.fanins)
                new_depth = 1 + max(
                    (depths.get(s, 0) for s in names_of if net.var_of(s) in support),
                    default=-1,
                )
                single_consumer = fanouts.get(f, []) == [name]
                if new_depth < my_depth or (single_consumer and new_depth <= my_depth):
                    fanins_before = set(node.fanins)
                    net.collapse_into(f, name)
                    fanins_after = set(net.nodes[name].fanins)
                    # Keep the fanout map exact (it gates node removal).
                    for s in fanins_after - fanins_before:
                        lst = fanouts.setdefault(s, [])
                        if name not in lst:
                            lst.append(name)
                    for s in fanins_before - fanins_after - {f}:
                        fanouts[s] = [c for c in fanouts.get(s, []) if c != name]
                    if single_consumer and f not in po_drivers:
                        for s in fnode.fanins:
                            fanouts[s] = [c for c in fanouts.get(s, []) if c != f]
                        net.remove_node(f)
                        fanouts.pop(f, None)
                    else:
                        fanouts[f] = [c for c in fanouts.get(f, []) if c != name]
                    depths[name] = my_depth = new_depth
                    node = net.nodes[name]
                    merges += 1
                    changed = True
        if not changed:
            break
        remove_dangling(net)
        merge_duplicates(net)
    return merges
