"""Slack-driven area recovery (the paper's future work, implemented).

The paper's conclusion: "Our future work will consider area reduction
techniques during BDD decomposition … so that noncritical BDD nodes can
be optimized toward area reduction."  This pass works on the final LUT
network: with the circuit depth fixed as the timing target, every LUT
has a required time; merging a fanin into a consumer that has positive
slack is accepted whenever the merged support still fits one K-LUT and
the consumer's new level stays within its required time.  Fanins whose
last consumer absorbed them disappear — pure area win, depth untouched.

Function preservation is by construction (BDD composition); the
circuit-level depth is asserted unchanged by the caller's tests.
"""

from __future__ import annotations

from repro.network.depth import depth_map, network_depth, required_times, topological_order
from repro.network.netlist import BooleanNetwork
from repro.network.transform import merge_duplicates, remove_dangling


def area_recovery(net: BooleanNetwork, k: int, max_rounds: int = 10) -> int:
    """Merge non-critical LUT pairs without exceeding the current
    circuit depth.  Returns the number of merges performed."""
    target = network_depth(net)
    merges = 0
    for _ in range(max_rounds):
        depths = depth_map(net)
        required = required_times(net, target)
        fanouts = net.fanouts()
        po_drivers = net.po_drivers()
        changed = False
        for name in topological_order(net):
            node = net.nodes.get(name)
            if node is None:
                continue
            req = required.get(name, target)
            for f in list(node.fanins):
                fnode = net.nodes.get(f)
                if fnode is None:
                    continue
                if fanouts.get(f, []) != [name] or f in po_drivers:
                    continue  # only fanout-free fanins: guaranteed area win
                merged = net.merged_function(f, name)
                support = net.mgr.support(merged)
                if len(support) > k:
                    continue
                names_of = [s for s in node.fanins if s != f] + list(fnode.fanins)
                new_depth = 1 + max(
                    (depths.get(s, 0) for s in names_of if net.var_of(s) in support),
                    default=-1,
                )
                if new_depth > req:
                    continue
                fanins_before = set(node.fanins)
                net.collapse_into(f, name)
                fanins_after = set(net.nodes[name].fanins)
                for s in fanins_after - fanins_before:
                    lst = fanouts.setdefault(s, [])
                    if name not in lst:
                        lst.append(name)
                for s in fanins_before - fanins_after - {f}:
                    fanouts[s] = [c for c in fanouts.get(s, []) if c != name]
                for s in fnode.fanins:
                    fanouts[s] = [c for c in fanouts.get(s, []) if c != f]
                net.remove_node(f)
                fanouts.pop(f, None)
                depths[name] = max(depths[name], new_depth)
                node = net.nodes[name]
                merges += 1
                changed = True
        if not changed:
            break
        remove_dangling(net)
        merge_duplicates(net)
        if network_depth(net) > target:  # pragma: no cover - invariant
            raise AssertionError("area recovery broke the depth target")
    return merges
