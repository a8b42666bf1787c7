"""Gain-based clustering and partial collapsing (Algorithm 2).

Nodes are merged fanin-into-fanout in decreasing order of merging gain,
over multiple iterations, until no mergable pair remains.  ``mergable``
bounds the merged BDD size (`size_bound`, 200) and its growth over the
two originals (factor ``1 + alpha``).  The gain prefers deep fanins
(merging them is more likely to shorten the critical path — Fig. 6) and
fanins with few fanouts (less duplication):

    gain(x, y) = (n1 + n2 − n) * w      if n1 + n2 ≥ n
               = (n1 + n2 − n) / w      otherwise
    w = 1 + β · do(x)/dix(y) + γ / no(x)

with x = in, y = out, ``do`` the output depth of x, ``dix`` the maximum
fanin depth of y and ``no`` the fanout count of x.  Within one
iteration a node that was changed by a merge (the *out* of an earlier
merge) is marked and skipped.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.core.config import DDBDDConfig
from repro.network.depth import depth_map
from repro.network.netlist import BooleanNetwork


@dataclass
class CollapseStats:
    """Bookkeeping of one partial-collapse run."""

    iterations: int = 0
    merges: int = 0
    nodes_removed: int = 0
    nodes_before: int = 0
    nodes_after: int = 0
    largest_bdd: int = 0


def _mergable(
    net: BooleanNetwork,
    in_name: str,
    out_name: str,
    config: DDBDDConfig,
    shapes: Optional[Dict[int, Tuple[int, int]]] = None,
    rejects: Optional[Set[Tuple[int, int, int]]] = None,
) -> Optional[Tuple[int, int, int]]:
    """Size triple ``(n1, n2, n)`` if the pair may merge, else ``None``.

    Mirrors the paper's ``mergable``: merge the two BDD copies, require
    the merged size below the bound and below ``(n1+n2)·(1+α)``, and
    its support within ``support_bound``.  Only a merged size up to
    ``T = min(size_bound, ⌈(n1+n2)(1+α)⌉ − 1)`` can pass, so the compose
    runs on a budget of T new rows and the shape walk stops past T nodes
    or past ``support_bound`` variables: each stops only where the merge
    must fail.  ``shapes`` memoizes the merged ``(size, support size)``
    per merged handle and ``rejects`` the failed merges per ``(out
    function, in variable, in function)``; one :func:`partial_collapse`
    call shares both across its iterations, which re-test the same
    merges.
    """
    mgr = net.mgr
    f_in = net.nodes[in_name].func
    f_out = net.nodes[out_name].func
    probe = (f_out, net.var_of(in_name), f_in)
    if rejects is not None and probe in rejects:
        return None
    n1 = mgr.count_nodes(f_in)
    n2 = mgr.count_nodes(f_out)
    budget = min(config.size_bound, math.ceil((n1 + n2) * (1 + config.alpha)) - 1)
    merged = net.merged_function(in_name, out_name, max_new_rows=budget)
    shape = None
    if merged is not None:
        if shapes is None:
            shapes = {}
        shape = shapes.get(merged)
        if shape is None:
            walked = mgr.shape_within(merged, budget, config.support_bound)
            if walked is not None:
                shape = shapes[merged] = (walked[0], len(walked[1]))
    if (
        shape is None
        or shape[0] > budget
        or (config.support_bound is not None and shape[1] > config.support_bound)
    ):
        if rejects is not None:
            rejects.add(probe)
        return None
    return n1, n2, shape[0]


def _gain(
    sizes: Tuple[int, int, int],
    do_x: int,
    dix_y: int,
    no_x: int,
    config: DDBDDConfig,
) -> float:
    n1, n2, n = sizes
    weight = 1.0 + config.beta * (do_x / max(dix_y, 1)) + config.gamma / max(no_x, 1)
    delta = n1 + n2 - n
    if delta >= 0:
        return delta * weight
    return delta / weight


def partial_collapse(net: BooleanNetwork, config: Optional[DDBDDConfig] = None) -> CollapseStats:
    """Run Algorithm 2 on ``net`` in place.  Returns statistics."""
    config = config or DDBDDConfig()
    stats = CollapseStats(nodes_before=len(net.nodes))
    po_drivers = net.po_drivers()
    shapes: Dict[int, Tuple[int, int]] = {}
    rejects: Set[Tuple[int, int, int]] = set()

    for _ in range(config.max_collapse_iterations):
        stats.iterations += 1
        depths = depth_map(net)
        fanouts = net.fanouts()
        fanout_count = {name: len(fanouts.get(name, [])) for name in net.nodes}

        # Collect every mergable fanin→fanout pair with its gain.
        pq: List[Tuple[float, int, str, str]] = []
        tiebreak = 0
        for out_name, out_node in net.nodes.items():
            dix = max((depths[f] for f in out_node.fanins), default=0)
            for in_name in out_node.fanins:
                if in_name not in net.nodes:
                    continue  # primary input
                sizes = _mergable(net, in_name, out_name, config, shapes, rejects)
                if sizes is None:
                    continue
                g = _gain(sizes, depths[in_name], dix, fanout_count[in_name], config)
                tiebreak += 1
                heapq.heappush(pq, (-g, tiebreak, in_name, out_name))

        if not pq:
            break

        marked: Set[str] = set()
        merged_this_iter = 0
        while pq:
            _, _, in_name, out_name = heapq.heappop(pq)
            if in_name in marked or out_name in marked:
                continue
            if in_name not in net.nodes or out_name not in net.nodes:
                continue  # removed earlier this iteration
            if in_name not in net.nodes[out_name].fanins:
                continue  # edge vanished through another merge
            marked.add(out_name)
            fanins_before = set(net.nodes[out_name].fanins)
            net.collapse_into(in_name, out_name)
            stats.merges += 1
            merged_this_iter += 1
            # Keep fanout counts exact: `in` lost the edge to `out`;
            # `in`'s fanins gained `out` as a consumer; fanins of `out`
            # whose variable dropped out of the merged support lost one.
            fanins_after = set(net.nodes[out_name].fanins)
            for f in fanins_after - fanins_before:
                if f in fanout_count:
                    fanout_count[f] += 1
            for f in fanins_before - fanins_after - {in_name}:
                if f in fanout_count:
                    fanout_count[f] -= 1
            fanout_count[in_name] -= 1
            if (
                fanout_count[in_name] <= 0
                and in_name not in po_drivers
            ):
                net.remove_node(in_name)
                stats.nodes_removed += 1
        # Merging can make further nodes unused (a merge prunes fanins
        # whose variables drop out of the merged support); clean them up.
        from repro.network.transform import remove_dangling

        stats.nodes_removed += remove_dangling(net)
        if merged_this_iter == 0:
            break

    stats.nodes_after = len(net.nodes)
    if net.nodes:
        stats.largest_bdd = max(net.mgr.count_nodes(n.func) for n in net.nodes.values())
    return stats
