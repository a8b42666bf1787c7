"""Depth-optimal K-LUT covering of an arbitrary bounded-fanin network.

The AIG mapper (:mod:`repro.mapping.mapper`) needs 2-input nodes; this
module covers *any* :class:`BooleanNetwork` whose nodes have fanin ≤ K
— which is exactly the shape DDBDD's emission produces.  It realizes
the paper's "map all the gates to cells implementable by K-LUTs" as a
real technology-mapping step:

1. priority-cut enumeration (fold over the node's fanins, pruning to a
   cut budget by ``(depth, area-flow, size)``);
2. depth-optimal labels;
3. reverse-topological cut selection under required times (area flow
   recovers LUTs without losing a level);
4. cover extraction with cone functions built by BDD composition.

Because the trivial covering (one LUT per node) is always among the
cuts, the result is never deeper than the input network.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import fsum
from typing import Dict, FrozenSet, List, Optional

from repro.bdd.ops import translate
from repro.network.depth import topological_order
from repro.network.netlist import BooleanNetwork


@dataclass
class _Cut:
    leaves: FrozenSet[str]
    depth: int
    area_flow: float


def cover_network(
    net: BooleanNetwork, k: int, cut_limit: int = 8
) -> BooleanNetwork:
    """Return a depth-optimal K-LUT re-covering of ``net``."""
    if net.max_fanin() > k:
        raise ValueError("network nodes must already have fanin <= k")
    order = topological_order(net)
    fanouts = net.fanouts()

    cuts: Dict[str, List[_Cut]] = {pi: [] for pi in net.pis}
    label: Dict[str, int] = {pi: 0 for pi in net.pis}
    area_flow: Dict[str, float] = {pi: 0.0 for pi in net.pis}

    for name in order:
        node = net.nodes[name]
        partial: List[FrozenSet[str]] = [frozenset()]
        prefix: List[str] = []
        for f in node.fanins:
            prefix.append(f)
            fanin_cuts = cuts[f] + [_Cut(frozenset([f]), label[f], area_flow[f])]
            merged: Dict[FrozenSet[str], None] = {}
            for p in partial:
                for c in fanin_cuts:
                    u = p | c.leaves
                    if len(u) <= k:
                        merged[u] = None
            if not merged:
                # Pruning kept only size-k partial cuts that cannot
                # absorb this fanin; without a rescue the fold would go
                # empty and the node would fall into the constant-node
                # pseudo-cut below — emitting a fanin-less LUT carrying
                # its whole global function.  The prefix of fanins seen
                # so far is always a feasible partial cut (fanin <= k).
                merged[frozenset(prefix)] = None
            # Intermediate prune keeps the fold polynomial.
            # fsum: correctly-rounded, so the score is independent of
            # the frozenset's hash-seed-dependent iteration order —
            # plain float sum() can differ in the last ulp and flip
            # pruning ties between runs.
            scored = sorted(
                merged,
                key=lambda u: (
                    1 + max((label[x] for x in u), default=-1),
                    fsum(area_flow[x] for x in u),
                    len(u),
                ),
            )
            partial = scored[: max(cut_limit * 2, 8)]
        candidates = []
        for u in partial:
            if not u:
                continue
            depth = 1 + max(label[x] for x in u)
            af = (1.0 + fsum(area_flow[x] for x in u)) / max(len(fanouts.get(name, [])), 1)
            candidates.append(_Cut(u, depth, af))
        candidates.sort(key=lambda c: (c.depth, c.area_flow, len(c.leaves)))
        cuts[name] = candidates[:cut_limit]
        if not cuts[name]:
            # Constant node: keep a zero-leaf pseudo-cut.
            cuts[name] = [_Cut(frozenset(), 0, 1.0)]
        label[name] = cuts[name][0].depth
        area_flow[name] = cuts[name][0].area_flow

    # Reverse-topological selection under required times.
    po_drivers = {d for d in net.pos.values() if d in net.nodes}
    target = max((label[d] for d in po_drivers), default=0)
    required: Dict[str, int] = {d: target for d in po_drivers}
    chosen: Dict[str, _Cut] = {}
    for name in reversed(order):
        req = required.get(name)
        if req is None:
            continue
        best: Optional[_Cut] = None
        best_key = None
        for cut in cuts[name]:
            depth = 1 + max((label[x] for x in cut.leaves), default=-1)
            if depth > req and cut.leaves:
                continue
            key = (fsum(area_flow[x] for x in cut.leaves), depth, len(cut.leaves))
            if best is None or key < best_key:
                best, best_key = cut, key
        if best is None:
            best = cuts[name][0]
        chosen[name] = best
        for leaf in best.leaves:
            if leaf in net.nodes:
                required[leaf] = min(required.get(leaf, req - 1), req - 1)

    # Cover extraction.
    out = BooleanNetwork(net.name)
    for pi in net.pis:
        out.add_pi(pi)
    emitted: Dict[str, str] = {pi: pi for pi in net.pis}
    for po, driver in net.pos.items():
        out.add_po(po, _emitted_name(driver, net, chosen, out, emitted))
    out.check()
    return out


def _emitted_name(
    sig: str, net: BooleanNetwork, chosen: Dict[str, _Cut], out: BooleanNetwork,
    emitted: Dict[str, str],
) -> str:
    """Name in ``out`` of signal ``sig``; on first use, emits the LUT of
    its chosen cut after the LUTs of the cut's leaves."""
    got = emitted.get(sig)
    if got is not None:
        return got
    cut = chosen[sig]
    # Sorted: frozenset iteration order is hash-seed-dependent for
    # strings, and the leaf emission order decides node insertion
    # order in `out` — which downstream topological passes (dedup,
    # LUT packing) are sensitive to.  Results must not vary with
    # PYTHONHASHSEED.
    leaves = sorted(cut.leaves)
    for leaf in leaves:
        _emitted_name(leaf, net, chosen, out, emitted)
    func = _cone_function(sig, cut.leaves, net, out, emitted, {})
    name = out.fresh_name(f"{sig}_c")
    out.add_node_function(name, [emitted[x] for x in leaves], func)
    emitted[sig] = name
    return name


def _cone_function(
    sig: str, leaves: FrozenSet[str], net: BooleanNetwork, out: BooleanNetwork,
    emitted: Dict[str, str], cache: Dict[str, int],
) -> int:
    """Function of the cone from ``sig`` down to ``leaves`` (all emitted
    already), as a BDD in ``out``'s manager over the emitted leaf
    signals."""
    if sig in leaves or sig in net.pis:
        return out.mgr.var(out.var_of(emitted[sig]))
    got = cache.get(sig)
    if got is not None:
        return got
    node = net.nodes[sig]
    by_var = {
        net.var_of(f): _cone_function(f, leaves, net, out, emitted, cache) for f in node.fanins
    }
    result = translate(net.mgr, node.func, out.mgr, by_var)
    cache[sig] = result
    return result
