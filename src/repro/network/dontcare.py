"""Observability-don't-care (ODC) based node simplification.

A light version of the don't-care optimization the SIS scripts perform
([2], [3] in the paper): for each internal node, compute the
assignments of its fanin signals under which no primary output is
affected by the node's value (complete ODCs over the node's local input
space, derived from the global BDDs), then minimize the node's function
inside the resulting interval.  Exact but intended for small/medium
networks — the global-BDD construction is guarded by a node limit and
the pass silently skips nodes whose cones blow up.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.bdd.manager import BDDManager, NodeLimitExceeded
from repro.bdd.ops import minimize_with_dc, translate
from repro.network.depth import topological_order
from repro.network.equivalence import global_functions
from repro.network.netlist import BooleanNetwork


def simplify_with_odc(
    net: BooleanNetwork, node_limit: int = 100_000
) -> int:
    """Simplify node functions using observability don't cares.

    Returns the number of nodes whose local function changed.  The
    network's PO functions are preserved exactly (the don't cares are,
    by construction, unobservable).
    """
    try:
        gmgr = BDDManager(node_limit=node_limit)
        pi_vars = {pi: gmgr.add_var(pi) for pi in sorted(net.pis)}
        po_funcs = global_functions(net, gmgr, pi_vars)

        # Global function of every internal signal.
        sig_funcs: Dict[str, int] = {pi: gmgr.var(v) for pi, v in pi_vars.items()}
        for name in topological_order(net):
            node = net.nodes[name]
            by_var = {net.var_of(f): sig_funcs[f] for f in node.fanins}
            sig_funcs[name] = translate(net.mgr, node.func, gmgr, by_var)

        changed = 0
        for name in topological_order(net):
            node = net.nodes[name]
            odc = _observability_dc(net, gmgr, sig_funcs, pi_vars, name, po_funcs)
            if odc is None or odc == gmgr.ZERO:
                continue
            # Project the global ODC into the node's local input space:
            # a local assignment is don't-care iff *every* global state
            # producing it is unobservable.
            local_dc = _project_dc(net, gmgr, sig_funcs, name, odc)
            if local_dc == net.mgr.ZERO:
                continue
            new_func = minimize_with_dc(net.mgr, node.func, local_dc)
            if new_func != node.func:
                node.func = new_func
                support = net.mgr.support(new_func)
                node.fanins = [f for f in node.fanins if net.var_of(f) in support]
                changed += 1
        return changed
    except NodeLimitExceeded:
        return 0


def _observability_dc(net, gmgr, sig_funcs, pi_vars, name, po_funcs) -> Optional[int]:
    """Global input assignments where flipping ``name`` changes no PO."""
    # Recompute each PO with the node's function complemented; the ODC
    # is where all POs agree with the original.
    flipped: Dict[str, int] = dict(sig_funcs)
    flipped[name] = gmgr.negate(sig_funcs[name])
    order = topological_order(net)
    start = order.index(name)
    for other in order[start + 1:]:
        node = net.nodes[other]
        by_var = {net.var_of(f): flipped[f] for f in node.fanins}
        flipped[other] = translate(net.mgr, node.func, gmgr, by_var)
    odc = gmgr.ONE
    for po, driver in net.pos.items():
        agree = gmgr.apply_xnor(sig_funcs[driver], flipped[driver])
        odc = gmgr.apply_and(odc, agree)
        if odc == gmgr.ZERO:
            break
    return odc


def _project_dc(net, gmgr, sig_funcs, name, odc) -> int:
    """Local fanin-space don't cares: minterm m is DC iff all global
    states mapping to m are in the global ODC set."""
    node = net.nodes[name]
    mgr = net.mgr
    local_dc = mgr.ZERO
    fanins = node.fanins
    n = len(fanins)
    if n > 10:
        return mgr.ZERO  # projection is exponential in fanin count
    for m in range(1 << n):
        reach = gmgr.ONE
        for k, f in enumerate(fanins):
            g = sig_funcs[f]
            reach = gmgr.apply_and(reach, g if (m >> k) & 1 else gmgr.negate(g))
        if reach == gmgr.ZERO:
            covered = True  # unreachable local minterm: satisfiability DC
        else:
            covered = gmgr.apply_and(reach, gmgr.negate(odc)) == gmgr.ZERO
        if covered:
            cube = mgr.ONE
            for k, f in enumerate(fanins):
                v = net.var_of(f)
                lit = mgr.var(v) if (m >> k) & 1 else mgr.nvar(v)
                cube = mgr.apply_and(cube, lit)
            local_dc = mgr.apply_or(local_dc, cube)
    return local_dc
