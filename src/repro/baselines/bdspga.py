"""BDS-pga baseline [12]: MFFC collapsing + heuristic BDD decomposition.

The published BDS-pga flow: eliminate nodes via maximum fanout-free
cones, build a BDD per collapsed node, and recursively decompose it by
structural properties — algebraic AND/OR via 1-/0-dominators, XNOR and
MUX via two-node cut sets, otherwise a cut "in the middle" (we use
Shannon cofactoring at the top variable, the standard fallback) —
counting each created gate as a LUT cell.  Crucially, the main loop
optimizes *BDD size*, not delay; delay is addressed only by the
post-synthesis resynthesis pass (collapse critical LUT pairs whose
merged support still fits one LUT), exactly the weakness the paper's
experiments exercise.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.bdd.leveled import LeveledBDD
from repro.bdd.manager import BDDManager
from repro.bdd.ops import translate
from repro.bdd.reorder import reorder_for_size
from repro.network.depth import depth_map, network_depth, topological_order
from repro.network.netlist import BooleanNetwork
from repro.network.transform import remove_dangling, sweep


@dataclass
class BDSPgaConfig:
    """BDS-pga tunables (size bound mirrors DDBDD's for fairness)."""

    k: int = 5
    size_bound: int = 200
    reorder_effort: str = "auto"
    delay_resynthesis: bool = True
    resynthesis_rounds: int = 8


@dataclass
class BDSResult:
    """Output of the BDS-pga flow."""

    network: BooleanNetwork
    depth: int
    area: int
    runtime_s: float


# ----------------------------------------------------------------------
# MFFC-based collapsing
# ----------------------------------------------------------------------
def mffc_collapse(net: BooleanNetwork, size_bound: int, max_passes: int = 50) -> int:
    """Collapse single-fanout fanins into their consumers to a fixed
    point — iterated, this folds every maximum fanout-free cone into its
    root (bounded by ``size_bound`` BDD nodes).  Returns merges done."""
    merges = 0
    for _ in range(max_passes):
        changed = False
        fanouts = net.fanouts()
        po_drivers = net.po_drivers()
        for name in list(topological_order(net)):
            node = net.nodes.get(name)
            if node is None:
                continue
            for fanin in list(node.fanins):
                if fanin not in net.nodes or fanin in po_drivers:
                    continue
                if len(fanouts.get(fanin, [])) != 1:
                    continue
                merged = net.merged_function(fanin, name)
                if net.mgr.count_nodes(merged) > size_bound:
                    continue
                net.collapse_into(fanin, name)
                net.remove_node(fanin)
                fanouts = net.fanouts()
                merges += 1
                changed = True
        if not changed:
            break
    remove_dangling(net)
    return merges


# ----------------------------------------------------------------------
# Heuristic BDD decomposition
# ----------------------------------------------------------------------
def _substitute_walk(
    mgr: BDDManager, n: int, v_node: int, target: int, memo: Dict[int, int]
) -> int:
    """``n`` with BDD node ``v_node`` replaced by ``target`` (hi first)."""
    if n == v_node:
        return target
    if mgr.is_terminal(n):
        return n
    got = memo.get(n)
    if got is not None:
        return got
    var, lo, hi = mgr.node(n)
    r = mgr.ite(
        mgr.var(var),
        _substitute_walk(mgr, hi, v_node, target, memo),
        _substitute_walk(mgr, lo, v_node, target, memo),
    )
    memo[n] = r
    return r


class _BDSDecomposer:
    """Recursively decomposes one BDD into ≤K-input LUT nodes."""

    def __init__(
        self,
        mgr: BDDManager,
        func: int,
        config: BDSPgaConfig,
    ) -> None:
        self.config = config
        self.mgr, self.func, _ = reorder_for_size(
            mgr, func, "sift" if config.reorder_effort in ("auto", "sift") else "none"
        )
        self._memo: Dict[int, Tuple[str, bool, int]] = {}

    def emit(
        self,
        net: BooleanNetwork,
        leaf_signals: Dict[int, Tuple[str, bool, int]],
        prefix: str,
    ) -> Tuple[str, bool, int]:
        """Build the decomposition into ``net``; returns (sig, neg, depth)."""
        self._net = net
        self._leaves = leaf_signals
        self._prefix = prefix
        self._counter = 0
        return self._rec(self.func)

    # -- helpers -------------------------------------------------------
    def _fresh(self) -> str:
        self._counter += 1
        return self._net.fresh_name(f"{self._prefix}_{self._counter}_")

    def _lit(self, sig: Tuple[str, bool, int]) -> int:
        name, neg, _ = sig
        f = self._net.mgr.var(self._net.var_of(name))
        return self._net.mgr.negate(f) if neg else f

    def _build_local(self, f: int) -> Tuple[int, list, int]:
        """Translate BDD ``f`` into the net manager over leaf signals.

        Returns ``(func, fanins, depth_of_inputs)``."""
        fanins = []
        max_depth = 0
        lit_by_var = {}
        for v in self.mgr.support_ordered(f):
            sig = self._leaves[v]
            lit_by_var[v] = self._lit(sig)
            if sig[0] not in fanins:
                fanins.append(sig[0])
            max_depth = max(max_depth, sig[2])
        return translate(self.mgr, f, self._net.mgr, lit_by_var), fanins, max_depth

    def _make_gate(self, func: int, ops: list) -> Tuple[str, bool, int]:
        fanins = []
        for o in ops:
            if o[0] not in fanins:
                fanins.append(o[0])
        depth = 1 + max(o[2] for o in ops)
        name = self._fresh()
        self._net.add_node_function(name, fanins, func)
        return (name, False, depth)

    def _substitute(self, f: int, v_node: int, value: bool) -> int:
        """Replace BDD node ``v_node`` inside ``f`` with a terminal."""
        mgr = self.mgr
        return _substitute_walk(mgr, f, v_node, mgr.ONE if value else mgr.ZERO, {})

    # -- the recursion ---------------------------------------------------
    def _rec(self, f: int) -> Tuple[str, bool, int]:
        mgr = self.mgr
        got = self._memo.get(f)
        if got is not None:
            return got
        result = self._decompose(f)
        self._memo[f] = result
        return result

    def _decompose(self, f: int) -> Tuple[str, bool, int]:
        mgr = self.mgr
        k = self.config.k
        if mgr.is_terminal(f):
            raise ValueError("constant reached the decomposer")
        support = mgr.support(f)
        if len(support) == 1:
            v = next(iter(support))
            name, neg, d = self._leaves[v]
            positive = f == mgr.var(v)
            return (name, neg if positive else (not neg), d)
        if len(support) <= k:
            func, fanins, d_in = self._build_local(f)
            name = self._fresh()
            self._net.add_node_function(name, fanins, func)
            return (name, False, d_in + 1)

        nmgr = self._net.mgr
        # 1-dominator → AND, 0-dominator → OR (Karplus).  BDS favors
        # balanced conjunctive splits, so among all dominators pick the
        # one dividing the BDD most evenly.
        best_dom = None  # (imbalance, op, g, h)
        size_f = mgr.count_nodes(f)
        for v_node in self._dominator_candidates(f):
            g = None
            op = None
            if self._substitute(f, v_node, False) == mgr.ZERO:
                g = self._substitute(f, v_node, True)
                op = "and"
            elif self._substitute(f, v_node, True) == mgr.ONE:
                g = self._substitute(f, v_node, False)
                op = "or"
            if g is None or mgr.is_terminal(g):
                continue
            imbalance = abs(mgr.count_nodes(g) - mgr.count_nodes(v_node))
            if best_dom is None or imbalance < best_dom[0]:
                best_dom = (imbalance, op, g, v_node)
        if best_dom is not None:
            _, op, g, v_node = best_dom
            a = self._rec(g)
            b = self._rec(v_node)
            combine = nmgr.apply_and if op == "and" else nmgr.apply_or
            return self._make_gate(combine(self._lit(a), self._lit(b)), [a, b])

        # Two-node cut set → XNOR (complementary halves) or MUX.
        lb = LeveledBDD(mgr, f)
        best_level = None
        for level in range(lb.depth - 1):
            cs = lb.cut_set(lb.root, level)
            if len(cs) == 2 and not all(lb.is_terminal(w) for w in cs):
                mid_distance = abs(level - lb.depth // 2)
                if best_level is None or mid_distance < best_level[0]:
                    best_level = (mid_distance, level, cs)
        if best_level is not None:
            _, level, (w1, w2) = best_level
            sel_f = lb.bs_function(lb.root, level, w1)
            f1 = mgr.ONE if w1 == mgr.ONE else (mgr.ZERO if w1 == mgr.ZERO else w1)
            f2 = mgr.ONE if w2 == mgr.ONE else (mgr.ZERO if w2 == mgr.ZERO else w2)
            if not mgr.is_terminal(sel_f) and not mgr.is_terminal(f1) and not mgr.is_terminal(f2):
                s = self._rec(sel_f)
                a = self._rec(f1)
                if f2 == mgr.negate(f1):
                    return self._make_gate(nmgr.apply_xnor(self._lit(s), self._lit(a)), [s, a])
                if k >= 3:
                    b = self._rec(f2)
                    return self._make_gate(
                        nmgr.ite(self._lit(s), self._lit(a), self._lit(b)), [s, a, b]
                    )

        # Fallback: Shannon cofactoring at the top variable.
        var = mgr.top_var(f)
        f1 = mgr.cofactor(f, var, True)
        f0 = mgr.cofactor(f, var, False)
        sel = self._leaves[var]
        ops = [sel]
        lits = [self._lit(sel)]
        for g in (f1, f0):
            if g == mgr.ONE:
                lits.append(nmgr.ONE)
            elif g == mgr.ZERO:
                lits.append(nmgr.ZERO)
            else:
                sig = self._rec(g)
                ops.append(sig)
                lits.append(self._lit(sig))
        return self._make_gate(nmgr.ite(lits[0], lits[1], lits[2]), ops)

    def _dominator_candidates(self, f: int):
        """Nonterminal, non-root nodes of ``f`` in level order."""
        lb = LeveledBDD(self.mgr, f)
        for n in lb.nodes:
            if n != f:
                yield n


def decompose_bdd_bds(
    mgr: BDDManager,
    func: int,
    input_delays: Dict[int, int],
    config: Optional[BDSPgaConfig] = None,
    net: Optional[BooleanNetwork] = None,
    leaf_signals: Optional[Dict[int, Tuple[str, bool, int]]] = None,
    prefix: str = "bds",
) -> Tuple[str, bool, int]:
    """Decompose one BDD with BDS-pga's heuristic.

    When ``net`` is omitted a scratch network with one PI per support
    variable is used (the Table II setting: all arrivals from
    ``input_delays``).  Returns ``(signal, negated, mapping depth)``.
    """
    config = config or BDSPgaConfig()
    if net is None:
        net = BooleanNetwork("scratch")
        leaf_signals = {}
        for v in mgr.support_ordered(func):
            pi = net.add_pi(f"x{v}")
            leaf_signals[v] = (pi, False, input_delays.get(v, 0))
    assert leaf_signals is not None
    dec = _BDSDecomposer(mgr, func, config)
    return dec.emit(net, leaf_signals, prefix)


# ----------------------------------------------------------------------
# Full flow
# ----------------------------------------------------------------------
def bdspga_synthesize(
    net: BooleanNetwork, config: Optional[BDSPgaConfig] = None
) -> BDSResult:
    """Run the complete BDS-pga flow on ``net``."""
    config = config or BDSPgaConfig()
    start = time.perf_counter()
    work = net.copy(net.name + "_bdswork")
    sweep(work)
    mffc_collapse(work, config.size_bound)

    mapped = BooleanNetwork(net.name + "_bdspga")
    for pi in net.pis:
        mapped.add_pi(pi)
    resolve: Dict[str, Tuple[str, bool, int]] = {pi: (pi, False, 0) for pi in work.pis}
    external: set = set(work.pis)

    for name in topological_order(work):
        node = work.nodes[name]
        mgr = work.mgr
        if mgr.is_terminal(node.func):
            cname = mapped.fresh_name(f"{name}_const")
            mapped.add_node_function(
                cname, [], mapped.mgr.ONE if node.func == mgr.ONE else mapped.mgr.ZERO
            )
            resolve[name] = (cname, False, 0)
            external.add(cname)
            continue
        leaf_signals = {work.var_of(f): resolve[f] for f in node.fanins}
        input_delays = {v: s[2] for v, s in leaf_signals.items()}
        sig, neg, depth = decompose_bdd_bds(
            mgr, node.func, input_delays, config, mapped, leaf_signals, prefix=name
        )
        if neg and sig in mapped.nodes and sig not in external:
            lut = mapped.nodes[sig]
            lut.func = mapped.mgr.negate(lut.func)
            neg = False
        resolve[name] = (sig, neg, depth)
        external.add(sig)

    for po, driver in work.pos.items():
        sig, neg, depth = resolve[driver]
        if neg:
            inv = mapped.fresh_name(f"{po}_inv")
            mapped.add_node_function(
                inv, [sig], mapped.mgr.negate(mapped.mgr.var(mapped.var_of(sig)))
            )
            sig = inv
        mapped.add_po(po, sig)

    if config.delay_resynthesis:
        delay_resynthesis(mapped, config.k, config.resynthesis_rounds)

    mapped.check()
    return BDSResult(
        network=mapped,
        depth=network_depth(mapped),
        area=len(mapped.nodes),
        runtime_s=time.perf_counter() - start,
    )


def delay_resynthesis(net: BooleanNetwork, k: int, rounds: int = 2) -> int:
    """BDS-pga's delay post-pass: collapse critical LUT pairs whose
    merged support still fits one K-LUT.  Returns merges performed."""
    merges = 0
    for _ in range(max(0, rounds)):
        depths = depth_map(net)
        target = network_depth(net)
        fanouts = net.fanouts()
        changed = False
        for name in topological_order(net):
            node = net.nodes.get(name)
            if node is None or depths.get(name, 0) != target:
                continue
            # Walk down a critical chain from this output-critical node.
            cursor = name
            while True:
                cnode = net.nodes.get(cursor)
                if cnode is None:
                    break
                crit_fanins = [
                    f
                    for f in cnode.fanins
                    if f in net.nodes and depths[f] == depths[cursor] - 1
                ]
                merged_one = False
                for f in crit_fanins:
                    merged = net.merged_function(f, cursor)
                    if len(net.mgr.support(merged)) <= k:
                        net.collapse_into(f, cursor)
                        if len(fanouts.get(f, [])) <= 1 and f not in net.po_drivers():
                            net.remove_node(f)
                        merges += 1
                        changed = True
                        merged_one = True
                        break
                if not merged_one:
                    if not crit_fanins:
                        break
                    cursor = crit_fanins[0]
                else:
                    break
            if changed:
                break
        if not changed:
            break
        remove_dangling(net)
    return merges
