"""Combinational equivalence checking.

The paper verified DDBDD's output against the source circuits with SIS;
our substitute is (a) a global-BDD equivalence check — build each PO's
function over the primary inputs for both networks in one shared manager
and compare node ids — with a node-count guard, and (b) a bit-parallel
random-simulation fallback for networks whose global BDDs blow up.
``check_equivalence`` picks automatically and reports which method ran.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.bdd.manager import BDDManager, NodeLimitExceeded
from repro.bdd.ops import translate
from repro.network.depth import topological_order
from repro.network.netlist import BooleanNetwork, NetworkError
from repro.network.simulate import random_patterns, simulate_outputs


@dataclass
class EquivalenceResult:
    """Outcome of an equivalence check."""

    equivalent: bool
    method: str  # "bdd" or "simulation"
    counterexample: Optional[Dict[str, bool]] = None
    failing_output: Optional[str] = None

    def __bool__(self) -> bool:
        return self.equivalent


def global_functions(
    net: BooleanNetwork, mgr: BDDManager, pi_vars: Dict[str, int]
) -> Dict[str, int]:
    """Global BDD of each PO over the shared PI variables in ``mgr``."""
    values: Dict[str, int] = {pi: mgr.var(pi_vars[pi]) for pi in net.pis}
    for name in topological_order(net):
        node = net.nodes[name]
        by_var = {net.var_of(f): values[f] for f in node.fanins}
        values[name] = translate(net.mgr, node.func, mgr, by_var)
    return {po: values[driver] for po, driver in net.pos.items()}


def check_equivalence(
    net_a: BooleanNetwork,
    net_b: BooleanNetwork,
    node_limit: int = 200_000,
    sim_patterns: int = 4096,
    sim_rounds: int = 8,
    seed: int = 2007,
) -> EquivalenceResult:
    """Check that two networks implement the same PO functions.

    The networks must agree on PI and PO names (order-insensitive).
    Tries the exact global-BDD method first under ``node_limit``; on
    blow-up falls back to ``sim_rounds`` batches of ``sim_patterns``
    random patterns (sound for refutation, probabilistic for
    confirmation — the method field says which ran).
    """
    if set(net_a.pis) != set(net_b.pis):
        raise NetworkError("PI sets differ")
    if set(net_a.pos) != set(net_b.pos):
        raise NetworkError("PO sets differ")

    try:
        mgr = BDDManager(node_limit=node_limit)
        pi_vars = {pi: mgr.add_var(pi) for pi in sorted(net_a.pis)}
        funcs_a = global_functions(net_a, mgr, pi_vars)
        funcs_b = global_functions(net_b, mgr, pi_vars)
        for po in funcs_a:
            if funcs_a[po] != funcs_b[po]:
                diff = mgr.apply_xor(funcs_a[po], funcs_b[po])
                witness_vars = mgr.one_sat(diff) or {}
                names = {v: pi for pi, v in pi_vars.items()}
                cex = {names[v]: val for v, val in witness_vars.items()}
                return EquivalenceResult(False, "bdd", cex, po)
        return EquivalenceResult(True, "bdd")
    except NodeLimitExceeded:
        pass

    for round_idx in range(sim_rounds):
        words = random_patterns(sorted(net_a.pis), sim_patterns, seed=seed + round_idx)
        out_a = simulate_outputs(net_a, words, sim_patterns)
        out_b = simulate_outputs(net_b, words, sim_patterns)
        for po in out_a:
            if out_a[po] != out_b[po]:
                diff = out_a[po] ^ out_b[po]
                bit = (diff & -diff).bit_length() - 1
                cex = {pi: bool((words[pi] >> bit) & 1) for pi in net_a.pis}
                return EquivalenceResult(False, "simulation", cex, po)
    return EquivalenceResult(True, "simulation")
