"""Boolean network → AIG conversion (the ``tech_decomp``/``dmig`` analog).

Each network node's local function is turned into a factored two-input
form: the Minato–Morreale ISOP gives cubes; each cube becomes an AND
tree and the cube disjunction an OR tree.  Tree construction is
Huffman-style over *arrival levels* when ``timing_driven`` (the
``dmig -k 2`` analog: combine the two earliest-arriving operands first)
or over operand order when not (plain ``tech_decomp``).

XOR-intensive functions deliberately pay the SOP price here — that is
precisely the structural weakness of SOP-based decomposition that
BDS/DDBDD exploit, and our baselines must inherit it to reproduce the
paper's comparisons.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Tuple

from repro.aig.aig import AIG, TRUE_LIT, FALSE_LIT, lit_not
from repro.bdd.isop import isop
from repro.network.depth import topological_order
from repro.network.netlist import BooleanNetwork


def _tree(aig: AIG, op, literals: List[Tuple[int, int]], timing_driven: bool) -> Tuple[int, int]:
    """Combine ``(level, literal)`` pairs with the binary ``op``.

    Huffman over levels when timing-driven, left-to-right fold
    otherwise.  Returns the final ``(level, literal)``.
    """
    if not literals:
        raise ValueError("empty operand list")
    if timing_driven:
        heap = [(lvl, idx, l) for idx, (lvl, l) in enumerate(literals)]
        heapq.heapify(heap)
        counter = len(heap)
        while len(heap) > 1:
            l1, _, a = heapq.heappop(heap)
            l2, _, b = heapq.heappop(heap)
            combined = op(a, b)
            counter += 1
            heapq.heappush(heap, (max(l1, l2) + 1, counter, combined))
        lvl, _, result = heap[0]
        return lvl, result
    lvl, result = literals[0]
    for l2, b in literals[1:]:
        result = op(result, b)
        lvl = max(lvl, l2) + 1
    return lvl, result


def network_to_aig(net: BooleanNetwork, timing_driven: bool = True) -> AIG:
    """Convert ``net`` to an AIG via per-node ISOP factoring."""
    aig = AIG(net.name)
    lit_of: Dict[str, int] = {}
    level_of: Dict[str, int] = {}
    for pi in net.pis:
        lit_of[pi] = aig.add_pi(pi)
        level_of[pi] = 0

    for name in topological_order(net):
        node = net.nodes[name]
        mgr = net.mgr
        func = node.func
        if func == mgr.ZERO:
            lit_of[name] = FALSE_LIT
            level_of[name] = 0
            continue
        if func == mgr.ONE:
            lit_of[name] = TRUE_LIT
            level_of[name] = 0
            continue
        var_to_sig = {net.var_of(f): f for f in node.fanins}
        cube_terms: List[Tuple[int, int]] = []
        for cube in isop(mgr, func):
            cube_lits: List[Tuple[int, int]] = []
            for v, positive in cube.items():
                sig = var_to_sig[v]
                l = lit_of[sig]
                cube_lits.append((level_of[sig], l if positive else lit_not(l)))
            if not cube_lits:
                cube_terms.append((0, TRUE_LIT))
            else:
                cube_terms.append(_tree(aig, aig.and2, cube_lits, timing_driven))
        level_of[name], lit_of[name] = (
            cube_terms[0]
            if len(cube_terms) == 1
            else _tree(aig, aig.or2, cube_terms, timing_driven)
        )

    for po, driver in net.pos.items():
        aig.add_po(po, lit_of[driver])
    return aig
