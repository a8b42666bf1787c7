"""Bit-parallel functional simulation.

Signals are simulated as arbitrary-width Python integers: bit ``i`` of a
signal word is its value under input pattern ``i``.  Node functions are
BDDs, so a node is evaluated by a single memoized walk of its local BDD
with word-level muxing — ``(w & hi) | (~w & lo)`` — which makes whole
test-vector batches cost one traversal per node.
"""

from __future__ import annotations

import random
from typing import Dict, Sequence

from repro.bdd.manager import BDDManager
from repro.network.depth import topological_order
from repro.network.netlist import BooleanNetwork


def eval_bdd_words(mgr: BDDManager, func: int, words: Dict[int, int], mask: int) -> int:
    """Evaluate ``func`` bit-parallel: ``words`` maps variable → word."""
    return _eval_words(mgr, func, words, mask, {})


def _eval_words(mgr: BDDManager, node: int, words: Dict[int, int], mask: int, memo: Dict[int, int]) -> int:
    if node == mgr.ZERO:
        return 0
    if node == mgr.ONE:
        return mask
    got = memo.get(node)
    if got is not None:
        return got
    var, lo, hi = mgr.node(node)
    w = words[var]
    result = (w & _eval_words(mgr, hi, words, mask, memo)) | (
        ~w & _eval_words(mgr, lo, words, mask, memo) & mask
    )
    memo[node] = result
    return result


def simulate(net: BooleanNetwork, pi_words: Dict[str, int], num_patterns: int) -> Dict[str, int]:
    """Simulate ``num_patterns`` input patterns at once.

    ``pi_words[pi]`` holds one bit per pattern.  Returns a word per
    signal (internal nodes and PIs), plus PO aliases.
    """
    mask = (1 << num_patterns) - 1
    values: Dict[str, int] = {pi: pi_words[pi] & mask for pi in net.pis}
    for name in topological_order(net):
        node = net.nodes[name]
        words = {net.var_of(f): values[f] for f in node.fanins}
        values[name] = eval_bdd_words(net.mgr, node.func, words, mask)
    for po, driver in net.pos.items():
        values.setdefault(po, values[driver])
    return values


def random_patterns(
    pis: Sequence[str], num_patterns: int, seed: int = 0
) -> Dict[str, int]:
    """Uniformly random pattern words for each primary input."""
    rng = random.Random(seed)
    return {pi: rng.getrandbits(num_patterns) for pi in pis}


def exhaustive_patterns(pis: Sequence[str]) -> Dict[str, int]:
    """All ``2**len(pis)`` input patterns (use only for small PI counts)."""
    n = len(pis)
    if n > 20:
        raise ValueError("exhaustive simulation limited to 20 inputs")
    words: Dict[str, int] = {}
    total = 1 << n
    for k, pi in enumerate(pis):
        # Periodic word: 2**k zeros then 2**k ones, repeated.
        block = ((1 << (1 << k)) - 1) << (1 << k)
        word = 0
        for j in range(total >> (k + 1)):
            word |= block << (j << (k + 1))
        words[pi] = word
    return words


def simulate_outputs(
    net: BooleanNetwork, pi_words: Dict[str, int], num_patterns: int
) -> Dict[str, int]:
    """Like :func:`simulate` but returns only PO words."""
    values = simulate(net, pi_words, num_patterns)
    return {po: values[net.pos[po]] for po in net.pos}
