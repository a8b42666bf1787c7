"""Algebraic AIG balancing (the ABC ``balance`` analog).

Each maximal multi-input conjunction — an AND cone grown through
non-complemented, single-fanout AND edges — is rebuilt as a
level-driven Huffman tree: combine the two shallowest conjuncts first.
This minimizes the depth of every AND tree without duplicating shared
logic, which is what gives the ABC baseline its depth advantage over
the plain SIS decomposition.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.aig.aig import AIG, lit, lit_compl, lit_var
from repro.utils import recursion_headroom


def balance(aig: AIG) -> AIG:
    """Return a balanced copy of ``aig`` (same PI/PO names)."""
    with recursion_headroom(100_000):
        return _balance(aig)


def _balance(aig: AIG) -> AIG:
    new = AIG(aig.name)
    node_map: Dict[int, int] = {0: 0}  # old node -> new positive literal
    level: Dict[int, int] = {0: 0}  # new node -> level
    for name in aig.pi_names:
        l = new.add_pi(name)
        level[lit_var(l)] = 0
    for old_node, new_lit in zip(aig.pis, (lit(n) for n in new.pis)):
        node_map[old_node] = new_lit

    fanouts = aig.fanout_counts()

    def collect(literal: int, acc: List[int], root: bool) -> None:
        node = lit_var(literal)
        expandable = (
            aig.is_and(node)
            and not lit_compl(literal)
            and (root or fanouts[node] == 1)
        )
        if expandable:
            collect(aig.fanin0[node], acc, False)
            collect(aig.fanin1[node], acc, False)
        else:
            acc.append(literal)

    import heapq

    def build(literal: int) -> int:
        node = lit_var(literal)
        mapped = node_map.get(node)
        if mapped is None:
            leaves: List[int] = []
            collect(lit(node), leaves, root=True)
            heap: List[Tuple[int, int, int]] = []
            for idx, leaf in enumerate(leaves):
                new_leaf = build(leaf)
                heapq.heappush(heap, (level[lit_var(new_leaf)], idx, new_leaf))
            counter = len(heap)
            while len(heap) > 1:
                l1, _, a = heapq.heappop(heap)
                l2, _, b = heapq.heappop(heap)
                combined = new.and2(a, b)
                lv = level.get(lit_var(combined))
                if lv is None:
                    lv = max(l1, l2) + 1
                    level[lit_var(combined)] = lv
                counter += 1
                heapq.heappush(heap, (lv, counter, combined))
            mapped = heap[0][2]
            level.setdefault(lit_var(mapped), heap[0][0])
            node_map[node] = mapped
        return mapped ^ (literal & 1)

    for po, literal in aig.pos.items():
        if lit_var(literal) == 0:
            new.add_po(po, literal)
        else:
            new.add_po(po, build(literal))
    return new
