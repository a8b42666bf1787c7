"""Algebraic AIG balancing (the ABC ``balance`` analog).

Each maximal multi-input conjunction — an AND cone grown through
non-complemented, single-fanout AND edges — is rebuilt as a
level-driven Huffman tree: combine the two shallowest conjuncts first.
This minimizes the depth of every AND tree without duplicating shared
logic, which is what gives the ABC baseline its depth advantage over
the plain SIS decomposition.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Sequence, Tuple

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
    for po, literal in aig.pos.items():
        if lit_var(literal) == 0:
            new.add_po(po, literal)
        else:
            new.add_po(po, _build(aig, fanouts, new, node_map, level, literal))
    return new


def _collect(
    aig: AIG, fanouts: Sequence[int], literal: int, acc: List[int], root: bool
) -> None:
    """Append the conjuncts of the AND cone at ``literal`` to ``acc``."""
    node = lit_var(literal)
    expandable = (
        aig.is_and(node)
        and not lit_compl(literal)
        and (root or fanouts[node] == 1)
    )
    if expandable:
        _collect(aig, fanouts, aig.fanin0[node], acc, False)
        _collect(aig, fanouts, aig.fanin1[node], acc, False)
    else:
        acc.append(literal)


def _build(
    aig: AIG,
    fanouts: Sequence[int],
    new: AIG,
    node_map: Dict[int, int],
    level: Dict[int, int],
    literal: int,
) -> int:
    """The literal of ``new`` that computes ``aig``'s ``literal``, its
    AND cones rebuilt shallowest-conjuncts-first."""
    node = lit_var(literal)
    mapped = node_map.get(node)
    if mapped is None:
        leaves: List[int] = []
        _collect(aig, fanouts, lit(node), leaves, root=True)
        heap: List[Tuple[int, int, int]] = []
        for idx, leaf in enumerate(leaves):
            new_leaf = _build(aig, fanouts, new, node_map, level, leaf)
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
