"""And-Inverter Graph with structural hashing.

Edges are *literals*: ``2*node + complement``.  Node 0 is the constant
FALSE node, so literal 0 is constant false and literal 1 constant true.
Primary inputs are nodes with no fanins; every other node is a 2-input
AND.  Structural hashing plus the one-level simplifications
(``a·a = a``, ``a·¬a = 0``, constant absorption) keep the graph
canonical enough for the mapper baselines.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

FALSE_LIT = 0
TRUE_LIT = 1


def lit(node: int, compl: bool = False) -> int:
    """Build a literal from a node id and a complement flag."""
    return node * 2 + (1 if compl else 0)


def lit_var(literal: int) -> int:
    """Node id of a literal."""
    return literal >> 1


def lit_compl(literal: int) -> bool:
    """Complement flag of a literal."""
    return bool(literal & 1)


def lit_not(literal: int) -> int:
    """Negate a literal."""
    return literal ^ 1


class AIG:
    """A combinational AIG.

    ``fanin0``/``fanin1`` are literal arrays indexed by node id (0 for
    the constant node and PIs).  ``pis`` lists PI node ids in order;
    ``pos`` maps output names to literals.
    """

    def __init__(self, name: str = "aig") -> None:
        self.name = name
        self.fanin0: List[int] = [0]  # node 0: constant false
        self.fanin1: List[int] = [0]
        self.pis: List[int] = []
        self.pi_names: List[str] = []
        self.pos: Dict[str, int] = {}
        self._strash: Dict[Tuple[int, int], int] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_pi(self, name: str) -> int:
        """Add a primary input; returns its (positive) literal."""
        node = len(self.fanin0)
        self.fanin0.append(0)
        self.fanin1.append(0)
        self.pis.append(node)
        self.pi_names.append(name)
        return lit(node)

    def add_po(self, name: str, literal: int) -> None:
        self.pos[name] = literal

    def and2(self, a: int, b: int) -> int:
        """Hashed AND of two literals, with local simplification."""
        if a > b:
            a, b = b, a
        if a == FALSE_LIT:
            return FALSE_LIT
        if a == TRUE_LIT:
            return b
        if a == b:
            return a
        if a == lit_not(b):
            return FALSE_LIT
        key = (a, b)
        node = self._strash.get(key)
        if node is None:
            node = len(self.fanin0)
            self.fanin0.append(a)
            self.fanin1.append(b)
            self._strash[key] = node
        return lit(node)

    def or2(self, a: int, b: int) -> int:
        return lit_not(self.and2(lit_not(a), lit_not(b)))

    def xor2(self, a: int, b: int) -> int:
        return self.or2(self.and2(a, lit_not(b)), self.and2(lit_not(a), b))

    def mux(self, s: int, t: int, e: int) -> int:
        return self.or2(self.and2(s, t), self.and2(lit_not(s), e))

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        """Total nodes including constant and PIs."""
        return len(self.fanin0)

    @property
    def _pi_set(self):
        cached = getattr(self, "_pi_set_cache", None)
        if cached is None or len(cached) != len(self.pis):
            cached = set(self.pis)
            self._pi_set_cache = cached
        return cached

    def is_and(self, node: int) -> bool:
        return node != 0 and node not in self._pi_set

    def num_ands(self) -> int:
        return self.num_nodes - 1 - len(self.pis)

    def levels(self) -> List[int]:
        """Logic level of every node (PIs and constant at 0).

        Nodes are created in topological order, so one array pass does
        it.
        """
        level = [0] * self.num_nodes
        pi_set = self._pi_set
        for node in range(1, self.num_nodes):
            if node in pi_set:
                continue
            a = lit_var(self.fanin0[node])
            b = lit_var(self.fanin1[node])
            level[node] = 1 + max(level[a], level[b])
        return level

    def depth(self) -> int:
        """Maximum level over PO literals."""
        level = self.levels()
        return max((level[lit_var(l)] for l in self.pos.values()), default=0)

    def fanout_counts(self) -> List[int]:
        counts = [0] * self.num_nodes
        pi_set = self._pi_set
        for node in range(1, self.num_nodes):
            if node in pi_set:
                continue
            counts[lit_var(self.fanin0[node])] += 1
            counts[lit_var(self.fanin1[node])] += 1
        for literal in self.pos.values():
            counts[lit_var(literal)] += 1
        return counts

    def reachable_from_pos(self) -> List[bool]:
        """Mark nodes in the transitive fanin of some PO."""
        mark = [False] * self.num_nodes
        stack = [lit_var(l) for l in self.pos.values()]
        pi_set = self._pi_set
        while stack:
            node = stack.pop()
            if mark[node]:
                continue
            mark[node] = True
            if node != 0 and node not in pi_set:
                stack.append(lit_var(self.fanin0[node]))
                stack.append(lit_var(self.fanin1[node]))
        return mark

    def topological_ands(self) -> Iterable[int]:
        """AND node ids in topological (creation) order."""
        pi_set = self._pi_set
        for node in range(1, self.num_nodes):
            if node not in pi_set:
                yield node
