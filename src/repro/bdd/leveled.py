"""Level-annotated structural view of one BDD (Definitions 1–7).

The DDBDD dynamic program reasons about a single supernode BDD in purely
structural terms: variable levels, node levels, cuts, cut sets
``CS(u, l)`` and sub-BDDs ``Bs(u, l, v)``.  :class:`LeveledBDD` wraps one
manager function and provides exactly those notions.

Levels
------
The paper's Definition 1 assigns each variable the longest-path level at
which it appears.  We use the (finer) *support index*: the position of
the variable within the ordered support of the function.  Every cut that
exists under Definition 1 also exists under support indexing, so the
dynamic program searches a superset of the paper's cuts and can only do
better; at the same time each variable gets a unique level, which is what
Algorithm 4's cut-set recurrence implicitly assumes.  Terminal nodes sit
at level ``depth`` (Definition 2).

Nodes are referred to by their *manager* handles; terminals are the
manager's ``ZERO``/``ONE``.  The manager stores nodes with complement
edges, but this view never sees them: every child access resolves the
complement bit (the cofactor view), so the structure walked here is the
plain BDD of the function, exactly as an explicit-polarity store would
expose it.  Deterministic tie-breaks sort by raw handle value, i.e.
(store row, complement) order — store rows are created in a
function-determined order, so this is as stable across runs as the old
node-id order was.

Performance
-----------
This class sits inside the DP's innermost loops, so the structural
queries are engineered for throughput:

* ``node_level`` maps every reachable node (terminals included) to its
  level once, at construction — no per-query variable lookups.
* Cut sets are grown *incrementally, level by level* per node via the
  Algorithm-4 recurrence: ``CS(u, l)`` is derived from the stored
  ``CS(u, l - 1)`` in one pass, and every level computed is kept, so no
  query ever recomputes a shallower cut.
* ``bs_function`` builds sub-BDD functions directly through the
  manager's find-or-create (:meth:`~repro.bdd.manager.BDDManager
  .make_node`) instead of per-node ``ite`` calls — the walk preserves
  the variable order, so the generic 3-operand recursion is pure
  overhead.
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, List, Optional, Tuple

from repro.bdd.manager import BDDManager


class LeveledBDD:
    """Structural view of the function ``root`` inside ``mgr``.

    Attributes
    ----------
    depth:
        Number of support variables (``n`` in the paper; the BDD depth).
    support:
        Variable id at each level, top first.
    nodes:
        All nonterminal node ids reachable from the root, in
        deterministic (increasing level, then id) order.
    node_level:
        Level of every reachable node (terminals at ``depth``).
    """

    def __init__(self, mgr: BDDManager, root: int) -> None:
        self.mgr = mgr
        self.root = root
        self.support: List[int] = mgr.support_ordered(root)
        self.depth: int = len(self.support)
        self._level_of_var: Dict[int, int] = {v: i for i, v in enumerate(self.support)}
        level_of_var = self._level_of_var
        top_var = mgr.top_var
        self.node_level: Dict[int, int] = {0: self.depth, 1: self.depth}
        for n in mgr.reachable(root):
            if n > 1:
                self.node_level[n] = level_of_var[top_var(n)]
        self.nodes: List[int] = sorted(
            (n for n in self.node_level if n > 1),
            key=lambda n: (self.node_level[n], n),
        )
        # Cut sets per node, grown level-by-level (Algorithm 4):
        # _cs[u][l] / _cs_sets[u][l] hold CS(u, l) for every l computed
        # so far; _cs[u] extends on demand, never recomputes.
        self._cs: Dict[int, List[Tuple[int, ...]]] = {}
        self._cs_sets: Dict[int, List[FrozenSet[int]]] = {}
        # Sub-BDD function memo, one row per (absolute cut, one-node v):
        # row[w] is the function of Bs(w, cut_abs - level(w), v).  Rows
        # are shared by *all* bs_function walks at that cut, so distinct
        # (u, l, v) queries reuse each other's sub-results.
        self._bs_cache: Dict[Tuple[int, int], Dict[int, int]] = {}
        # Prepared linear-expansion rows per (u, l, j), shared across
        # every terminal-1 choice v (see repro.core.linear).
        self._gate_rows: Dict[
            Tuple[int, int, int],
            List[Tuple[int, int, Optional[FrozenSet[int]]]],
        ] = {}

    # ------------------------------------------------------------------
    # Levels (Definitions 1 and 2)
    # ------------------------------------------------------------------
    def var_level(self, v: int) -> int:
        """Level of a support variable."""
        return self._level_of_var[v]

    def level(self, node: int) -> int:
        """Level of a node; terminals are at level ``depth``."""
        return self.node_level[node]

    def is_terminal(self, node: int) -> bool:
        return node <= 1

    def var_of(self, node: int) -> int:
        """``V(u)``: the variable tested at ``node``."""
        return self.mgr.top_var(node)

    def t_child(self, node: int) -> int:
        """``T(u)``: the 1-edge child."""
        return self.mgr.hi(node)

    def e_child(self, node: int) -> int:
        """``E(u)``: the 0-edge child."""
        return self.mgr.lo(node)

    @property
    def size(self) -> int:
        """Nonterminal node count."""
        return len(self.nodes)

    # ------------------------------------------------------------------
    # Cut sets (Definitions 3, 4, 6; Algorithm 4)
    # ------------------------------------------------------------------
    def cut_set(self, u: int, l: int) -> Tuple[int, ...]:
        """``CS(u, l)``: cut set of sub-BDD(u) at relative level ``l``.

        Computed by the incremental recurrence of Algorithm 4:
        ``CS(u, 0) = {T(u), E(u)}``; for ``l > 0`` every node of
        ``CS(u, l-1)`` whose level exceeds ``level(u) + l`` is kept, and
        every other node is replaced by its two children.  All levels up
        to ``l`` are materialized once per node and kept.

        The result is returned as a deterministic tuple sorted by
        ``(level, node id)``.  ``l`` must satisfy
        ``0 <= l <= depth - 1 - level(u)``.
        """
        rows = self._cs.get(u)
        if rows is not None and l < len(rows):
            return rows[l]
        return self._extend_cut_sets(u, l)

    def _extend_cut_sets(self, u: int, l: int) -> Tuple[int, ...]:
        """Grow the stored cut sets of ``u`` up to level ``l``."""
        mgr = self.mgr
        lo_a = mgr._lo
        hi_a = mgr._hi
        node_level = self.node_level
        rows = self._cs.get(u)
        if rows is None:
            up = u & 1
            ui = u >> 1
            members = {hi_a[ui] ^ up, lo_a[ui] ^ up}
            first = tuple(sorted(members, key=lambda n: (node_level[n], n)))
            rows = self._cs[u] = [first]
            self._cs_sets[u] = [frozenset(first)]
        sets = self._cs_sets[u]
        base = node_level[u]
        while len(rows) <= l:
            cut_abs = base + len(rows)
            members = set()
            add = members.add
            for w in rows[-1]:
                if node_level[w] > cut_abs:
                    add(w)
                else:
                    p = w & 1
                    i = w >> 1
                    add(hi_a[i] ^ p)
                    add(lo_a[i] ^ p)
            row = tuple(sorted(members, key=lambda n: (node_level[n], n)))
            rows.append(row)
            sets.append(frozenset(row))
        return rows[l]

    def cut_set_contains(self, u: int, l: int, v: int) -> bool:
        """Membership test ``v ∈ CS(u, l)`` (cached)."""
        sets = self._cs_sets.get(u)
        if sets is None or l >= len(sets):
            self._extend_cut_sets(u, l)
            sets = self._cs_sets[u]
        return v in sets[l]

    def max_cut_level(self, u: int) -> int:
        """Largest legal relative cut level of sub-BDD(u):
        ``depth - level(u) - 1``."""
        return self.depth - self.node_level[u] - 1

    # ------------------------------------------------------------------
    # Sub-BDD functions (Definitions 5 and 7)
    # ------------------------------------------------------------------
    def bs_function(self, u: int, l: int, v: int) -> int:
        """The Boolean function of ``Bs(u, l, v)`` as a manager BDD.

        ``Bs(u, l, v)`` keeps the structure of sub-BDD(u) above the cut
        at relative level ``l`` and maps the cut-set node ``v`` to
        terminal 1 and every other cut-set node to terminal 0.  The
        returned function is expressed over the original variables.
        """
        node_level = self.node_level
        cut_abs = node_level[u] + l
        row = self._bs_cache.get((cut_abs, v))
        if row is None:
            row = self._bs_cache[(cut_abs, v)] = {}
        hit = row.get(u)
        if hit is not None:
            return hit
        # The root itself must lie on or above the cut.
        if node_level[u] > cut_abs:
            raise ValueError("root below its own cut")
        mgr = self.mgr
        return _bs_walk(u, cut_abs, v, node_level, row, mgr._mk, mgr._var, mgr._lo, mgr._hi)

    def function(self) -> int:
        """The full function, equal to ``Bs(root, depth-1, ONE)``."""
        return self.root

    def sub_bdd_nodes(self, u: int) -> List[int]:
        """Nonterminal nodes of sub-BDD(u) (Definition 5)."""
        seen = set()
        stack = [u]
        while stack:
            w = stack.pop()
            if w <= 1 or w in seen:
                continue
            seen.add(w)
            stack.append(self.t_child(w))
            stack.append(self.e_child(w))
        return sorted(seen, key=lambda n: (self.node_level[n], n))


def _bs_walk(
    w: int, cut_abs: int, v: int, node_level: Dict[int, int], row: Dict[int, int],
    mk: Callable[[int, int, int], int], var_a: List[int], lo_a: List[int], hi_a: List[int],
) -> int:
    """The walk of :meth:`LeveledBDD.bs_function` below ``w``, filling
    ``row`` (hi before lo).  A module-level function: a nested one that
    calls itself would be a reference cycle left for the collector."""
    if node_level[w] > cut_abs:
        return 1 if w == v else 0
    got = row.get(w)
    if got is not None:
        return got
    # The walk preserves the order (children sit at deeper levels), so
    # find-or-create replaces the generic ite.
    p = w & 1
    i = w >> 1
    t = _bs_walk(hi_a[i] ^ p, cut_abs, v, node_level, row, mk, var_a, lo_a, hi_a)
    e = _bs_walk(lo_a[i] ^ p, cut_abs, v, node_level, row, mk, var_a, lo_a, hi_a)
    result = mk(var_a[i], e, t)
    row[w] = result
    return result
