"""The Boolean network data structure.

A :class:`BooleanNetwork` is a DAG of named signals.  A signal is either
a primary input or the output of an internal node; primary outputs are
name → driver-signal bindings.  Every internal node carries its local
function as a BDD over the *signal variables* of its fanins: the network
owns one :class:`~repro.bdd.manager.BDDManager` with one variable per
signal, so collapsing a fanin into a fanout is a single ``compose`` —
exactly the ``mergeBDD`` operation of the paper's Algorithm 2.

Gate-style constructors (:meth:`BooleanNetwork.add_gate`) cover the
primitive ops used by the generators and decomposers; arbitrary
functions enter through :meth:`add_node_from_cover` (BLIF) or
:meth:`add_node_function` (an explicit BDD).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set

from repro.bdd.manager import BDDManager

_GATE_OPS = {
    "and",
    "or",
    "nand",
    "nor",
    "xor",
    "xnor",
    "not",
    "buf",
    "mux",  # fanins (s, a, b): s ? a : b
    "maj",  # majority of 3
    "const0",
    "const1",
}


class NetworkError(Exception):
    """Structural error in a Boolean network."""


class Node:
    """One internal node: a named signal computed from fanin signals.

    ``func`` is a BDD (in the owning network's manager) over the signal
    variables of ``fanins``.  ``fanins`` is kept in sync with the true
    support of ``func``: constructors prune fanins the function does not
    depend on.
    """

    __slots__ = ("name", "fanins", "func")

    def __init__(self, name: str, fanins: List[str], func: int) -> None:
        self.name = name
        self.fanins = fanins
        self.func = func

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Node {self.name} <- {self.fanins}>"


class BooleanNetwork:
    """A combinational Boolean network.

    Attributes
    ----------
    mgr:
        The shared BDD manager; one variable per signal.
    pis:
        Primary input names, in declaration order.
    pos:
        Primary output bindings ``po_name -> driver signal``.
    nodes:
        Internal nodes by name.
    """

    def __init__(self, name: str = "top") -> None:
        self.name = name
        self.mgr = BDDManager()
        self.pis: List[str] = []
        self.pos: Dict[str, str] = {}
        self.nodes: Dict[str, Node] = {}
        self._var_of: Dict[str, int] = {}

    # ------------------------------------------------------------------
    # Signals
    # ------------------------------------------------------------------
    def var_of(self, signal: str) -> int:
        """Manager variable standing for ``signal`` (created on demand)."""
        v = self._var_of.get(signal)
        if v is None:
            v = self.mgr.add_var(signal)
            self._var_of[signal] = v
        return v

    @property
    def _pi_set(self) -> Set[str]:
        return set(self.pis)

    def signals(self) -> List[str]:
        """All defined signals: PIs then internal nodes."""
        return self.pis + list(self.nodes)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_pi(self, name: str) -> str:
        if name in self.nodes or name in self.pis:
            raise NetworkError(f"signal {name!r} already defined")
        self.pis.append(name)
        self.var_of(name)
        return name

    def add_po(self, po_name: str, driver: Optional[str] = None) -> None:
        """Bind primary output ``po_name`` to ``driver`` (default itself)."""
        self.pos[po_name] = driver if driver is not None else po_name

    def add_node_function(self, name: str, fanins: Sequence[str], func: int) -> str:
        """Add a node whose local function is the BDD ``func`` over the
        signal variables of ``fanins``.  Unused fanins are pruned."""
        if name in self.nodes or name in self.pis:
            raise NetworkError(f"signal {name!r} already defined")
        support = self.mgr.support(func)
        used = [f for f in fanins if self.var_of(f) in support]
        if len(set(used)) != len(used):
            raise NetworkError(f"node {name!r} has duplicate fanins")
        self.nodes[name] = Node(name, used, func)
        self.var_of(name)
        return name

    def add_gate(self, name: str, op: str, fanins: Sequence[str]) -> str:
        """Add a primitive gate node (see ``_GATE_OPS``)."""
        if op not in _GATE_OPS:
            raise NetworkError(f"unknown gate op {op!r}")
        mgr = self.mgr
        vs = [mgr.var(self.var_of(f)) for f in fanins]
        if op == "const0":
            func = mgr.ZERO
        elif op == "const1":
            func = mgr.ONE
        elif op == "not":
            (a,) = vs
            func = mgr.negate(a)
        elif op == "buf":
            (a,) = vs
            func = a
        elif op == "and":
            func = mgr.apply_many("and", vs)
        elif op == "nand":
            func = mgr.negate(mgr.apply_many("and", vs))
        elif op == "or":
            func = mgr.apply_many("or", vs)
        elif op == "nor":
            func = mgr.negate(mgr.apply_many("or", vs))
        elif op == "xor":
            func = mgr.apply_many("xor", vs)
        elif op == "xnor":
            func = mgr.negate(mgr.apply_many("xor", vs))
        elif op == "mux":
            s, a, b = vs
            func = mgr.ite(s, a, b)
        elif op == "maj":
            a, b, c = vs
            func = mgr.apply_or(
                mgr.apply_or(mgr.apply_and(a, b), mgr.apply_and(a, c)), mgr.apply_and(b, c)
            )
        else:  # pragma: no cover - exhaustive above
            raise NetworkError(op)
        return self.add_node_function(name, list(fanins), func)

    def add_node_from_cover(
        self,
        name: str,
        fanins: Sequence[str],
        cubes: Sequence[str],
        output_value: str = "1",
    ) -> str:
        """Add a node from a BLIF-style cover.

        ``cubes`` are strings over ``{'0','1','-'}``, one character per
        fanin.  If ``output_value`` is ``"1"`` the function is the OR of
        the cubes; if ``"0"`` it is the complement of that OR.
        """
        mgr = self.mgr
        func = mgr.ZERO
        for cube in cubes:
            if len(cube) != len(fanins):
                raise NetworkError(f"cube {cube!r} length mismatch for node {name!r}")
            term = mgr.ONE
            for ch, fanin in zip(cube, fanins):
                if ch == "1":
                    term = mgr.apply_and(term, mgr.var(self.var_of(fanin)))
                elif ch == "0":
                    term = mgr.apply_and(term, mgr.nvar(self.var_of(fanin)))
                elif ch != "-":
                    raise NetworkError(f"bad cube character {ch!r} in node {name!r}")
            func = mgr.apply_or(func, term)
        if not cubes:
            func = mgr.ZERO
        if output_value == "0":
            func = mgr.negate(func)
        elif output_value != "1":
            raise NetworkError(f"bad cover output value {output_value!r}")
        return self.add_node_function(name, list(fanins), func)

    def fresh_name(self, prefix: str = "n") -> str:
        """A signal name not yet used in the network."""
        i = len(self.nodes)
        while True:
            candidate = f"{prefix}{i}"
            if candidate not in self.nodes and candidate not in self.pis:
                return candidate
            i += 1

    # ------------------------------------------------------------------
    # Structure queries
    # ------------------------------------------------------------------
    def fanouts(self) -> Dict[str, List[str]]:
        """Map signal → list of node names using it as a fanin."""
        result: Dict[str, List[str]] = {s: [] for s in self.pis}
        for n in self.nodes:
            result.setdefault(n, [])
        for node in self.nodes.values():
            for f in node.fanins:
                result.setdefault(f, []).append(node.name)
        return result

    def po_drivers(self) -> Set[str]:
        return set(self.pos.values())

    def num_nodes(self) -> int:
        return len(self.nodes)

    def max_fanin(self) -> int:
        return max((len(n.fanins) for n in self.nodes.values()), default=0)

    def check(self) -> None:
        """Validate structure: name-space integrity (no PI/node
        collisions, no duplicate PIs), defined fanins, acyclicity, and
        PO drivers that still exist (rejects POs left bound to
        swept-away signals)."""
        if len(set(self.pis)) != len(self.pis):
            seen: Set[str] = set()
            for pi in self.pis:
                if pi in seen:
                    raise NetworkError(f"primary input {pi!r} declared twice")
                seen.add(pi)
        collisions = self._pi_set & set(self.nodes)
        if collisions:
            name = sorted(collisions)[0]
            raise NetworkError(f"signal {name!r} is both a PI and an internal node")
        defined = set(self.pis) | set(self.nodes)
        for node in self.nodes.values():
            for f in node.fanins:
                if f not in defined:
                    raise NetworkError(f"node {node.name!r} uses undefined signal {f!r}")
        for po, driver in self.pos.items():
            if driver not in defined:
                raise NetworkError(
                    f"PO {po!r} bound to undefined or swept-away signal {driver!r}"
                )
        # Acyclicity via the topological sort (raises on cycles).
        from repro.network.depth import topological_order

        topological_order(self)

    # ------------------------------------------------------------------
    # Editing
    # ------------------------------------------------------------------
    def collapse_into(self, in_name: str, out_name: str) -> None:
        """Merge node ``in_name`` into node ``out_name`` (paper's
        ``mergeBDD``): substitute ``in``'s function for its variable in
        ``out``'s function and rewire fanins accordingly.  ``in`` itself
        is left in the network (the caller removes it when it loses its
        last fanout)."""
        in_node = self.nodes[in_name]
        out_node = self.nodes[out_name]
        if in_name not in out_node.fanins:
            raise NetworkError(f"{in_name!r} is not a fanin of {out_name!r}")
        merged = self.mgr.compose(out_node.func, self._var_of[in_name], in_node.func)
        support = self.mgr.support(merged)
        new_fanins: List[str] = [f for f in out_node.fanins if f != in_name]
        for f in in_node.fanins:
            if f not in new_fanins:
                new_fanins.append(f)
        out_node.fanins = [f for f in new_fanins if self._var_of.get(f) in support]
        out_node.func = merged

    def merged_function(
        self, in_name: str, out_name: str, max_new_rows: Optional[int] = None
    ) -> Optional[int]:
        """The BDD that :meth:`collapse_into` would give ``out_name``
        (non-mutating; used by the ``mergable`` test of Algorithm 2).
        ``max_new_rows`` is :meth:`~repro.bdd.manager.BDDManager.compose`'s
        row budget: ``None`` comes back once the merge would create more
        store rows than that, which proves its BDD has more nodes."""
        in_node = self.nodes[in_name]
        out_node = self.nodes[out_name]
        return self.mgr.compose(
            out_node.func, self._var_of[in_name], in_node.func, max_new_rows
        )

    def remove_node(self, name: str) -> None:
        """Delete an internal node.  The caller must ensure it is unused."""
        del self.nodes[name]

    def replace_fanin(self, node_name: str, old: str, new: str, negate: bool = False) -> None:
        """Rewire ``node_name`` to read ``new`` (optionally complemented)
        wherever it read ``old``."""
        node = self.nodes[node_name]
        g = self.mgr.var(self.var_of(new))
        if negate:
            g = self.mgr.negate(g)
        node.func = self.mgr.compose(node.func, self._var_of[old], g)
        support = self.mgr.support(node.func)
        fanins = [f for f in node.fanins if f != old]
        if new not in fanins:
            fanins.append(new)
        node.fanins = [f for f in fanins if self._var_of.get(f) in support]

    def copy(self, name: Optional[str] = None) -> "BooleanNetwork":
        """Structural copy sharing the (immutable-node) BDD manager."""
        dup = BooleanNetwork(name or self.name)
        dup.mgr = self.mgr
        dup.pis = list(self.pis)
        dup.pos = dict(self.pos)
        dup._var_of = dict(self._var_of)
        dup.nodes = {n.name: Node(n.name, list(n.fanins), n.func) for n in self.nodes.values()}
        return dup

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, int]:
        from repro.network.depth import network_depth

        return {
            "pis": len(self.pis),
            "pos": len(self.pos),
            "nodes": len(self.nodes),
            "max_fanin": self.max_fanin(),
            "depth": network_depth(self),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<BooleanNetwork {self.name!r} pi={len(self.pis)} "
            f"po={len(self.pos)} nodes={len(self.nodes)}>"
        )
