"""Linear expansion and special decompositions (Sec. II-B, III-B).

For a sub-BDD ``Bs(u, l, v)`` and a shallower cut ``j < l``, linear
expansion rewrites

    Bs(u, l, v)  =  OR over w ∈ CS(u, j) of  Bs(u, j, w) · Bs(w, rel, v)

with ``rel = level(u) + l − level(w)``: the first factor says "the path
first crosses cut j at w", the second "continuing from w, the path first
crosses cut l at v".  Three exceptions (Sec. III-B2):

* ``w == v`` — the gate degenerates to the single input ``Bs(u, j, v)``;
* ``level(w) > level(u) + l`` and ``w ≠ v`` — ``w`` is itself a cut-l
  node mapped to terminal 0, no gate (Fig. 10);
* ``v ∉ CS(w, rel)`` — the cone from ``w`` collapses to logic 0, no
  gate (Fig. 9).

When the cut set has exactly two nodes the paper's special
decompositions apply (Sec. III-B3): OR when ``v`` is one of them, MUX
always, XNOR when the two continuation functions are complementary.
These use fewer sub-BDDs than linear expansion and never increase the
mapping depth, so :func:`candidates_for_cut` returns them instead.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.bdd.leveled import LeveledBDD

# A DP state: sub-BDD Bs(u, l, v) identified by root node, relative cut
# level, and the cut-set node mapped to terminal 1 (Definition 7).
State = Tuple[int, int, int]


class Gate:
    """One AND gate of a linear expansion: conjunction of 1 or 2 states.

    Plain ``__slots__`` class: the DP allocates one per cut-set member
    per (state, cut) pair, and frozen-dataclass construction is an
    order of magnitude more expensive.
    """

    __slots__ = ("ops",)

    def __init__(self, ops: Tuple[State, ...]) -> None:
        self.ops = ops

    @property
    def size(self) -> int:
        return len(self.ops)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Gate(ops={self.ops!r})"


class Candidate:
    """One decomposition option for a state at a specific cut ``j``.

    ``kind`` ∈ {"alias", "and", "or", "mux", "xnor", "linear"}:

    * ``alias``    — operands = (s,): same function, no LUT.
    * ``and``      — operands = (s1, s2): one LUT, f = s1·s2.
    * ``or``       — operands = (s1, s2): one LUT, f = s1 ∨ s2.
    * ``mux``      — operands = (sel, t, e): one LUT, f = sel·t ∨ ¬sel·e.
    * ``xnor``     — operands = (a, b): one LUT, f = a ⊙ b.
    * ``linear``   — gates: OR of AND gates, bin-packed into LUTs.
    """

    __slots__ = ("kind", "j", "operands", "gates")

    def __init__(
        self,
        kind: str,
        j: int,
        operands: Tuple[State, ...] = (),
        gates: Tuple[Gate, ...] = (),
    ) -> None:
        self.kind = kind
        self.j = j
        self.operands = operands
        self.gates = gates

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Candidate(kind={self.kind!r}, j={self.j}, "
            f"operands={self.operands!r}, gates={self.gates!r})"
        )


def _gate_rows(lb: LeveledBDD, u: int, l: int, j: int):
    """Prepared rows ``(w, rel, CS(w, rel))`` for every ``w ∈ CS(u, j)``.

    Everything in the expansion except the final membership test is
    independent of the terminal-1 choice ``v``, and the DP evaluates
    the same ``(u, l, j)`` for every ``v ∈ CS(u, l)`` — so the levels,
    relative cuts and continuation cut sets are resolved once and
    cached on the leveled BDD.  A row's cut set is ``None`` when ``w``
    lies below cut ``l`` (it is mapped to terminal 0 unless ``w == v``).
    """
    node_level = lb.node_level
    cut_abs = node_level[u] + l
    cs_sets = lb._cs_sets
    extend = lb._extend_cut_sets
    rows = []
    append = rows.append
    for w in lb.cut_set(u, j):
        level_w = node_level[w]
        if level_w > cut_abs:
            append((w, 0, None))  # w ∈ CS(u, l): only the w == v case
            continue
        rel = cut_abs - level_w
        members = cs_sets.get(w)
        if members is None or rel >= len(members):
            extend(w, rel)
            members = cs_sets[w]
        append((w, rel, members[rel]))
    lb._gate_rows[(u, l, j)] = rows
    return rows


def enumerate_gates(lb: LeveledBDD, u: int, l: int, v: int, j: int) -> List[Gate]:
    """AND gates of the linear expansion of ``Bs(u, l, v)`` at cut ``j``."""
    rows = lb._gate_rows.get((u, l, j))
    if rows is None:
        rows = _gate_rows(lb, u, l, j)
    gates: List[Gate] = []
    append = gates.append
    for w, rel, members in rows:
        if w == v:
            append(Gate(((u, j, v),)))
        elif members is not None and v in members:
            append(Gate(((u, j, w), (w, rel, v))))
        # Otherwise: w sits below cut l (terminal 0), or the cone from
        # w collapses to logic 0 — no gate either way.
    return gates


def candidates_for_cut(
    lb: LeveledBDD,
    u: int,
    l: int,
    v: int,
    j: int,
    use_special: bool = True,
    k: int = 5,
) -> List[Candidate]:
    """Decomposition candidates for ``Bs(u, l, v)`` at cut ``j``.

    Returns special decompositions when their structural conditions hold
    (they dominate linear expansion in both LUT count and depth), the
    plain linear expansion otherwise.
    """
    gates = enumerate_gates(lb, u, l, v, j)
    if not gates:
        raise AssertionError("linear expansion produced no gates (v unreachable?)")

    if len(gates) == 1:
        gate = gates[0]
        if gate.size == 1:
            # Bs(u, l, v) == Bs(u, j, v): same function, zero cost.
            return [Candidate("alias", j, operands=gate.ops)]
        # AND decomposition (special case of linear expansion).
        return [Candidate("and", j, operands=gate.ops)]

    cs = lb.cut_set(u, j)
    if use_special and len(cs) == 2:
        w1, w2 = cs
        if v in cs:
            # OR decomposition: the other cut node is a 0-dominator.
            # gates = [degenerate(v), and2(other)] in some order.
            single = next(g for g in gates if g.size == 1)
            double = next(g for g in gates if g.size == 2)
            return [Candidate("or", j, operands=(single.ops[0], double.ops[1]))]
        # Both nodes have full AND gates here (a skipped gate would have
        # left a single gate, handled above).
        g1 = next(g for g in gates if g.ops[0] == (u, j, w1))
        g2 = next(g for g in gates if g.ops[0] == (u, j, w2))
        h1 = g1.ops[1]
        h2 = g2.ops[1]
        out: List[Candidate] = []
        f_h1 = lb.bs_function(*h1)
        f_h2 = lb.bs_function(*h2)
        if f_h2 == lb.mgr.negate(f_h1):
            # XNOR decomposition: f = Bs(u,j,w1) ⊙ Bs(w1, rel, v).
            out.append(Candidate("xnor", j, operands=(g1.ops[0], h1)))
            out.append(Candidate("xnor", j, operands=(g2.ops[0], h2)))
        if k >= 3:
            # MUX decomposition, both selector polarities (the states
            # Bs(u,j,w1) and Bs(u,j,w2) are complementary functions but
            # can have different mapping depths).
            out.append(Candidate("mux", j, operands=(g1.ops[0], h1, h2)))
            out.append(Candidate("mux", j, operands=(g2.ops[0], h2, h1)))
        if out:
            return out

    return [Candidate("linear", j, gates=tuple(gates))]


# Priority used to break delay/area ties: the paper prefers special
# decompositions because they reference fewer sub-BDDs.
KIND_PRIORITY = {"alias": 0, "and": 1, "or": 1, "xnor": 2, "mux": 3, "linear": 4}
