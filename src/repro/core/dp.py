"""Dynamic-programming synthesis of one supernode BDD (Algorithm 3).

Given a supernode's function, the arrival (mapping) depths of its fanin
variables, and the LUT size K, :class:`BDDSynthesizer` finds, for every
sub-BDD ``Bs(u, l, v)``, the decomposition minimizing its mapping depth:

* ``l = 0`` states are single literals (depth = the input's depth);
* for ``l > 0`` every cut ``j < l`` is tried, using linear expansion
  bin-packed by Algorithm 5, or the dominating special decomposition
  (AND / OR / MUX / XNOR) when its structural condition holds;
* cuts whose cut set exceeds ``thresh`` are pruned (with a safety
  fallback to the smallest available cut if everything was pruned, so
  the DP always returns a finite answer).

The paper fills the table bottom-up over all (u, l, v); we memoize
top-down from the root state ``Bs(r, n-1, 1)``, which computes exactly
the same values while skipping states the root never reaches.  Ties in
delay are broken by local LUT count, then by the paper's preference for
special decompositions (fewer sub-BDDs).

After the DP, :meth:`BDDSynthesizer.emit` materializes the chosen plans
as K-LUT nodes in a target :class:`~repro.network.netlist.BooleanNetwork`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.bdd.leveled import LeveledBDD
from repro.bdd.manager import BDDManager
from repro.bdd.ops import translate
from repro.bdd.reorder import reorder_for_size
from repro.core.binpack import Box, PackedBin, pack_or_cost, pack_or_gates
from repro.core.config import DDBDDConfig
from repro.core.linear import (
    KIND_PRIORITY,
    Candidate,
    State,
    _gate_rows,
    candidates_for_cut,
)
from repro.network.netlist import BooleanNetwork
from repro.resilience.budget import BudgetMeter
from repro.utils import recursion_headroom

# The DP recursion nests one level per cut level; deep BDDs (by paper
# bound: <~25 inputs) stay far below this, but synthetic stress tests
# may not.  Entry points take scoped headroom instead of raising the
# limit persistently (a leaked raise trips hypothesis's limit guard).
_MIN_RECURSION = 20_000

# Candidate pricing: ``(delay, LUTs, KIND_PRIORITY, candidate index)``
# of one cut, and one prepared gate row ``(w, rel, CS(w, rel) or None)``.
_Price = Tuple[int, int, int, int]
_Row = Tuple[int, int, Optional[FrozenSet[int]]]
# An emitted signal: ``(name in the target network, negated, depth)``.
_Signal = Tuple[str, bool, int]

_PRIO_ALIAS = KIND_PRIORITY["alias"]
_PRIO_AND = KIND_PRIORITY["and"]
_PRIO_OR = KIND_PRIORITY["or"]
_PRIO_XNOR = KIND_PRIORITY["xnor"]
_PRIO_MUX = KIND_PRIORITY["mux"]
_PRIO_LINEAR = KIND_PRIORITY["linear"]

# The plan of every base state of one kind: emission reads a base
# candidate's kind and never mutates it, so one object serves them all.
_LITERAL = Candidate("literal", -1)
_LITFUNC = Candidate("litfunc", -1)
_LUT = Candidate("lut", -1)


@dataclass
class SupernodeResult:
    """Outcome of synthesizing one supernode."""

    signal: str
    negated: bool
    depth: int
    luts_created: int
    states_visited: int
    bdd_size: int
    num_inputs: int


class BDDSynthesizer:
    """Runs Algorithm 3 on one function and emits the LUT sub-network.

    Parameters
    ----------
    mgr, func:
        The supernode function.  It is transferred into a private
        manager (reordered per ``config.reorder_effort``) before the DP.
    input_delays:
        Mapping depth of every support variable of ``func`` (variable
        ids of ``mgr``).
    config:
        DDBDD tunables (K, thresh, special decompositions, ...).
    meter:
        Optional :class:`~repro.resilience.budget.BudgetMeter` guarding
        this synthesis: ticked on every DP state miss and bound to the
        private manager's node count, so a wall-time deadline or
        BDD-node ceiling aborts the job with
        :class:`~repro.resilience.budget.BudgetExceeded` instead of
        running away.  ``None`` (default) costs nothing.
    """

    def __init__(
        self,
        mgr: BDDManager,
        func: int,
        input_delays: Dict[int, int],
        config: Optional[DDBDDConfig] = None,
        meter: Optional[BudgetMeter] = None,
    ) -> None:
        self.config = config or DDBDDConfig()
        self._meter = meter
        effort = self.config.reorder_effort
        if effort == "auto":
            size = mgr.count_nodes(func)
            nsup = len(mgr.support(func))
            effort = "sift" if (size > 12 and nsup >= 4) else "none"
        arrivals_differ = len(set(input_delays.values())) > 1
        with recursion_headroom(_MIN_RECURSION):
            if self.config.timing_aware_reorder and arrivals_differ:
                from repro.core.timing_reorder import timing_sift

                self.mgr, self.func, _ = timing_sift(mgr, func, input_delays)
            else:
                self.mgr, self.func, _ = reorder_for_size(mgr, func, effort)
        if meter is not None:
            # The ceiling meters the private post-reorder manager — the
            # one the DP actually grows.  The eager check catches a job
            # that burned its whole deadline before the DP even started
            # (e.g. a stalled worker) on tiny BDDs whose recursion would
            # never reach a periodic tick.  The source closes over the
            # manager, not over self, which holds the meter: that would
            # be a reference cycle.
            private = self.mgr
            meter.bind_node_source(lambda: private.num_nodes)
            meter.check()
        # Map private-manager variables back to the caller's ids (the
        # transfer preserves variable ids, so this is the identity; kept
        # explicit in case that changes).
        self.lb = LeveledBDD(self.mgr, self.func)
        self.input_delays = dict(input_delays)
        # Each state's minimum depth, and the decomposition achieving it.
        self._delay: Dict[State, int] = {}
        self._plan: Dict[State, Candidate] = {}
        self._cuts: Dict[Tuple[int, int], List[Tuple[int, bool]]] = {}

    # ------------------------------------------------------------------
    # Dynamic program
    # ------------------------------------------------------------------
    @property
    def root_state(self) -> State:
        """``Bs(r, n-1, 1)`` — the whole function (Definition 7)."""
        return (self.lb.root, self.lb.depth - 1, self.mgr.ONE)

    def synthesize(self) -> int:
        """Compute and return the minimum mapping depth of the function.

        Constants and single literals are handled by the caller
        (:mod:`repro.core.ddbdd`); this requires a non-terminal root.
        """
        if self.mgr.is_terminal(self.func):
            raise ValueError("constant functions are not synthesized by the DP")
        if self._meter is not None:
            self._meter.check()
        with recursion_headroom(_MIN_RECURSION):
            return self.delay(self.root_state)

    def full_table(self) -> int:
        """Fill the DP table in the paper's bottom-up order.

        Algorithm 3 as literally written: for each relative cut level
        ``l`` from 0 to n-1, for each node ``u`` with ``level(u) + l ≤
        n-1``, for each ``v ∈ CS(u, l)``, compute ``delay(Bs(u,l,v))``.
        The memoized recursion computes identical values on demand;
        this method exists to exercise (and test) the equivalence of
        the two evaluation orders, and returns the number of states.
        """
        lb = self.lb
        n = lb.depth
        with recursion_headroom(_MIN_RECURSION):
            for l in range(n):
                for u in lb.nodes:
                    if lb.level(u) + l > n - 1:
                        continue
                    for v in lb.cut_set(u, l):
                        self.delay((u, l, v))
        return len(self._delay)

    def delay(self, state: State) -> int:
        """Minimum mapping depth of ``Bs(u, l, v)`` (memoized)."""
        got = self._delay.get(state)
        if got is not None:
            return got
        meter = self._meter
        if meter is not None:
            meter.tick()
        u, l, v = state
        if l == 0:
            # Single literal: positive if v is the 1-child (Algorithm 3's
            # `bestDelay ← inputDelay(V(u))` base case).
            d = self.input_delays[self.lb.var_of(u)]
            self._delay[state] = d
            self._plan[state] = _LITERAL
            return d
        # Small-support base case: a sub-BDD depending on at most K
        # variables fits a single LUT, which is simultaneously
        # delay-optimal (every implementation is bounded below by
        # max(input arrival)+1) and area-optimal — no cut can beat it.
        func = self.lb.bs_function(u, l, v)
        support = self.mgr.support_frozen(func)
        if len(support) == 1:
            # The sub-BDD collapsed to a bare literal.
            var = next(iter(support))
            d = self.input_delays[var]
            self._delay[state] = d
            self._plan[state] = _LITFUNC
            return d
        if len(support) <= self.config.k:
            d = 1 + max(self.input_delays[x] for x in support)
            self._delay[state] = d
            self._plan[state] = _LUT
            return d
        d, _luts, cand = self._search_cuts(u, l, v)
        self._delay[state] = d
        self._plan[state] = cand
        return d

    def _cuts_of(self, u: int, l: int) -> List[Tuple[int, bool]]:
        """The cuts ``j`` searched for every ``Bs(u, l, ·)``, each with
        whether its special decompositions apply (a two-node cut set).

        These are the cuts whose cut set fits ``thresh``; when it prunes
        them all, the smallest cut alone, so the DP always produces an
        answer (divergence guard documented in DESIGN.md).  Memoized:
        they depend on ``(u, l)`` only, not on the terminal-1 choice.
        """
        got = self._cuts.get((u, l))
        if got is None:
            cut_set = self.lb.cut_set
            sizes = [len(cut_set(u, j)) for j in range(l)]
            thresh = self.config.thresh
            js = [j for j, size in enumerate(sizes) if size <= thresh]
            if not js:
                js = [min(range(l), key=sizes.__getitem__)]
            special = self.config.use_special_decompositions
            got = [(j, special and sizes[j] == 2) for j in js]
            self._cuts[(u, l)] = got
        return got

    def _search_cuts(self, u: int, l: int, v: int) -> Tuple[int, int, Candidate]:
        # Hot loop.  Each cut is priced from its prepared gate rows and
        # the memoized sub-state delays, without building candidates;
        # the first (delay, LUTs, KIND_PRIORITY) argmin wins, the same
        # choice as a candidate-by-candidate scan (the oracle in
        # tests/core/test_dp.py holds this).  Only the winning cut's
        # Candidate is built, once, after the search.  Returns the
        # winner's delay, LUT count and Candidate.
        lb = self.lb
        prepared = lb._gate_rows
        best_j = -1
        best_idx = 0
        best_delay = 0
        best_luts = 0
        best_prio = 0
        for j, special in self._cuts_of(u, l):
            rows = prepared.get((u, l, j))
            if rows is None:
                rows = _gate_rows(lb, u, l, j)
            # The rows that give v's expansion an AND gate (enumerate_gates).
            gates = [
                row for row in rows
                if row[0] == v or (row[2] is not None and v in row[2])
            ]
            if not gates:
                raise AssertionError("linear expansion produced no gates (v unreachable?)")
            priced: Optional[_Price] = None
            if len(gates) == 1:
                priced = self._price_gate(u, j, v, gates[0])
            elif special:
                priced = self._price_pair(u, j, v, gates)
            if priced is None:
                priced = self._price_linear(u, j, v, gates)
            d, luts, prio, idx = priced
            if best_j >= 0:
                if d > best_delay:
                    continue
                if d == best_delay:
                    if luts > best_luts:
                        continue
                    if luts == best_luts and prio >= best_prio:
                        continue
            best_j, best_idx = j, idx
            best_delay, best_luts, best_prio = d, luts, prio
        config = self.config
        cands = candidates_for_cut(
            lb, u, l, v, best_j,
            use_special=config.use_special_decompositions, k=config.k,
        )
        return best_delay, best_luts, cands[best_idx]

    # Cut pricing.  Each helper returns ``(delay, LUTs, priority, index
    # of the winner in candidates_for_cut's list)`` and evaluates
    # sub-states in exactly the order that list's candidates read their
    # operands, so the DP visits the same states in the same order.
    # Sub-state delays are probed straight from the memo table and only
    # fall back to the recursive :meth:`delay` on a miss.

    def _price_gate(self, u: int, j: int, v: int, gate: _Row) -> _Price:
        """A lone gate: an alias of ``Bs(u, j, v)`` or a 2-input AND."""
        memo_get = self._delay.get
        w, rel, _ = gate
        d = memo_get((u, j, w))
        if d is None:
            d = self.delay((u, j, w))
        if w == v:
            return d, 0, _PRIO_ALIAS, 0
        d2 = memo_get((w, rel, v))
        if d2 is None:
            d2 = self.delay((w, rel, v))
        return (d if d > d2 else d2) + 1, 1, _PRIO_AND, 0

    def _price_pair(self, u: int, j: int, v: int, gates: List[_Row]) -> Optional[_Price]:
        """Special decompositions of a two-node cut set (one LUT each),
        or ``None`` when neither XNOR nor MUX applies."""
        memo_get = self._delay.get
        delay = self.delay
        (w1, rel1, _), (w2, rel2, _) = gates
        if w1 == v or w2 == v:
            # OR of Bs(u, j, v) and the other node's continuation.
            w, rel = (w2, rel2) if w1 == v else (w1, rel1)
            d = memo_get((u, j, v))
            if d is None:
                d = delay((u, j, v))
            d2 = memo_get((w, rel, v))
            if d2 is None:
                d2 = delay((w, rel, v))
            return (d if d > d2 else d2) + 1, 1, _PRIO_OR, 0
        lb = self.lb
        f_h1 = lb.bs_function(w1, rel1, v)
        xnor = lb.bs_function(w2, rel2, v) == lb.mgr.negate(f_h1)
        if not xnor and self.config.k < 3:
            return None
        # XNOR reads (u,j,w1), h1, then (u,j,w2), h2; MUX alone reads
        # (u,j,w1), h1, h2, then (u,j,w2).
        a1 = memo_get((u, j, w1))
        if a1 is None:
            a1 = delay((u, j, w1))
        h1 = memo_get((w1, rel1, v))
        if h1 is None:
            h1 = delay((w1, rel1, v))
        if xnor:
            a2 = memo_get((u, j, w2))
            if a2 is None:
                a2 = delay((u, j, w2))
            h2 = memo_get((w2, rel2, v))
            if h2 is None:
                h2 = delay((w2, rel2, v))
            # Each MUX reads a superset of its XNOR twin's operands and
            # ranks after it, so an XNOR always wins.
            d1 = a1 if a1 > h1 else h1
            d2 = a2 if a2 > h2 else h2
            prio = _PRIO_XNOR
        else:
            h2 = memo_get((w2, rel2, v))
            if h2 is None:
                h2 = delay((w2, rel2, v))
            a2 = memo_get((u, j, w2))
            if a2 is None:
                a2 = delay((u, j, w2))
            h = h1 if h1 > h2 else h2
            d1 = a1 if a1 > h else h
            d2 = a2 if a2 > h else h
            prio = _PRIO_MUX
        if d2 < d1:
            return d2 + 1, 1, prio, 1
        return d1 + 1, 1, prio, 0

    def _price_linear(self, u: int, j: int, v: int, gates: List[_Row]) -> _Price:
        """Linear expansion: AND gates grouped by input depth as
        ``[2-input, 1-input]`` counts, priced by :func:`pack_or_cost`."""
        memo_get = self._delay.get
        delay = self.delay
        groups: Dict[int, List[int]] = {}
        for w, rel, _ in gates:
            d = memo_get((u, j, w))
            if d is None:
                d = delay((u, j, w))
            if w == v:
                slot = 1
            else:
                d2 = memo_get((w, rel, v))
                if d2 is None:
                    d2 = delay((w, rel, v))
                if d2 > d:
                    d = d2
                slot = 0
            counts = groups.get(d)
            if counts is None:
                counts = groups[d] = [0, 0]
            counts[slot] += 1
        d, luts = pack_or_cost(groups, self.config.k)
        return d, luts, _PRIO_LINEAR, 0

    @property
    def states_visited(self) -> int:
        return len(self._delay)

    # ------------------------------------------------------------------
    # Emission
    # ------------------------------------------------------------------
    def emit(
        self,
        net: BooleanNetwork,
        leaf_signals: Dict[int, _Signal],
        prefix: str,
    ) -> SupernodeResult:
        """Materialize the chosen decomposition as LUT nodes in ``net``.

        ``leaf_signals`` maps each support variable to
        ``(signal name in net, negated, mapping depth)``; the depths
        must match ``input_delays``.  Returns the output signal (with
        polarity — a bare-literal function resolves to an input signal).
        """
        with recursion_headroom(_MIN_RECURSION):
            return self._emit(net, leaf_signals, prefix)

    def _emit(
        self,
        net: BooleanNetwork,
        leaf_signals: Dict[int, _Signal],
        prefix: str,
    ) -> SupernodeResult:
        for var, (_, _, d) in leaf_signals.items():
            if d != self.input_delays.get(var, d):
                raise ValueError("leaf depth disagrees with input_delays")
        root_delay = self.synthesize()
        luts_before = len(net.nodes)
        out = _Emission(self, net, leaf_signals, prefix).signal(self.root_state)
        assert out[2] <= root_delay, "emission deeper than the DP bound"
        if self.config.verify_emission:
            self._verify_emission(net, out, leaf_signals)
        return SupernodeResult(
            signal=out[0],
            negated=out[1],
            depth=out[2],
            luts_created=len(net.nodes) - luts_before,
            states_visited=self.states_visited,
            bdd_size=self.lb.size,
            num_inputs=self.lb.depth,
        )

    # ------------------------------------------------------------------
    # Verification (config.verify_emission: verify_level 2)
    # ------------------------------------------------------------------
    def _verify_emission(
        self,
        net: BooleanNetwork,
        out: _Signal,
        leaf_signals: Dict[int, _Signal],
    ) -> None:
        """Check the emitted cone computes exactly the supernode function.

        Evaluates the cone of LUTs over free leaf signals inside the
        supernode's private manager and compares BDDs.
        """
        mgr = self.mgr
        # Leaf signal name -> function over the supernode's variables.
        leaf_funcs: Dict[str, int] = {}
        for var, (name, neg, _) in leaf_signals.items():
            f = mgr.var(var)
            leaf_funcs[name] = mgr.negate(f) if neg else f
        actual = _cone_function(out[0], net, mgr, leaf_funcs)
        if out[1]:
            actual = mgr.negate(actual)
        if actual != self.func:
            raise AssertionError("emitted network does not match the supernode function")


def _cone_function(sig_name: str, net: BooleanNetwork, mgr: BDDManager, funcs: Dict[str, int]) -> int:
    """The function of signal ``sig_name`` of ``net`` in ``mgr``, given
    the functions of the cone's leaves in ``funcs`` (which memoizes)."""
    got = funcs.get(sig_name)
    if got is not None:
        return got
    node = net.nodes[sig_name]
    by_var = {net.var_of(f): _cone_function(f, net, mgr, funcs) for f in node.fanins}
    result = translate(net.mgr, node.func, mgr, by_var)
    funcs[sig_name] = result
    return result


class _Emission:
    """One :meth:`BDDSynthesizer.emit`: the walk that materializes the
    plan of every state the root needs as LUTs in ``net``, and its
    memos.  Methods rather than nested functions: a nested function
    that calls itself is a reference cycle, which would hold the
    synthesizer and its whole plan until the cyclic collector ran."""

    def __init__(
        self,
        synth: BDDSynthesizer,
        net: BooleanNetwork,
        leaf_signals: Dict[int, _Signal],
        prefix: str,
    ) -> None:
        self.synth = synth
        self.net = net
        self.leaf_signals = leaf_signals
        self.prefix = prefix
        self.emitted: Dict[State, _Signal] = {}
        # Distinct states frequently denote the same Boolean function;
        # share their LUTs (keyed by the canonical private-manager BDD).
        self.by_function: Dict[int, _Signal] = {}
        self.count = 0

    def lit_of(self, sig: _Signal) -> int:
        name, neg, _ = sig
        mgr = self.net.mgr
        f = mgr.var(self.net.var_of(name))
        return mgr.negate(f) if neg else f

    def make_lut(self, func: int, fanins: List[str], depth: int) -> _Signal:
        self.count += 1
        name = self.net.fresh_name(f"{self.prefix}_{self.count}_")
        self.net.add_node_function(name, fanins, func)
        return (name, False, depth)

    def signal(self, state: State) -> _Signal:
        """The signal computing ``Bs(state)``, emitting what it needs."""
        got = self.emitted.get(state)
        if got is not None:
            return got
        synth = self.synth
        lb = synth.lb
        leaf_signals = self.leaf_signals
        lit_of = self.lit_of
        synth.delay(state)  # ensure plan exists
        func_key = lb.bs_function(*state)
        by_function = self.by_function
        shared = by_function.get(func_key)
        if shared is not None and shared[2] <= synth._delay[state]:
            self.emitted[state] = shared
            return shared
        cand = synth._plan[state]
        result: _Signal
        if cand.kind == "literal":
            u, _, v = state
            positive = v == lb.t_child(u)
            name, neg, d = leaf_signals[lb.var_of(u)]
            result = (name, neg if positive else (not neg), d)
        elif cand.kind == "litfunc":
            func = lb.bs_function(*state)
            var = next(iter(synth.mgr.support(func)))
            positive = func == synth.mgr.var(var)
            name, neg, d = leaf_signals[var]
            result = (name, neg if positive else (not neg), d)
        elif cand.kind == "lut":
            func = lb.bs_function(*state)
            support = synth.mgr.support_ordered(func)
            ops = [leaf_signals[x] for x in support]
            local = translate(synth.mgr, func, self.net.mgr,
                              {x: lit_of(leaf_signals[x]) for x in support})
            depth = 1 + max(o[2] for o in ops)
            result = self.make_lut(local, _unique([o[0] for o in ops]), depth)
        elif cand.kind == "alias":
            result = self.signal(cand.operands[0])
        elif cand.kind in ("and", "or", "xnor", "mux"):
            ops = [self.signal(s) for s in cand.operands]
            mgr = self.net.mgr
            lits = [lit_of(o) for o in ops]
            if cand.kind == "and":
                func = mgr.apply_and(lits[0], lits[1])
            elif cand.kind == "or":
                func = mgr.apply_or(lits[0], lits[1])
            elif cand.kind == "xnor":
                func = mgr.apply_xnor(lits[0], lits[1])
            else:
                func = mgr.ite(lits[0], lits[1], lits[2])
            fanins = _unique([o[0] for o in ops])
            depth = 1 + max(o[2] for o in ops)
            result = self.make_lut(func, fanins, depth)
        else:
            assert cand.kind == "linear"
            boxes = []
            for gate in cand.gates:
                ops = [self.signal(s) for s in gate.ops]
                boxes.append(Box(max(o[2] for o in ops), gate.size, ops))
            depth, out_bin, created = pack_or_gates(boxes, synth.config.k)
            bin_signals: Dict[int, _Signal] = {}
            mgr = self.net.mgr
            for bin_ in created:
                func = mgr.ZERO
                fanins: List[str] = []
                for box in bin_.items:
                    if isinstance(box.payload, PackedBin):
                        child = bin_signals[id(box.payload)]
                        term = lit_of(child)
                        fanins.append(child[0])
                    else:
                        ops = box.payload
                        term = mgr.ONE
                        for o in ops:
                            term = mgr.apply_and(term, lit_of(o))
                        fanins.extend(o[0] for o in ops)
                    func = mgr.apply_or(func, term)
                made = self.make_lut(func, _unique(fanins), bin_.depth + 1)
                bin_signals[id(bin_)] = made
            result = bin_signals[id(out_bin)]
            assert result[2] <= depth
        self.emitted[state] = result
        if func_key not in by_function or result[2] < by_function[func_key][2]:
            by_function[func_key] = result
        return result


def _unique(items: List[str]) -> List[str]:
    seen = set()
    out = []
    for x in items:
        if x not in seen:
            seen.add(x)
            out.append(x)
    return out
