"""Tests for the one-BDD dynamic program (Algorithm 3)."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.bdd.manager import BDDManager
from repro.core.binpack import pack_or_cost
from repro.core.config import DDBDDConfig
from repro.core.dp import BDDSynthesizer
from repro.core.linear import KIND_PRIORITY, Candidate, candidates_for_cut
from repro.network.netlist import BooleanNetwork
from repro.network.simulate import exhaustive_patterns, simulate_outputs


def synthesize_to_net(mgr, f, delays=None, config=None):
    """Run the DP and emit into a scratch network; returns
    (net, sig, neg, depth)."""
    config = config or DDBDDConfig()
    support = mgr.support_ordered(f)
    delays = delays or {v: 0 for v in support}
    synth = BDDSynthesizer(mgr, f, delays, config)
    net = BooleanNetwork("scratch")
    leaves = {}
    for v in support:
        pi = net.add_pi(f"x{v}")
        leaves[v] = (pi, False, delays[v])
    result = synth.emit(net, leaves, "t")
    return net, result, synth


def check_function(mgr, f, net, result):
    """Exhaustively verify the emitted cone equals f."""
    support = mgr.support_ordered(f)
    sig, neg = result.signal, result.negated
    net.add_po("y", sig)
    pats = exhaustive_patterns(net.pis)
    out = simulate_outputs(net, pats, 1 << len(net.pis))["y"]
    if neg:
        out ^= (1 << (1 << len(net.pis))) - 1
    for i in range(1 << len(support)):
        env = {v: bool((i >> k) & 1) for k, v in enumerate(support)}
        assert mgr.eval(f, env) == bool((out >> i) & 1), i


class TestBaseCases:
    def test_small_support_single_lut(self):
        m = BDDManager(5)
        rng = random.Random(0)
        bits = [rng.randint(0, 1) for _ in range(32)]
        f = m.from_truth_table(bits, list(range(5)))
        if m.is_terminal(f):
            pytest.skip("degenerate")
        net, result, synth = synthesize_to_net(m, f)
        assert result.depth == 1  # one K=5 LUT
        assert len(net.nodes) == 1
        check_function(m, f, net, result)

    def test_literal_function(self):
        m = BDDManager(3)
        net, result, _ = synthesize_to_net(m, m.var(1))
        assert result.depth == 0
        assert len(net.nodes) == 0
        assert not result.negated

    def test_negative_literal(self):
        m = BDDManager(3)
        net, result, _ = synthesize_to_net(m, m.nvar(2))
        assert result.depth == 0
        assert result.negated

    def test_constant_rejected(self):
        m = BDDManager(2)
        synth = BDDSynthesizer(m, m.ONE, {}, DDBDDConfig())
        with pytest.raises(ValueError):
            synth.synthesize()


class TestDelaySemantics:
    def test_depth_lower_bound(self):
        """Any implementation is at least max(input delay) + 1 deep."""
        m = BDDManager(8)
        f = m.apply_many("and", [m.var(i) for i in range(8)])
        delays = {i: (3 if i == 0 else 0) for i in range(8)}
        synth = BDDSynthesizer(m, f, delays, DDBDDConfig())
        assert synth.synthesize() >= 4

    def test_arrival_aware_balancing(self):
        """A single late input costs at most a couple of levels — the
        DP is delay-aware, though its variable order is chosen for size
        only (timing-aware reordering is the paper's stated future
        work), so perfect late-input shielding is not guaranteed."""
        m = BDDManager(9)
        f = m.apply_many("and", [m.var(i) for i in range(9)])
        flat = BDDSynthesizer(m, f, {i: 0 for i in range(9)}, DDBDDConfig()).synthesize()
        skewed_delays = {i: 0 for i in range(9)}
        skewed_delays[4] = flat
        skewed = BDDSynthesizer(m, f, skewed_delays, DDBDDConfig()).synthesize()
        assert flat + 1 <= skewed <= flat + 2

    def test_wide_and_depth(self):
        """Linear expansion builds 2-input AND gates, so AND-25 costs
        log2-ish depth at the DP level (4); the final LUT packing of
        the full flow recovers the log_K tree (see test_ddbdd)."""
        m = BDDManager(25)
        f = m.apply_many("and", [m.var(i) for i in range(25)])
        synth = BDDSynthesizer(m, f, {i: 0 for i in range(25)}, DDBDDConfig())
        assert synth.synthesize() == 4

    def test_parity_depth(self):
        """16-input parity via nested XNOR decompositions: 3 DP levels."""
        m = BDDManager(16)
        f = m.ZERO
        for i in range(16):
            f = m.apply_xor(f, m.var(i))
        synth = BDDSynthesizer(m, f, {i: 0 for i in range(16)}, DDBDDConfig())
        assert synth.synthesize() == 3


class TestEmission:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_functions_exact(self, seed):
        rng = random.Random(seed)
        n = rng.randint(4, 8)
        m = BDDManager(n)
        bits = [rng.randint(0, 1) for _ in range(1 << n)]
        f = m.from_truth_table(bits, list(range(n)))
        if m.is_terminal(f) or len(m.support(f)) < 2:
            pytest.skip("degenerate")
        net, result, _ = synthesize_to_net(m, f, config=DDBDDConfig(verify_level=2))
        check_function(m, f, net, result)
        assert net.max_fanin() <= 5

    def test_k_parameter_respected(self):
        m = BDDManager(8)
        rng = random.Random(42)
        bits = [rng.randint(0, 1) for _ in range(256)]
        f = m.from_truth_table(bits, list(range(8)))
        for k in (3, 4, 6):
            net, result, _ = synthesize_to_net(m, f, config=DDBDDConfig(k=k))
            assert net.max_fanin() <= k
            check_function(m, f, net, result)

    def test_negated_leaves(self):
        m = BDDManager(4)
        f = m.apply_xor(m.apply_and(m.var(0), m.var(1)), m.var(2))
        config = DDBDDConfig()
        synth = BDDSynthesizer(m, f, {v: 0 for v in m.support(f)}, config)
        net = BooleanNetwork("scratch")
        leaves = {}
        for v in m.support_ordered(f):
            pi = net.add_pi(f"x{v}")
            leaves[v] = (pi, v == 1, 0)  # leaf 1 arrives complemented
        result = synth.emit(net, leaves, "t")
        net.add_po("y", result.signal)
        pats = exhaustive_patterns(net.pis)
        out = simulate_outputs(net, pats, 1 << len(net.pis))["y"]
        if result.negated:
            out ^= (1 << (1 << len(net.pis))) - 1
        support = m.support_ordered(f)
        for i in range(1 << len(support)):
            env = {v: (bool((i >> k) & 1) ^ (v == 1)) for k, v in enumerate(support)}
            assert m.eval(f, env) == bool((out >> i) & 1)

    def test_depth_matches_structure(self):
        from repro.network.depth import depth_map

        m = BDDManager(7)
        rng = random.Random(5)
        bits = [rng.randint(0, 1) for _ in range(128)]
        f = m.from_truth_table(bits, list(range(7)))
        net, result, _ = synthesize_to_net(m, f)
        if result.signal in net.nodes:
            assert depth_map(net)[result.signal] == result.depth


class TestConfigKnobs:
    def test_thresh_fallback_still_works(self):
        """A tiny thresh prunes everything; the divergence guard must
        still produce a finite, correct answer."""
        m = BDDManager(8)
        rng = random.Random(7)
        bits = [rng.randint(0, 1) for _ in range(256)]
        f = m.from_truth_table(bits, list(range(8)))
        net, result, _ = synthesize_to_net(m, f, config=DDBDDConfig(thresh=2))
        check_function(m, f, net, result)

    def test_no_special_decompositions(self):
        m = BDDManager(7)
        rng = random.Random(9)
        bits = [rng.randint(0, 1) for _ in range(128)]
        f = m.from_truth_table(bits, list(range(7)))
        cfg = DDBDDConfig(use_special_decompositions=False)
        net, result, _ = synthesize_to_net(m, f, config=cfg)
        check_function(m, f, net, result)

    def test_determinism(self):
        m = BDDManager(7)
        rng = random.Random(11)
        bits = [rng.randint(0, 1) for _ in range(128)]
        f = m.from_truth_table(bits, list(range(7)))
        d1 = BDDSynthesizer(m, f, {v: 0 for v in m.support(f)}, DDBDDConfig()).synthesize()
        d2 = BDDSynthesizer(m, f, {v: 0 for v in m.support(f)}, DDBDDConfig()).synthesize()
        assert d1 == d2


@settings(max_examples=30, deadline=None)
@given(bits=st.lists(st.integers(0, 1), min_size=64, max_size=64))
def test_property_dp_emission_exact(bits):
    m = BDDManager(6)
    f = m.from_truth_table(bits, list(range(6)))
    if m.is_terminal(f) or len(m.support(f)) < 2:
        return
    net, result, _ = synthesize_to_net(m, f, config=DDBDDConfig(verify_level=2))
    check_function(m, f, net, result)


# ----------------------------------------------------------------------
# Local-consistency oracle: every plan entry is the first argmin of its
# own candidates, rebuilt and costed candidate by candidate.
# ----------------------------------------------------------------------
_BASE_KINDS = ("literal", "litfunc", "lut")


def _reference_choice(synth, state):
    """``(delay, luts, candidate)`` of ``state`` the direct way: build
    every :func:`candidates_for_cut` candidate over the cuts the DP
    searches, cost each from the DP's delay table, keep the first
    (delay, LUTs, KIND_PRIORITY) argmin."""
    u, l, v = state
    lb, cfg, delays = synth.lb, synth.config, synth._delay
    sizes = [len(lb.cut_set(u, j)) for j in range(l)]
    js = [j for j, size in enumerate(sizes) if size <= cfg.thresh]
    if not js:
        js = [min(range(l), key=sizes.__getitem__)]

    def delay_of(sub):
        # A sub-state the DP never evaluated means it skipped one.
        assert sub in delays, f"{state}: operand {sub} was never evaluated"
        return delays[sub]

    best = None
    for j in js:
        cands = candidates_for_cut(
            lb, u, l, v, j, use_special=cfg.use_special_decompositions, k=cfg.k
        )
        for cand in cands:
            if cand.kind == "alias":
                cost = (delay_of(cand.operands[0]), 0)
            elif cand.kind == "linear":
                groups = {}
                for gate in cand.gates:
                    depth = max(delay_of(sub) for sub in gate.ops)
                    groups.setdefault(depth, [0, 0])[0 if gate.size == 2 else 1] += 1
                cost = pack_or_cost(groups, cfg.k)
            else:
                cost = (max(delay_of(sub) for sub in cand.operands) + 1, 1)
            key = (cost[0], cost[1], KIND_PRIORITY[cand.kind])
            if best is None or key < best[0]:
                best = (key, cand)
    assert best is not None
    (delay, luts, _), cand = best
    return delay, luts, cand


@settings(max_examples=100, deadline=None)
@given(
    data=st.data(),
    n=st.integers(5, 8),
    k=st.integers(2, 6),
    special=st.booleans(),
    thresh=st.sampled_from([2, 15]),
)
def test_dp_plan_matches_candidate_argmin(data, n, k, special, thresh):
    """The DP prices cuts without building candidates; its choice per
    state must equal the candidate-by-candidate first argmin (same kind,
    cut, operands or gates, delay and LUTs).  ``thresh=2`` prunes most
    cuts and exercises the smallest-cut fallback.  Unless the drawn
    split is 0, the table is ``g(low vars) XOR h(high vars)``: its
    two-node cuts carry the complementary continuations that the XNOR
    decomposition needs, which plain random tables rarely have."""
    bits = data.draw(st.integers(0, (1 << (1 << n)) - 1), label="truth table")
    split = data.draw(st.integers(0, n - 1), label="xor split")
    if split:
        # Low `split` variables of the row index feed g, the rest feed h.
        h_bits = data.draw(st.integers(0, (1 << (1 << (n - split))) - 1), label="h")
        bits = sum(
            (((bits >> (i & ((1 << split) - 1))) ^ (h_bits >> (i >> split))) & 1) << i
            for i in range(1 << n)
        )
    table = [(bits >> i) & 1 for i in range(1 << n)]
    m = BDDManager(n)
    f = m.from_truth_table(table, list(range(n)))
    if m.is_terminal(f):
        return
    delays = {
        v: data.draw(st.integers(0, 3), label=f"arrival x{v}")
        for v in m.support_ordered(f)
    }
    cfg = DDBDDConfig(k=k, thresh=thresh, use_special_decompositions=special)
    synth = BDDSynthesizer(m, f, delays, cfg)
    synth.synthesize()
    for state, got in list(synth._plan.items()):
        if got.kind in _BASE_KINDS:
            continue
        delay, luts, ref = _reference_choice(synth, state)
        assert (got.kind, got.j, got.operands) == (ref.kind, ref.j, ref.operands), state
        assert [g.ops for g in got.gates] == [g.ops for g in ref.gates], state
        # The plan keeps only the Candidate; the search reports the
        # winner's LUT count, and repeats the planned choice.
        search_delay, search_luts, again = synth._search_cuts(*state)
        assert (again.kind, again.j, again.operands) == (got.kind, got.j, got.operands), state
        assert (search_delay, search_luts) == (delay, luts), state
        assert synth._delay[state] == delay


def test_plan_keeps_one_candidate_per_state_and_shares_base_ones():
    """The plan maps every state straight to its Candidate, and every
    base state of one kind (literal, litfunc, lut) shares one object."""
    rng = random.Random(7)
    kinds = set()
    for _ in range(6):
        m = BDDManager(7)
        f = m.from_truth_table([rng.randint(0, 1) for _ in range(1 << 7)], list(range(7)))
        synth = BDDSynthesizer(m, f, {v: 0 for v in m.support_ordered(f)}, DDBDDConfig(k=3))
        synth.synthesize()
        assert len(synth._plan) == synth.states_visited
        assert all(type(cand) is Candidate for cand in synth._plan.values())
        for kind in _BASE_KINDS:
            shared = {id(cand) for cand in synth._plan.values() if cand.kind == kind}
            assert len(shared) <= 1, kind
            if shared:
                kinds.add(kind)
    assert kinds == set(_BASE_KINDS)
