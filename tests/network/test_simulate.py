"""Bit-parallel simulation tests."""

from repro.network.simulate import (
    eval_bdd_words,
    exhaustive_patterns,
    random_patterns,
    simulate,
    simulate_outputs,
)
from tests.conftest import random_gate_network


class TestPatterns:
    def test_exhaustive_patterns_enumerate(self):
        words = exhaustive_patterns(["a", "b"])
        # bit i of pattern word for pi k is (i >> k) & 1
        assert words["a"] == 0b1010
        assert words["b"] == 0b1100

    def test_random_patterns_deterministic(self):
        w1 = random_patterns(["x", "y"], 64, seed=3)
        w2 = random_patterns(["x", "y"], 64, seed=3)
        assert w1 == w2


class TestSimulate:
    def test_matches_bdd_eval_exhaustively(self):
        net = random_gate_network(2, n_pi=6, n_gates=15)
        words = exhaustive_patterns(net.pis)
        n = 1 << len(net.pis)
        values = simulate(net, words, n)
        # Cross-check a few signals against direct BDD evaluation via
        # the global functions.
        from repro.bdd.manager import BDDManager
        from repro.network.equivalence import global_functions

        gm = BDDManager()
        pi_vars = {pi: gm.add_var(pi) for pi in sorted(net.pis)}
        funcs = global_functions(net, gm, pi_vars)
        for po, f in funcs.items():
            word = values[net.pos[po]]
            for i in range(n):
                env = {pi_vars[pi]: bool((words[pi] >> i) & 1) for pi in net.pis}
                assert bool((word >> i) & 1) == gm.eval(f, env), (po, i)

    def test_simulate_outputs(self):
        net = random_gate_network(4)
        words = random_patterns(net.pis, 128, seed=0)
        outs = simulate_outputs(net, words, 128)
        assert set(outs) == set(net.pos)

    def test_eval_bdd_words_constants(self):
        from repro.bdd.manager import BDDManager

        m = BDDManager(2)
        mask = 0b1111
        assert eval_bdd_words(m, m.ONE, {}, mask) == mask
        assert eval_bdd_words(m, m.ZERO, {}, mask) == 0

    def test_mask_applied(self):
        net = random_gate_network(5, n_pi=4, n_gates=6)
        words = {pi: (1 << 70) - 1 for pi in net.pis}
        values = simulate(net, words, 8)  # only 8 patterns
        for word in values.values():
            assert word < (1 << 8)
