"""Benchmark generator tests: determinism and functional correctness."""

import pytest

from repro.benchgen import (
    CIRCUITS,
    TABLE3_SUITE,
    TABLE4_SUITE,
    TABLE5_SUITE,
    build_circuit,
)
from repro.benchgen import generators as g
from repro.network.blif import network_to_blif
from repro.network.simulate import exhaustive_patterns, simulate_outputs


class TestDeterminism:
    @pytest.mark.parametrize("name", ["cht", "cc", "9sym", "alu4", "sse"])
    def test_same_name_same_circuit(self, name):
        a = build_circuit(name)
        b = build_circuit(name)
        assert network_to_blif(a) == network_to_blif(b)

    def test_unknown_circuit(self):
        with pytest.raises(KeyError):
            build_circuit("nonexistent")

    def test_suites_are_registered(self):
        for name in TABLE3_SUITE + TABLE4_SUITE + TABLE5_SUITE:
            assert name in CIRCUITS


class TestFunctionalCorrectness:
    def test_parity(self):
        net = g.parity_tree("p", 8)
        pats = exhaustive_patterns(net.pis)
        out = simulate_outputs(net, pats, 256)["parity"]
        for i in range(256):
            expected = bin(i).count("1") % 2 == 1
            assert bool((out >> i) & 1) == expected

    def test_symmetric(self):
        net = g.symmetric_function("s", 6, (2, 3))
        pats = exhaustive_patterns(net.pis)
        out = simulate_outputs(net, pats, 64)["po"]
        for i in range(64):
            assert bool((out >> i) & 1) == (bin(i).count("1") in (2, 3))

    def test_ripple_adder(self):
        net = g.ripple_adder("add", 4)
        pats = exhaustive_patterns(net.pis)
        n = 1 << len(net.pis)
        outs = simulate_outputs(net, pats, n)
        order = net.pis  # a0..a3 b0..b3 cin
        for i in range(n):
            bits = {pi: (i >> k) & 1 for k, pi in enumerate(order)}
            a = sum(bits[f"a{j}"] << j for j in range(4))
            b = sum(bits[f"b{j}"] << j for j in range(4))
            total = a + b + bits["cin"]
            for j in range(4):
                assert bool((outs[f"sum{j}"] >> i) & 1) == bool((total >> j) & 1), (i, j)
            assert bool((outs["cout"] >> i) & 1) == bool(total >> 4)

    def test_multiplier(self):
        net = g.array_multiplier("m", 3)
        pats = exhaustive_patterns(net.pis)
        n = 1 << len(net.pis)
        outs = simulate_outputs(net, pats, n)
        for i in range(n):
            bits = {pi: (i >> k) & 1 for k, pi in enumerate(net.pis)}
            a = sum(bits[f"a{j}"] << j for j in range(3))
            b = sum(bits[f"b{j}"] << j for j in range(3))
            product = a * b
            for col in range(6):
                key = f"p{col}"
                if key in outs:
                    assert bool((outs[key] >> i) & 1) == bool((product >> col) & 1), (a, b, col)

    def test_comparator(self):
        net = g.comparator("c", 3)
        pats = exhaustive_patterns(net.pis)
        n = 1 << len(net.pis)
        outs = simulate_outputs(net, pats, n)
        for i in range(n):
            bits = {pi: (i >> k) & 1 for k, pi in enumerate(net.pis)}
            a = sum(bits[f"a{j}"] << j for j in range(3))
            b = sum(bits[f"b{j}"] << j for j in range(3))
            assert bool((outs["gt"] >> i) & 1) == (a > b)
            assert bool((outs["eq"] >> i) & 1) == (a == b)

    def test_decoder_onehot(self):
        net = g.decoder("d", 3)
        pats = exhaustive_patterns(net.pis)
        outs = simulate_outputs(net, pats, 8)
        for i in range(8):
            code = sum(((pats[f"s{k}"] >> i) & 1) << k for k in range(3))
            for c in range(8):
                assert bool((outs[f"po{c}"] >> i) & 1) == (c == code)

    def test_mux_tree(self):
        net = g.mux_tree("m", 2)
        pats = exhaustive_patterns(net.pis)
        n = 1 << len(net.pis)
        outs = simulate_outputs(net, pats, n)
        for i in range(n):
            bits = {pi: (pats[pi] >> i) & 1 for pi in net.pis}
            sel = bits["s0"] | (bits["s1"] << 1)
            assert bool((outs["y"] >> i) & 1) == bool(bits[f"d{sel}"])

    def test_counter_increment(self):
        net = g.counter_increment("cnt", 4)
        pats = exhaustive_patterns(net.pis)
        n = 1 << len(net.pis)
        outs = simulate_outputs(net, pats, n)
        for i in range(n):
            bits = {pi: (pats[pi] >> i) & 1 for pi in net.pis}
            q = sum(bits[f"q{j}"] << j for j in range(4))
            nxt = (q + bits["en"])
            for j in range(4):
                assert bool((outs[f"d{j}"] >> i) & 1) == bool((nxt >> j) & 1)
            assert bool((outs["ovf"] >> i) & 1) == bool(nxt >> 4)


class TestSanity:
    @pytest.mark.parametrize("name", sorted(CIRCUITS))
    def test_circuit_is_well_formed(self, name):
        net = build_circuit(name)
        net.check()
        assert net.pis and net.pos and net.nodes

    def test_families_cover_all(self):
        assert set(CIRCUITS.values()) == {"control", "xor", "datapath"}

    def test_pla_block_shape(self):
        net = g.pla_block("p", 10, 4, 20, seed=5)
        assert len(net.pis) == 10
        assert len(net.pos) == 4

    def test_fsm_logic_shape(self):
        net = g.fsm_logic("f", 8, 3, 2, seed=9)
        # 3 state bits + 3 inputs as PIs; 3 next-state + 2 outputs as POs.
        assert len(net.pis) == 6
        assert len(net.pos) == 5

    def test_control_circuit_connected(self):
        net = g.control_circuit("ctl", 5, n_pi=12, n_blocks=4, n_po=6)
        net.check()
        assert len(net.pos) >= 1
