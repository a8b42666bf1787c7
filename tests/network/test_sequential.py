"""Sequential network / latch handling tests."""

import pytest

from repro.core import ddbdd_synthesize
from repro.network.equivalence import check_equivalence
from repro.network.netlist import NetworkError
from repro.network.sequential import parse_sequential_blif, sequential_to_blif

COUNTER_BLIF = """
.model counter2
.inputs en
.outputs q0o q1o
.latch n0 q0 re clk 0
.latch n1 q1 re clk 0
.names q0 en n0
10 1
01 1
.names q1 t n1
10 1
01 1
.names q0 en t
11 1
.names q0 q0o
1 1
.names q1 q1o
1 1
.end
"""


class TestParsing:
    def test_latches_extracted(self):
        seq = parse_sequential_blif(COUNTER_BLIF)
        assert seq.state_bits == 2
        assert {l.output for l in seq.latches} == {"q0", "q1"}
        # Latch outputs became core PIs, latch inputs pseudo-POs.
        assert "q0" in seq.core.pis and "q1" in seq.core.pis
        assert "_next_q0" in seq.core.pos and "_next_q1" in seq.core.pos

    def test_no_latches_passthrough(self):
        text = ".model m\n.inputs a\n.outputs y\n.names a y\n1 1\n.end\n"
        seq = parse_sequential_blif(text)
        assert seq.state_bits == 0

    def test_malformed_latch(self):
        with pytest.raises(NetworkError):
            parse_sequential_blif(".model m\n.inputs a\n.outputs y\n.latch x\n.end\n")


class TestSimulation:
    def test_counter_counts(self):
        seq = parse_sequential_blif(COUNTER_BLIF)
        outs = seq.simulate([{"en": True}] * 5)
        values = [(o["q0o"], o["q1o"]) for o in outs]
        # Outputs show the state *before* each clock edge: 0,1,2,3,0.
        expected = [(False, False), (True, False), (False, True), (True, True), (False, False)]
        assert values == expected

    def test_disabled_counter_holds(self):
        seq = parse_sequential_blif(COUNTER_BLIF)
        outs = seq.simulate([{"en": False}] * 3)
        assert all(not o["q0o"] and not o["q1o"] for o in outs)

    def test_initial_state_override(self):
        seq = parse_sequential_blif(COUNTER_BLIF)
        outs = seq.simulate([{"en": True}], initial={"q0": True, "q1": True})
        assert outs[0] == {"q0o": True, "q1o": True}


class TestCoreSynthesis:
    def test_map_core_and_reassemble(self):
        """The paper's methodology: synthesize the combinational core,
        put the latches back, behavior unchanged."""
        seq = parse_sequential_blif(COUNTER_BLIF)
        mapped_core = ddbdd_synthesize(seq.core).network
        assert check_equivalence(seq.core, mapped_core).equivalent
        remapped = seq.replace_core(mapped_core)
        a = seq.simulate([{"en": True}] * 6)
        b = remapped.simulate([{"en": True}] * 6)
        assert a == b

    def test_interface_change_rejected(self):
        seq = parse_sequential_blif(COUNTER_BLIF)
        from repro.network.netlist import BooleanNetwork

        bogus = BooleanNetwork()
        bogus.add_pi("en")
        with pytest.raises(NetworkError):
            seq.replace_core(bogus)


class TestRoundTrip:
    def test_blif_roundtrip(self):
        seq = parse_sequential_blif(COUNTER_BLIF)
        text = sequential_to_blif(seq)
        again = parse_sequential_blif(text)
        assert again.state_bits == 2
        a = seq.simulate([{"en": True}] * 4)
        b = again.simulate([{"en": True}] * 4)
        assert a == b
