"""Hand-written BLIF fixtures through the whole pipeline."""

import os

from repro.core import ddbdd_synthesize
from repro.network.blif import read_blif
from repro.network.sequential import read_sequential_blif
from tests.conftest import assert_equivalent

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")


class TestTrafficFixture:
    def test_parses(self):
        net = read_blif(os.path.join(FIXTURES, "traffic.blif"))
        assert net.pis == ["car_ns", "car_ew", "timer_done", "state0", "state1"]
        assert set(net.pos) == {"green_ns", "green_ew", "next0", "next1", "alarm"}

    def test_inverted_cover(self):
        net = read_blif(os.path.join(FIXTURES, "traffic.blif"))
        # next0 cover has output value 0: complemented OR of cubes.
        node = net.nodes["next0"]
        assert node.func != net.mgr.ZERO

    def test_constant_outputs(self):
        net = read_blif(os.path.join(FIXTURES, "traffic.blif"))
        assert net.nodes["alarm"].func == net.mgr.ZERO
        assert net.nodes["go_ns"].func == net.mgr.ONE

    def test_full_flow(self):
        net = read_blif(os.path.join(FIXTURES, "traffic.blif"))
        result = ddbdd_synthesize(net)
        assert_equivalent(net, result.network, "traffic fixture")


class TestShiftFixture:
    def test_latches(self):
        seq = read_sequential_blif(os.path.join(FIXTURES, "seq_shift.blif"))
        assert seq.state_bits == 3

    def test_shift_behavior(self):
        seq = read_sequential_blif(os.path.join(FIXTURES, "seq_shift.blif"))
        stream = [True, False, True, True, False, False]
        outs = seq.simulate([{"din": v} for v in stream])
        observed = [o["dout"] for o in outs]
        # Three-stage shift: output is the input delayed by 3 cycles.
        assert observed == [False, False, False] + stream[:3]
