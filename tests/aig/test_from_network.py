"""Network → AIG conversion tests."""

import pytest

from repro.aig.from_network import network_to_aig
from repro.network.simulate import exhaustive_patterns, simulate_outputs
from tests.conftest import random_gate_network
from tests.aig.test_aig import eval_aig


def check_aig_matches(net, aig, limit_pis=10):
    pis = net.pis[:limit_pis]
    if len(net.pis) > limit_pis:
        pytest.skip("too many PIs for exhaustive check")
    pats = exhaustive_patterns(net.pis)
    n = 1 << len(net.pis)
    outs = simulate_outputs(net, pats, n)
    pi_node = {name: node for node, name in zip(aig.pis, aig.pi_names)}
    for po, literal in aig.pos.items():
        for i in range(n):
            env = {pi_node[pi]: bool((pats[pi] >> i) & 1) for pi in net.pis}
            assert eval_aig(aig, literal, env) == bool((outs[po] >> i) & 1), (po, i)


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("timing", [True, False])
def test_conversion_preserves_function(seed, timing):
    net = random_gate_network(seed, n_pi=7, n_gates=20)
    aig = network_to_aig(net, timing_driven=timing)
    check_aig_matches(net, aig)


def test_constant_nodes():
    from repro.network.netlist import BooleanNetwork

    net = BooleanNetwork()
    net.add_pi("a")
    net.add_gate("one", "const1", [])
    net.add_gate("zero", "const0", [])
    net.add_po("y1", "one")
    net.add_po("y0", "zero")
    aig = network_to_aig(net)
    assert aig.pos["y1"] == 1
    assert aig.pos["y0"] == 0


def test_timing_driven_not_deeper_on_chain():
    """An unbalanced SOP becomes a Huffman tree under timing mode."""
    from repro.network.netlist import BooleanNetwork

    net = BooleanNetwork()
    pis = [net.add_pi(f"i{k}") for k in range(8)]
    net.add_gate("wide", "and", pis)
    net.add_po("y", "wide")
    flat = network_to_aig(net, timing_driven=True)
    chain = network_to_aig(net, timing_driven=False)
    assert flat.depth() <= chain.depth()
    assert flat.depth() == 3  # balanced AND-8
