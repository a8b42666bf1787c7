"""AIG balancing tests."""

from repro.aig.aig import AIG, lit_not
from repro.aig.balance import balance
from repro.aig.from_network import network_to_aig
from tests.aig.test_aig import eval_aig
from tests.conftest import random_gate_network


def test_balance_flattens_and_chain():
    aig = AIG()
    lits = [aig.add_pi(f"i{k}") for k in range(16)]
    cur = lits[0]
    for l in lits[1:]:
        cur = aig.and2(cur, l)  # depth-15 chain
    aig.add_po("y", cur)
    balanced = balance(aig)
    assert balanced.depth() == 4  # log2(16)


def test_balance_preserves_function():
    for seed in range(4):
        net = random_gate_network(seed, n_pi=7, n_gates=20)
        aig = network_to_aig(net, timing_driven=False)
        bal = balance(aig)
        pi_node_a = {name: node for node, name in zip(aig.pis, aig.pi_names)}
        pi_node_b = {name: node for node, name in zip(bal.pis, bal.pi_names)}
        for i in range(1 << len(net.pis)):
            env_vals = {pi: bool((i >> k) & 1) for k, pi in enumerate(net.pis)}
            for po in aig.pos:
                va = eval_aig(aig, aig.pos[po], {pi_node_a[p]: v for p, v in env_vals.items()})
                vb = eval_aig(bal, bal.pos[po], {pi_node_b[p]: v for p, v in env_vals.items()})
                assert va == vb, (seed, po, i)


def test_balance_never_deeper():
    for seed in range(5):
        net = random_gate_network(seed + 10, n_pi=8, n_gates=30)
        aig = network_to_aig(net, timing_driven=False)
        assert balance(aig).depth() <= aig.depth()


def test_balance_stops_at_shared_nodes():
    """A multi-fanout AND must not be duplicated."""
    aig = AIG()
    a = aig.add_pi("a")
    b = aig.add_pi("b")
    c = aig.add_pi("c")
    shared = aig.and2(a, b)
    x = aig.and2(shared, c)
    y = aig.and2(shared, lit_not(c))
    aig.add_po("x", x)
    aig.add_po("y", y)
    bal = balance(aig)
    assert bal.num_ands() <= aig.num_ands()


def test_constant_po_passthrough():
    aig = AIG()
    aig.add_pi("a")
    aig.add_po("zero", 0)
    aig.add_po("one", 1)
    bal = balance(aig)
    assert bal.pos["zero"] == 0 and bal.pos["one"] == 1
