"""End-to-end tests of the DDBDD flow (Algorithm 1)."""

import pytest

from repro.core import DDBDDConfig, ddbdd_synthesize
from repro.core.lutpack import lut_pack
from repro.network.depth import network_depth
from repro.network.netlist import BooleanNetwork
from repro.runtime.fleet import reset_fleet
from tests.conftest import assert_equivalent, random_gate_network
from tests.runtime.helpers import net_dump


def op_chain(op, n, n_pi=None):
    net = BooleanNetwork(f"{op}{n}")
    n_pi = n_pi or n
    pis = [net.add_pi(f"i{k}") for k in range(n_pi)]
    prev = pis[0]
    for k in range(1, n_pi):
        nm = f"g{k}"
        net.add_gate(nm, op, [prev, pis[k]])
        prev = nm
    net.add_po("y", prev)
    return net


class TestEquivalence:
    @pytest.mark.parametrize("seed", range(10))
    def test_random_networks(self, seed):
        net = random_gate_network(seed, n_pi=9, n_gates=45, n_po=5)
        result = ddbdd_synthesize(net)
        assert_equivalent(net, result.network, f"seed {seed}")

    @pytest.mark.parametrize("seed", range(5))
    def test_without_collapse(self, seed):
        net = random_gate_network(seed + 50, n_gates=35)
        result = ddbdd_synthesize(net, DDBDDConfig(collapse=False))
        assert_equivalent(net, result.network, f"seed {seed}")

    @pytest.mark.parametrize("k", [3, 4, 6])
    def test_other_k(self, k):
        net = random_gate_network(77, n_gates=30)
        result = ddbdd_synthesize(net, DDBDDConfig(k=k))
        assert result.network.max_fanin() <= k
        assert_equivalent(net, result.network, f"k={k}")


class TestQuality:
    def test_wide_and_packs_log_k(self):
        result = ddbdd_synthesize(op_chain("and", 25))
        assert result.depth <= 3  # log_5(25) = 2 optimal; ≤3 required

    def test_parity_packs(self):
        result = ddbdd_synthesize(op_chain("xor", 16))
        assert result.depth == 2

    def test_collapse_never_hurts_depth(self):
        for seed in range(5):
            net = random_gate_network(seed + 100, n_gates=40)
            with_c = ddbdd_synthesize(net, DDBDDConfig(collapse=True))
            without_c = ddbdd_synthesize(net, DDBDDConfig(collapse=False))
            assert with_c.depth <= without_c.depth, f"seed {seed}"

    def test_depth_consistency(self):
        net = random_gate_network(9, n_gates=40)
        result = ddbdd_synthesize(net)
        assert result.depth == network_depth(result.network)
        assert result.area == len(result.network.nodes)


def _constant_po() -> BooleanNetwork:
    net = BooleanNetwork("const_po")
    net.add_pi("a")
    net.add_pi("b")
    net.add_gate("g", "and", ["a", "b"])
    net.add_node_function("one", [], net.mgr.ONE)
    net.add_node_function("zero", [], net.mgr.ZERO)
    net.add_po("y", "g")
    net.add_po("hi", "one")
    net.add_po("lo", "zero")
    return net


def _po_on_pi() -> BooleanNetwork:
    net = BooleanNetwork("po_on_pi")
    net.add_pi("a")
    net.add_pi("b")
    net.add_gate("g", "and", ["a", "b"])
    net.add_po("y", "g")
    net.add_po("feedthrough", "a")
    return net


def _two_pos_one_driver() -> BooleanNetwork:
    net = BooleanNetwork("two_pos")
    net.add_pi("a")
    net.add_pi("b")
    net.add_gate("g", "xor", ["a", "b"])
    net.add_po("y1", "g")
    net.add_po("y2", "g")
    return net


def _plain_and_complemented_po() -> BooleanNetwork:
    net = BooleanNetwork("polarity")
    net.add_pi("a")
    net.add_pi("b")
    net.add_pi("c")
    net.add_gate("g", "and", ["a", "b"])
    net.add_gate("gn", "not", ["g"])
    net.add_gate("h", "or", ["g", "c"])
    net.add_po("pos", "g")
    net.add_po("neg", "gn")
    net.add_po("other", "h")
    return net


def _pis_and_inverter() -> BooleanNetwork:
    net = BooleanNetwork("pis_inv")
    net.add_pi("a")
    net.add_pi("b")
    net.add_gate("inv", "not", ["a"])
    net.add_po("y", "inv")
    net.add_po("b_out", "b")
    return net


class TestEdgeCases:
    @pytest.mark.parametrize(
        "build",
        [_constant_po, _po_on_pi, _two_pos_one_driver, _plain_and_complemented_po,
         _pis_and_inverter],
        ids=lambda build: build.__name__.lstrip("_"),
    )
    def test_degenerate_networks_across_runtime_matrix(self, build, tmp_path):
        # jobs 1/2 x cache off / readwrite-cold / readwrite-warm (after
        # the fleet drops its stores), all at verify_level=2: every cell
        # emits the same network, equivalent to the source, K-feasible
        # and with the depth it claims.
        net = build()
        dumps = {}
        try:
            for jobs in (1, 2):
                root = tmp_path / f"jobs{jobs}"
                for label, cache in (("off", "off"), ("cold", "readwrite"),
                                     ("warm", "readwrite")):
                    if label == "warm":
                        reset_fleet()
                    config = DDBDDConfig(jobs=jobs, cache=cache, cache_dir=str(root),
                                         verify_level=2)
                    result = ddbdd_synthesize(net, config)
                    where = f"jobs={jobs} cache={label}"
                    assert result.network.max_fanin() <= config.k, where
                    assert result.depth == network_depth(result.network), where
                    assert_equivalent(net, result.network, where)
                    dumps[jobs, label] = net_dump(result.network)
        finally:
            reset_fleet()
        assert len(set(dumps.values())) == 1, sorted(dumps)

    def test_constant_output(self):
        net = BooleanNetwork()
        net.add_pi("a")
        net.add_gate("c1", "const1", [])
        net.add_gate("y", "and", ["c1"] if False else ["a"])
        net.nodes["y"].func = net.mgr.ONE  # force a constant function
        net.nodes["y"].fanins = []
        net.add_po("out", "y")
        result = ddbdd_synthesize(net)
        assert_equivalent(net, result.network)
        assert result.depth == 0

    def test_po_is_pi(self):
        net = BooleanNetwork()
        net.add_pi("a")
        net.add_pi("b")
        net.add_gate("g", "and", ["a", "b"])
        net.add_po("y", "g")
        net.add_po("feedthrough", "a")
        result = ddbdd_synthesize(net)
        assert_equivalent(net, result.network)

    def test_inverter_po(self):
        net = BooleanNetwork()
        net.add_pi("a")
        net.add_gate("inv", "not", ["a"])
        net.add_po("y", "inv")
        result = ddbdd_synthesize(net)
        assert_equivalent(net, result.network)

    def test_shared_inverted_and_plain_po(self):
        """One signal consumed both plain and complemented at POs — the
        polarity-absorption logic must not corrupt either."""
        net = BooleanNetwork()
        net.add_pi("a")
        net.add_pi("b")
        net.add_gate("g", "and", ["a", "b"])
        net.add_gate("gn", "not", ["g"])
        net.add_po("pos", "g")
        net.add_po("neg", "gn")
        result = ddbdd_synthesize(net)
        assert_equivalent(net, result.network)

    def test_multiple_pos_same_driver(self):
        net = BooleanNetwork()
        net.add_pi("a")
        net.add_pi("b")
        net.add_gate("g", "xor", ["a", "b"])
        net.add_po("y1", "g")
        net.add_po("y2", "g")
        result = ddbdd_synthesize(net)
        assert_equivalent(net, result.network)

    def test_empty_logic(self):
        net = BooleanNetwork()
        net.add_pi("a")
        net.add_po("y", "a")
        result = ddbdd_synthesize(net)
        assert result.depth == 0 and result.area == 0


class TestLutPack:
    def test_pack_preserves_function(self):
        for seed in range(4):
            net = random_gate_network(seed + 200, n_gates=30)
            ref = net.copy()
            lut_pack(net, 5)
            assert_equivalent(ref, net, f"seed {seed}")
            assert net.max_fanin() <= 5

    def test_pack_covers_and_chain(self):
        """lut_pack is a covering pass, not a rebalancer: a 24-gate
        AND chain covers at ceil(24/4) = 6 levels (each 5-LUT absorbs
        four chain gates).  Rebalancing to log_K is the DP's job — the
        full flow reaches depth ≤ 3 (see TestQuality)."""
        net = op_chain("and", 25)
        before = network_depth(net)
        lut_pack(net, 5)
        assert network_depth(net) == 6
        assert network_depth(net) < before


class TestConfigValidation:
    def test_bad_k(self):
        with pytest.raises(ValueError):
            DDBDDConfig(k=1)

    def test_bad_thresh(self):
        with pytest.raises(ValueError):
            DDBDDConfig(thresh=1)

    def test_bad_reorder(self):
        with pytest.raises(ValueError):
            DDBDDConfig(reorder_effort="maximal")
