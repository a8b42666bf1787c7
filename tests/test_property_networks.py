"""Hypothesis-driven whole-network properties.

A composite strategy generates small random networks; every public
transformation and flow must preserve their PO functions, and the
metrics must obey their invariants.
"""

import tempfile

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.core import DDBDDConfig, ddbdd_synthesize
from repro.core.collapse import partial_collapse
from repro.network.depth import depth_map, network_depth
from repro.network.netlist import BooleanNetwork
from repro.network.transform import merge_duplicates, sweep
from repro.runtime.fleet import reset_fleet
from tests.conftest import assert_equivalent
from tests.runtime.helpers import net_dump

_OPS2 = ["and", "or", "nand", "nor", "xor", "xnor"]


@st.composite
def networks(draw, max_pis=6, max_gates=18):
    n_pi = draw(st.integers(2, max_pis))
    n_gates = draw(st.integers(1, max_gates))
    net = BooleanNetwork("hyp")
    sigs = [net.add_pi(f"i{k}") for k in range(n_pi)]
    for g in range(n_gates):
        kind = draw(st.integers(0, 9))
        if kind == 0:
            a = draw(st.sampled_from(sigs))
            net.add_gate(f"g{g}", "not", [a])
        elif kind == 1 and len(sigs) >= 3:
            fans = draw(st.permutations(sigs))[:3]
            net.add_gate(f"g{g}", draw(st.sampled_from(["mux", "maj"])), list(fans))
        else:
            fans = draw(st.permutations(sigs))[:2]
            net.add_gate(f"g{g}", draw(st.sampled_from(_OPS2)), list(fans))
        sigs.append(f"g{g}")
    gates = sigs[n_pi:]
    n_po = draw(st.integers(1, min(3, len(gates))))
    for k in range(n_po):
        net.add_po(f"o{k}", draw(st.sampled_from(gates)))
    net.check()
    return net


@settings(max_examples=25, deadline=None)
@given(net=networks())
def test_property_sweep_preserves(net):
    ref = net.copy()
    sweep(net)
    assert_equivalent(ref, net)


@settings(max_examples=25, deadline=None)
@given(net=networks())
def test_property_dedup_preserves(net):
    ref = net.copy()
    merge_duplicates(net)
    assert_equivalent(ref, net)


@settings(max_examples=20, deadline=None)
@given(net=networks())
def test_property_collapse_preserves(net):
    ref = net.copy()
    partial_collapse(net, DDBDDConfig())
    assert_equivalent(ref, net)
    net.check()


@settings(max_examples=12, deadline=None)
@given(net=networks(max_pis=5, max_gates=12))
def test_property_ddbdd_contract(net):
    result = ddbdd_synthesize(net)
    assert result.network.max_fanin() <= 5
    assert result.depth == network_depth(result.network)
    assert_equivalent(net, result.network)


@settings(max_examples=25, deadline=None)
@given(net=networks())
def test_property_depth_map_consistent(net):
    depths = depth_map(net)
    for name, node in net.nodes.items():
        expected = 1 + max((depths[f] for f in node.fanins), default=-1)
        assert depths[name] == expected


@settings(max_examples=20, deadline=None)
@given(net=networks(max_pis=8, max_gates=30))
def test_property_runtime_matrix_agrees(net):
    # Differential matrix: jobs 1/2 x cache off / readwrite-cold /
    # readwrite-warm (from sqlite, after the memory tier is dropped).
    # Every cell must emit the same network, equivalent to the source,
    # K-feasible and with the depth it claims.
    dumps = {}
    for jobs in (1, 2):
        with tempfile.TemporaryDirectory() as root:
            for label, cache in (("off", "off"), ("cold", "readwrite"), ("warm", "readwrite")):
                if label == "warm":
                    reset_fleet()
                config = DDBDDConfig(jobs=jobs, cache=cache, cache_dir=root)
                result = ddbdd_synthesize(net, config)
                if label == "warm":
                    assert result.runtime_stats.cache_misses == 0
                assert result.network.max_fanin() <= config.k
                assert result.depth == network_depth(result.network)
                assert_equivalent(net, result.network, f"jobs={jobs} cache={label}")
                dumps[jobs, label] = net_dump(result.network)
    reset_fleet()
    assert len(set(dumps.values())) == 1, sorted(dumps)
