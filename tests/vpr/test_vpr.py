"""Tests for the VPR-like pack/place/route/timing flow."""

import pytest

from repro.core import ddbdd_synthesize
from repro.vpr.arch import Architecture
from repro.vpr.flow import vpr_flow
from repro.vpr.pack import pack_network
from repro.vpr.place import build_nets, place
from repro.vpr.route import minimum_channel_width, route
from tests.conftest import random_gate_network


@pytest.fixture(scope="module")
def mapped():
    net = random_gate_network(3, n_pi=10, n_gates=60, n_po=6)
    return ddbdd_synthesize(net).network


@pytest.fixture(scope="module")
def arch():
    return Architecture()


class TestPack:
    def test_every_lut_packed_once(self, mapped, arch):
        clusters = pack_network(mapped, arch)
        seen = [lut for c in clusters for lut in c.luts]
        assert sorted(seen) == sorted(mapped.nodes)

    def test_cluster_constraints(self, mapped, arch):
        for c in pack_network(mapped, arch):
            assert len(c.luts) <= arch.cluster_size
            assert len(c.inputs) <= arch.cluster_inputs

    def test_wide_lut_rejected(self, arch):
        from repro.network.netlist import BooleanNetwork

        net = BooleanNetwork()
        pis = [net.add_pi(f"i{k}") for k in range(8)]
        net.add_gate("wide", "and", pis)
        net.add_po("y", "wide")
        with pytest.raises(ValueError):
            pack_network(net, arch)


class TestPlace:
    def test_all_blocks_placed(self, mapped, arch):
        clusters = pack_network(mapped, arch)
        placement = place(mapped, clusters, arch, seed=2)
        blocks = {f"c{c.index}" for c in clusters}
        blocks |= {f"io_{pi}" for pi in mapped.pis}
        blocks |= {f"io_{po}" for po in mapped.pos}
        assert blocks <= set(placement.positions)

    def test_clusters_unique_positions(self, mapped, arch):
        clusters = pack_network(mapped, arch)
        placement = place(mapped, clusters, arch, seed=2)
        cluster_pos = [placement.positions[f"c{c.index}"] for c in clusters]
        assert len(set(cluster_pos)) == len(cluster_pos)

    def test_ios_on_border(self, mapped, arch):
        clusters = pack_network(mapped, arch)
        p = place(mapped, clusters, arch, seed=2)
        for b, (x, y) in p.positions.items():
            if b.startswith("io_"):
                assert x in (0, p.nx + 1) or y in (0, p.ny + 1)

    def test_deterministic(self, mapped, arch):
        clusters = pack_network(mapped, arch)
        p1 = place(mapped, clusters, arch, seed=7, effort=0.3)
        p2 = place(mapped, clusters, arch, seed=7, effort=0.3)
        assert p1.positions == p2.positions

    def test_nets_reference_placed_blocks(self, mapped, arch):
        clusters = pack_network(mapped, arch)
        nets, _ = build_nets(mapped, clusters)
        p = place(mapped, clusters, arch, seed=1, effort=0.3)
        for n in nets:
            assert n.driver in p.positions
            for s in n.sinks:
                assert s in p.positions


class TestRoute:
    def test_route_succeeds_at_generous_width(self, mapped, arch):
        clusters = pack_network(mapped, arch)
        p = place(mapped, clusters, arch, seed=3, effort=0.3)
        result = route(p, width=48)
        assert result.success
        # Every external net sink has a hop count.
        for n in p.nets:
            for s in n.sinks:
                assert (n.name, s) in result.sink_hops

    def test_minimum_width_is_minimal(self, mapped, arch):
        clusters = pack_network(mapped, arch)
        p = place(mapped, clusters, arch, seed=3, effort=0.3)
        w, result = minimum_channel_width(p)
        assert result.success and result.width == w
        if w > 1:
            tighter = route(p, width=w - 1)
            assert not tighter.success

    def test_hops_at_least_manhattan(self, mapped, arch):
        clusters = pack_network(mapped, arch)
        p = place(mapped, clusters, arch, seed=3, effort=0.3)
        result = route(p, width=48)
        for n in p.nets:
            src = p.positions[n.driver]
            for s in n.sinks:
                dst = p.positions[s]
                manhattan = abs(src[0] - dst[0]) + abs(src[1] - dst[1])
                assert result.sink_hops[(n.name, s)] >= manhattan


class TestTiming:
    def test_delay_at_least_logic_depth(self, mapped, arch):
        from repro.network.depth import network_depth

        result = vpr_flow(mapped, arch, seed=1, place_effort=0.3)
        min_logic = network_depth(mapped) * arch.lut_delay
        assert result.critical_path_ns >= min_logic

    def test_flow_result_fields(self, mapped, arch):
        result = vpr_flow(mapped, arch, seed=1, place_effort=0.3)
        assert result.num_luts == len(mapped.nodes)
        assert result.num_clusters >= 1
        assert result.routed_channel_width >= result.min_channel_width or \
            result.routed_channel_width == max(1, int(result.min_channel_width * 1.2))

    def test_channel_width_override(self, mapped, arch):
        result = vpr_flow(mapped, arch, seed=1, channel_width=40, place_effort=0.3)
        assert result.routed_channel_width == 40

    def test_wider_channels_not_slower(self, mapped, arch):
        narrow = vpr_flow(mapped, arch, seed=1, place_effort=0.3)
        wide = vpr_flow(mapped, arch, seed=1, channel_width=64, place_effort=0.3)
        # More tracks → congestion-free routing → no detours.
        assert wide.critical_path_ns <= narrow.critical_path_ns * 1.3
