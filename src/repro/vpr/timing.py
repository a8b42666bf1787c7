"""Static timing analysis over a packed, placed and routed design.

Arrival times propagate through the LUT network: a LUT's output
settles at ``max over fanins (fanin arrival + connection delay) +
LUT delay``.  Connection delay is the local feedback mux for
intra-cluster fanins and the routed path (hops × per-hop segment
delay, plus connection-block delays) for inter-cluster nets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.network.depth import topological_order
from repro.network.netlist import BooleanNetwork
from repro.vpr.arch import Architecture
from repro.vpr.place import Placement
from repro.vpr.route import RoutingResult


@dataclass
class TimingReport:
    """Critical-path delay and per-output arrivals (nanoseconds)."""

    critical_path_ns: float
    po_arrivals: Dict[str, float]
    critical_po: Optional[str]


def analyze_timing(
    net: BooleanNetwork,
    placement: Placement,
    routing: RoutingResult,
    arch: Architecture,
) -> TimingReport:
    """Compute routed critical-path delay of the mapped network."""
    lut_cluster = placement.lut_cluster
    arrivals: Dict[str, float] = {pi: arch.io_delay for pi in net.pis}

    def block_of(signal: str) -> str:
        if signal in net.pis:
            return f"io_{signal}"
        return lut_cluster[signal]

    def connection(signal: str, consumer_block: str) -> float:
        src_block = block_of(signal)
        if src_block == consumer_block:
            return arch.local_mux_delay
        hops = routing.sink_hops.get((signal, consumer_block))
        if hops is None:
            # Conservative fallback: Manhattan distance.
            sx, sy = placement.positions[src_block]
            cx, cy = placement.positions[consumer_block]
            hops = abs(sx - cx) + abs(sy - cy)
        return arch.net_connection_delay(hops)

    for name in topological_order(net):
        node = net.nodes[name]
        my_block = lut_cluster[name]
        worst = 0.0
        for f in node.fanins:
            worst = max(worst, arrivals[f] + connection(f, my_block))
        arrivals[name] = worst + arch.lut_delay

    po_arrivals: Dict[str, float] = {}
    for po, driver in net.pos.items():
        t = arrivals[driver]
        if driver not in net.pis:
            t += connection(driver, f"io_{po}")
        t += arch.io_delay
        po_arrivals[po] = t

    if po_arrivals:
        critical_po = max(po_arrivals, key=po_arrivals.get)
        critical = po_arrivals[critical_po]
    else:
        critical_po, critical = None, 0.0
    return TimingReport(critical, po_arrivals, critical_po)
