"""T-VPack-style greedy clustering of a LUT network.

Each BLE holds one LUT.  A cluster absorbs up to ``N`` BLEs subject to
the external-input pin limit ``I``; LUT-to-LUT connections inside a
cluster use the local feedback network and cost no external pin.
Seeds are chosen on the critical path (most-timing-critical unclustered
LUT), and the attraction function counts shared nets, the classical
T-VPack recipe.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Set

from repro.network.depth import depth_map
from repro.network.netlist import BooleanNetwork
from repro.vpr.arch import Architecture


@dataclass
class Cluster:
    """One logic cluster: a set of LUT names plus its external pins."""

    index: int
    luts: List[str] = field(default_factory=list)
    inputs: Set[str] = field(default_factory=set)

    def __len__(self) -> int:
        return len(self.luts)


def pack_network(net: BooleanNetwork, arch: Architecture) -> List[Cluster]:
    """Pack the LUTs of ``net`` into clusters.  Deterministic."""
    if net.max_fanin() > arch.k:
        raise ValueError("network has LUTs wider than the architecture's K")
    depths = depth_map(net)
    unclustered: Set[str] = set(net.nodes)
    # Criticality proxy: deeper LUTs first (they anchor the critical path).
    seed_order = sorted(net.nodes, key=lambda n: (-depths.get(n, 0), n))
    fanouts = net.fanouts()

    clusters: List[Cluster] = []
    for seed in seed_order:
        if seed not in unclustered:
            continue
        cluster = Cluster(index=len(clusters))
        _absorb(cluster, seed, net, unclustered)
        # Greedily add the most attracted LUT until full.
        while len(cluster) < arch.cluster_size:
            best: Optional[str] = None
            best_gain = -1
            candidates: Set[str] = set()
            for lut in cluster.luts:
                candidates.update(
                    f for f in net.nodes[lut].fanins if f in unclustered
                )
                candidates.update(c for c in fanouts.get(lut, []) if c in unclustered)
            for cand in sorted(candidates):
                gain = _attraction(cluster, cand, net)
                new_inputs = _inputs_with(cluster, cand, net)
                if len(new_inputs) > arch.cluster_inputs:
                    continue
                if gain > best_gain:
                    best, best_gain = cand, gain
            if best is None:
                # Fall back to any unclustered LUT that fits (keeps
                # cluster count minimal, as T-VPack does).
                # Tie-break on name: a depth-only key over a set keeps
                # hash-seed-dependent order among equally deep LUTs.
                for cand in sorted(unclustered, key=lambda n: (-depths.get(n, 0), n)):
                    if len(_inputs_with(cluster, cand, net)) <= arch.cluster_inputs:
                        best = cand
                        break
            if best is None:
                break
            _absorb(cluster, best, net, unclustered)
        clusters.append(cluster)
    return clusters


def _absorb(cluster: Cluster, lut: str, net: BooleanNetwork, unclustered: Set[str]) -> None:
    cluster.luts.append(lut)
    unclustered.discard(lut)
    cluster.inputs = _inputs_of(cluster.luts, net)


def _inputs_of(luts: List[str], net: BooleanNetwork) -> Set[str]:
    inside = set(luts)
    pins: Set[str] = set()
    for lut in luts:
        for f in net.nodes[lut].fanins:
            if f not in inside:
                pins.add(f)
    return pins


def _inputs_with(cluster: Cluster, cand: str, net: BooleanNetwork) -> Set[str]:
    return _inputs_of(cluster.luts + [cand], net)


def _attraction(cluster: Cluster, cand: str, net: BooleanNetwork) -> int:
    """Shared-net count between ``cand`` and the cluster."""
    inside = set(cluster.luts)
    gain = 0
    for f in net.nodes[cand].fanins:
        if f in inside or f in cluster.inputs:
            gain += 1
    for lut in cluster.luts:
        if cand in net.nodes[lut].fanins:
            gain += 1
    return gain
