"""Timing-driven simulated-annealing placement (VPR-style).

Clusters occupy an inner square grid; I/O pads sit on the perimeter
(two pads per border position, as in classic VPR).  The annealer
minimizes ``(1-λ)·wiring + λ·timing``: wiring is the half-perimeter
wirelength over all inter-cluster nets, timing weights each net's
estimated delay by its depth-based criticality.  The schedule is the
standard adaptive one (temperature scaled by move acceptance rate),
sized down for pure-Python speed; placements are deterministic given
the seed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.network.depth import depth_map
from repro.network.netlist import BooleanNetwork
from repro.vpr.arch import Architecture
from repro.vpr.pack import Cluster


@dataclass
class Net:
    """One inter-block net: a driver block and its sink blocks."""

    name: str
    driver: str
    sinks: List[str]
    criticality: float = 0.0


@dataclass
class Placement:
    """Block coordinates on the placement grid."""

    nx: int
    ny: int
    positions: Dict[str, Tuple[int, int]]
    nets: List[Net]
    lut_cluster: Dict[str, str]
    cost: float = 0.0


def build_nets(
    net: BooleanNetwork, clusters: List[Cluster]
) -> Tuple[List[Net], Dict[str, str]]:
    """Cluster-level netlist: one net per signal leaving its cluster."""
    lut_cluster: Dict[str, str] = {}
    for c in clusters:
        for lut in c.luts:
            lut_cluster[lut] = f"c{c.index}"
    block_of: Dict[str, str] = dict(lut_cluster)
    for pi in net.pis:
        block_of[pi] = f"io_{pi}"

    sinks: Dict[str, Set[str]] = {}
    for name, node in net.nodes.items():
        for f in node.fanins:
            sinks.setdefault(f, set()).add(block_of[name])
    for po, driver in net.pos.items():
        sinks.setdefault(driver, set()).add(f"io_{po}")

    depths = depth_map(net)
    max_depth = max(depths.values(), default=1) or 1
    nets: List[Net] = []
    for signal, sink_blocks in sorted(sinks.items()):
        driver_block = block_of[signal]
        external = sorted(b for b in sink_blocks if b != driver_block)
        if not external:
            continue
        crit = depths.get(signal, 0) / max_depth
        nets.append(Net(signal, driver_block, external, crit))
    return nets, lut_cluster


def place(
    net: BooleanNetwork,
    clusters: List[Cluster],
    arch: Architecture,
    seed: int = 1,
    effort: float = 1.0,
    timing_weight: float = 0.5,
) -> Placement:
    """Anneal a placement for the clustered design."""
    rng = random.Random(seed)
    nets, lut_cluster = build_nets(net, clusters)

    cluster_blocks = [f"c{c.index}" for c in clusters]
    io_blocks = sorted({f"io_{pi}" for pi in net.pis} | {f"io_{po}" for po in net.pos})

    nx = ny = max(2, math.ceil(math.sqrt(len(cluster_blocks))))
    # Ensure the perimeter can hold the pads (2 per border slot).
    while 2 * 2 * (nx + ny) < len(io_blocks):
        nx += 1
        ny += 1

    inner = [(x, y) for x in range(1, nx + 1) for y in range(1, ny + 1)]
    border: List[Tuple[int, int]] = []
    for x in range(1, nx + 1):
        border += [(x, 0), (x, ny + 1)]
    for y in range(1, ny + 1):
        border += [(0, y), (nx + 1, y)]
    border = border * 2  # pad capacity 2

    positions: Dict[str, Tuple[int, int]] = {}
    spots = list(inner)
    rng.shuffle(spots)
    for b, p in zip(cluster_blocks, spots):
        positions[b] = p
    pads = list(border)
    rng.shuffle(pads)
    for b, p in zip(io_blocks, pads):
        positions[b] = p

    free_inner = spots[len(cluster_blocks):]
    free_pads = pads[len(io_blocks):]

    def net_cost(n: Net) -> float:
        xs = [positions[n.driver][0]] + [positions[s][0] for s in n.sinks]
        ys = [positions[n.driver][1]] + [positions[s][1] for s in n.sinks]
        hpwl = (max(xs) - min(xs)) + (max(ys) - min(ys))
        wiring = hpwl * (1.0 + 0.35 * max(0, len(n.sinks) - 1))
        timing = n.criticality * hpwl
        return (1 - timing_weight) * wiring + timing_weight * timing * 2.0

    nets_of_block: Dict[str, List[int]] = {}
    for i, n in enumerate(nets):
        for b in [n.driver] + n.sinks:
            nets_of_block.setdefault(b, []).append(i)
    for b in nets_of_block:
        nets_of_block[b] = sorted(set(nets_of_block[b]))

    costs = [net_cost(n) for n in nets]
    total = math.fsum(costs)

    movable_clusters = cluster_blocks
    moves_per_t = max(60, int(effort * 8 * (len(cluster_blocks) + len(io_blocks)) ** 1.2))
    temperature = max(1.0, total * 0.05)

    def try_move() -> Tuple[float, List[Tuple[int, float]], Optional[Tuple]]:
        """Propose a move; returns (delta, net deltas, undo record)."""
        used_free = False
        if movable_clusters and (not io_blocks or rng.random() < 0.8):
            b = rng.choice(movable_clusters)
            if free_inner and rng.random() < 0.3:
                target = rng.choice(free_inner)
                other = None
                used_free = True
            else:
                other = rng.choice(movable_clusters)
                if other == b:
                    return 0.0, [], None
                target = positions[other]
        else:
            if not io_blocks:
                return 0.0, [], None
            b = rng.choice(io_blocks)
            other = rng.choice(io_blocks)
            if other == b:
                return 0.0, [], None
            target = positions[other]
        old_b = positions[b]
        positions[b] = target
        if other is not None:
            positions[other] = old_b
        affected = set(nets_of_block.get(b, []))
        if other is not None:
            affected |= set(nets_of_block.get(other, []))
        deltas = []
        delta = 0.0
        # sorted(): the float delta accumulation must not depend on set
        # iteration order, or the annealer's accept/reject decisions
        # become hash-seed-dependent.
        for i in sorted(affected):
            new_cost = net_cost(nets[i])
            deltas.append((i, new_cost))
            delta += new_cost - costs[i]
        return delta, deltas, (b, old_b, other, target, used_free)

    while temperature > 0.002 * max(total, 1.0) / max(len(nets), 1):
        accepted = 0
        for _ in range(moves_per_t):
            delta, deltas, undo = try_move()
            if undo is None:
                continue
            if delta <= 0 or rng.random() < math.exp(-delta / temperature):
                for i, c in deltas:
                    costs[i] = c
                total += delta
                accepted += 1
                b, old_b, other, target, used_free = undo
                if used_free:
                    free_inner.remove(target)
                    free_inner.append(old_b)
            else:
                b, old_b, other, target, used_free = undo
                positions[b] = old_b
                if other is not None:
                    positions[other] = target
        rate = accepted / max(moves_per_t, 1)
        if rate > 0.96:
            temperature *= 0.5
        elif rate > 0.8:
            temperature *= 0.9
        elif rate > 0.15:
            temperature *= 0.95
        else:
            temperature *= 0.7
        if temperature < 1e-6:
            break

    return Placement(nx=nx, ny=ny, positions=positions, nets=nets, lut_cluster=lut_cluster, cost=total)
