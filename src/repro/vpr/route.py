"""PathFinder-style negotiated-congestion routing.

The routing fabric is modeled at channel granularity: every boundary
between adjacent grid cells offers ``W`` tracks.  Each net is routed as
a Steiner-ish tree by breadth-first waves that may reuse the net's own
tree for free; congestion is resolved by the PathFinder recipe — a
present-usage penalty plus an accumulating history cost, iterating
rip-up-and-reroute until no channel is over capacity.  The minimum
channel width is found by binary search, after which the paper's
methodology routes at ``1.2 × Wmin``.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.vpr.place import Net, Placement

Cell = Tuple[int, int]
Edge = Tuple[Cell, Cell]


@dataclass
class RoutingResult:
    """Outcome of routing at one channel width."""

    success: bool
    width: int
    iterations: int
    sink_hops: Dict[Tuple[str, str], int]  # (net name, sink block) -> path hops
    total_wirelength: int
    max_overuse: int


def _edge(a: Cell, b: Cell) -> Edge:
    return (a, b) if a <= b else (b, a)


def _neighbors(cell: Cell, nx: int, ny: int) -> List[Cell]:
    x, y = cell
    out = []
    if x > 0:
        out.append((x - 1, y))
    if x < nx + 1:
        out.append((x + 1, y))
    if y > 0:
        out.append((x, y - 1))
    if y < ny + 1:
        out.append((x, y + 1))
    return out


def route(
    placement: Placement,
    width: int,
    max_iterations: int = 30,
    history_gain: float = 0.4,
    present_penalty: float = 2.5,
    criticalities: Optional[Dict[str, float]] = None,
) -> RoutingResult:
    """Route all placed nets with ``width`` tracks per channel.

    ``criticalities`` (net name → [0, 1]) enables VPR's timing-driven
    cost: critical nets see almost pure distance cost (shortest paths,
    no detours), non-critical nets absorb the congestion penalties.
    """
    nx, ny = placement.nx, placement.ny
    nets = placement.nets
    positions = placement.positions
    criticalities = criticalities or {}

    history: Dict[Edge, float] = {}
    usage: Dict[Edge, int] = {}
    trees: Dict[str, List[Edge]] = {}
    sink_hops: Dict[Tuple[str, str], int] = {}
    crit_now = 0.0  # criticality of the net currently being routed

    def edge_cost(e: Edge) -> float:
        base = 1.0 + history.get(e, 0.0)
        over = usage.get(e, 0) + 1 - width
        if over > 0:
            base *= present_penalty * (1 + over)
        # Timing-driven blend: critical nets mostly ignore congestion
        # price signals (they must take the short way); PathFinder's
        # history still grows on overuse, so the non-critical nets move.
        return crit_now * 1.0 + (1.0 - crit_now) * base

    def route_net(n: Net) -> None:
        nonlocal crit_now
        crit_now = min(0.95, criticalities.get(n.name, 0.0))
        src = positions[n.driver]
        tree_cells: Set[Cell] = {src}
        tree_edges: List[Edge] = []
        hops_from_src: Dict[Cell, int] = {src: 0}
        # Route sinks nearest-first (stabilizes tree sharing).
        order = sorted(
            n.sinks,
            key=lambda s: abs(positions[s][0] - src[0]) + abs(positions[s][1] - src[1]),
        )
        for sink in order:
            dst = positions[sink]
            if dst in tree_cells:
                sink_hops[(n.name, sink)] = hops_from_src.get(dst, 0)
                continue
            # Dijkstra from the whole current tree.
            dist: Dict[Cell, float] = {c: 0.0 for c in tree_cells}
            prev: Dict[Cell, Cell] = {}
            # sorted(): heap tie-breaks follow insertion order, so
            # seeding from a set would make the Dijkstra tree (and the
            # routed hops) hash-seed-dependent.
            heap = [(0.0, c) for c in sorted(tree_cells)]
            heapq.heapify(heap)
            seen: Set[Cell] = set()
            while heap:
                d, cell = heapq.heappop(heap)
                if cell in seen:
                    continue
                seen.add(cell)
                if cell == dst:
                    break
                for nb in _neighbors(cell, nx, ny):
                    e = _edge(cell, nb)
                    ndist = d + edge_cost(e)
                    if ndist < dist.get(nb, float("inf")):
                        dist[nb] = ndist
                        prev[nb] = cell
                        heapq.heappush(heap, (ndist, nb))
            # Walk back, adding edges.
            cell = dst
            path: List[Cell] = [dst]
            while cell not in tree_cells:
                cell = prev[cell]
                path.append(cell)
            path.reverse()  # tree cell ... dst
            join = path[0]
            steps = hops_from_src.get(join, 0)
            for a, b in zip(path, path[1:]):
                e = _edge(a, b)
                usage[e] = usage.get(e, 0) + 1
                tree_edges.append(e)
                steps += 1
                tree_cells.add(b)
                hops_from_src[b] = steps
            sink_hops[(n.name, sink)] = hops_from_src[dst]
        trees[n.name] = tree_edges

    def rip_up(n: Net) -> None:
        for e in trees.get(n.name, []):
            usage[e] -= 1
        trees[n.name] = []

    iterations = 0
    for iteration in range(1, max_iterations + 1):
        iterations = iteration
        if iteration == 1:
            for n in nets:
                route_net(n)
        else:
            for n in nets:
                rip_up(n)
                route_net(n)
        overused = {e: u - width for e, u in usage.items() if u > width}
        if not overused:
            break
        for e, over in overused.items():
            history[e] = history.get(e, 0.0) + history_gain * over

    overused = {e: u - width for e, u in usage.items() if u > width}
    return RoutingResult(
        success=not overused,
        width=width,
        iterations=iterations,
        sink_hops=sink_hops,
        total_wirelength=sum(usage.values()),
        max_overuse=max(overused.values()) if overused else 0,
    )


def minimum_channel_width(
    placement: Placement, lo: int = 2, hi: int = 64, max_iterations: int = 25
) -> Tuple[int, RoutingResult]:
    """Binary-search the minimum routable channel width."""
    best: Optional[Tuple[int, RoutingResult]] = None
    # Grow `hi` until routable.
    while hi <= 512:
        result = route(placement, hi, max_iterations)
        if result.success:
            best = (hi, result)
            break
        hi *= 2
    if best is None:
        raise RuntimeError("unroutable even at width 512")
    lo = max(1, lo)
    hi_known = best[0]
    while lo < hi_known:
        mid = (lo + hi_known) // 2
        result = route(placement, mid, max_iterations)
        if result.success:
            best = (mid, result)
            hi_known = mid
        else:
            lo = mid + 1
    return best
