"""Depth-optimal LUT mapping with area recovery (DAOmap-style).

Phase 1 enumerates priority cuts and computes depth-optimal labels.
Phase 2 (repeated ``area_passes`` times) walks the cover in reverse
topological order from the POs, re-selecting at each needed node the
cut with the best area flow among those still meeting the node's
required time (global target = the phase-1 optimal depth); leaves of
the chosen cut inherit required times.  Because every node can always
fall back to its depth-optimal cut, the final mapping provably keeps
the phase-1 depth while shedding area — the DAOmap/ABC recipe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.aig.aig import AIG, lit_var
from repro.mapping.cuts import Cut, enumerate_cuts
from repro.mapping.cover import extract_cover
from repro.network.netlist import BooleanNetwork


@dataclass
class MapperConfig:
    """Mapper tunables.

    ``cut_limit`` bounds priority cuts per node; ``area_passes`` is the
    number of area-recovery iterations; ``slack`` relaxes the depth
    target by that many levels (0 = depth-optimal mapping).
    """

    k: int = 5
    cut_limit: int = 12
    area_passes: int = 2
    slack: int = 0


@dataclass
class MappingResult:
    """A mapped design: the LUT network plus mapping statistics."""

    network: BooleanNetwork
    depth: int
    area: int
    label_depth: int  # phase-1 depth-optimal label at the POs


def map_aig(aig: AIG, config: Optional[MapperConfig] = None) -> MappingResult:
    """Map an AIG to a K-LUT network."""
    config = config or MapperConfig()
    cuts, label, _af = enumerate_cuts(aig, config.k, config.cut_limit)

    po_nodes = {lit_var(l) for l in aig.pos.values() if lit_var(l) != 0}
    pi_set = set(aig.pis)
    target = max((label[n] for n in po_nodes), default=0) + config.slack

    # Area-flow values start from the depth-oriented pass; refine by
    # re-running selection with updated flows.
    area_flow: Dict[int, float] = {0: 0.0}
    for pi in aig.pis:
        area_flow[pi] = 0.0
    for node in aig.topological_ands():
        area_flow[node] = cuts[node][0].area_flow if cuts[node] else 0.0

    chosen: Dict[int, Cut] = {}
    for _ in range(max(1, config.area_passes)):
        chosen = _backward_select(aig, cuts, label, area_flow, po_nodes, pi_set, target)
        _update_area_flow(aig, cuts, chosen, area_flow)

    network = extract_cover(aig, chosen)
    # Actual arrival over the final cover.
    arrival: Dict[int, int] = {0: 0}
    for pi in aig.pis:
        arrival[pi] = 0
    for node in aig.topological_ands():
        cut = chosen.get(node)
        if cut is not None:
            arrival[node] = 1 + max((arrival[x] for x in cut.leaves), default=-1)
    depth = max((arrival.get(n, 0) for n in po_nodes), default=0)
    return MappingResult(network=network, depth=depth, area=len(network.nodes), label_depth=target)


def _backward_select(
    aig: AIG,
    cuts: Dict[int, List[Cut]],
    label: Dict[int, int],
    area_flow: Dict[int, float],
    po_nodes,
    pi_set,
    target: int,
) -> Dict[int, Cut]:
    required: Dict[int, int] = {n: target for n in po_nodes}
    chosen: Dict[int, Cut] = {}
    for node in reversed(list(aig.topological_ands())):
        req = required.get(node)
        if req is None:
            continue  # not needed by the cover
        best: Optional[Cut] = None
        best_key = None
        for cut in cuts[node]:
            depth = 1 + max(label[x] for x in cut.leaves)
            if depth > req:
                continue
            key = (math.fsum(area_flow[x] for x in cut.leaves), depth, cut.size)
            if best is None or key < best_key:
                best, best_key = cut, key
        if best is None:
            # Guaranteed to exist: the depth-optimal cut meets label[n] ≤ req
            # whenever required times were propagated from the label target.
            best = min(cuts[node], key=lambda c: c.depth)
        chosen[node] = best
        for leaf in best.leaves:
            if leaf in pi_set or leaf == 0:
                continue
            required[leaf] = min(required.get(leaf, req - 1), req - 1)
    return chosen


def _update_area_flow(
    aig: AIG,
    cuts: Dict[int, List[Cut]],
    chosen: Dict[int, Cut],
    area_flow: Dict[int, float],
) -> None:
    """Refresh area flows using the current selection and real fanouts
    in the mapped cover."""
    refs: Dict[int, int] = {}
    for node, cut in chosen.items():
        for leaf in cut.leaves:
            refs[leaf] = refs.get(leaf, 0) + 1
    for node in aig.topological_ands():
        cut = chosen.get(node)
        if cut is None:
            cut = cuts[node][0] if cuts[node] else None
        if cut is None:
            continue
        flow = 1.0 + math.fsum(area_flow[x] for x in cut.leaves)
        area_flow[node] = flow / max(refs.get(node, 1), 1)
