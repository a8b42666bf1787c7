"""Table II — node-level decomposition comparison.

The paper's methodology: run the collapsing algorithm over all
benchmark circuits, keep every collapsed node whose BDD has more than
50 nodes, then decompose each such node with both the DDBDD dynamic
program and the BDS-pga heuristic (zero input arrivals) and compare
mapping depths.  The paper found 103 such nodes, DDBDD uniformly
better, with a reduction histogram of 1:69, 2:14, 3:10, 4:5, 5:1 and
depth sums 292 (DDBDD) vs 444 (BDS-pga).
"""

from __future__ import annotations

from collections import Counter
from typing import List, Optional, Sequence, Tuple

from repro.baselines.bdspga import BDSPgaConfig, decompose_bdd_bds
from repro.benchgen import TABLE3_SUITE, build_circuit
from repro.core import DDBDDConfig
from repro.core.dp import BDDSynthesizer
from repro.experiments.report import TableResult
from repro.flow import FlowState, run_stages


def collect_large_nodes(
    circuits: Sequence[str],
    config: DDBDDConfig,
    min_bdd_size: int = 50,
) -> List[Tuple[str, object, int]]:
    """(circuit, manager, function) for every collapsed node with a
    BDD above ``min_bdd_size`` nodes.

    Runs the front half of the standard flow (the :mod:`repro.flow`
    ``sweep`` and ``collapse`` stages) and harvests the collapsed
    working network.
    """
    out = []
    for name in circuits:
        net = build_circuit(name)
        state = run_stages(FlowState.initial(net, config), ("sweep", "collapse"))
        work = state.work
        for node in work.nodes.values():
            if work.mgr.count_nodes(node.func) > min_bdd_size:
                out.append((name, work.mgr, node.func))
    return out


def run_table2(
    circuits: Optional[Sequence[str]] = None,
    config: Optional[DDBDDConfig] = None,
    min_bdd_size: int = 50,
) -> TableResult:
    """Regenerate Table II (depth reductions on large collapsed nodes)."""
    config = config or DDBDDConfig()
    names = list(circuits or TABLE3_SUITE)
    nodes = collect_large_nodes(names, config, min_bdd_size)

    histogram: Counter = Counter()
    sum_ddbdd = 0
    sum_bds = 0
    worse = 0
    for _, mgr, func in nodes:
        zero = {v: 0 for v in mgr.support(func)}
        synth = BDDSynthesizer(mgr, func, zero, config)
        d_dd = synth.synthesize()
        _, _, d_bds = decompose_bdd_bds(mgr, func, zero, BDSPgaConfig(k=config.k))
        sum_ddbdd += d_dd
        sum_bds += d_bds
        reduction = d_bds - d_dd
        histogram[reduction] += 1
        if reduction < 0:
            worse += 1

    rows = [["reduced by " + str(k), v] for k, v in sorted(histogram.items(), reverse=True)]
    return TableResult(
        name=f"Table II: DDBDD vs BDS-pga decomposition on {len(nodes)} collapsed nodes (BDD > {min_bdd_size})",
        columns=["mapping-depth delta (BDS - DDBDD)", "#nodes"],
        rows=rows,
        summary={
            "nodes": len(nodes),
            "sum_depth_ddbdd": sum_ddbdd,
            "sum_depth_bdspga": sum_bds,
            "nodes_where_ddbdd_worse": worse,
        },
        notes=[
            "paper: 103 nodes; histogram 1:69 2:14 3:10 4:5 5:1; sums 292 vs 444",
        ],
    )
