"""Table I — collapsing ablation.

The paper compares circuit mapping depths produced by DDBDD *with* the
gain-based partial collapsing (``Delay_w``) and *without* it
(``Delay_wo``), reporting that collapsing always gives better or equal
depth.  We regenerate both rows for the Table I suite.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional, Sequence

from repro.benchgen import TABLE1_SUITE, build_circuit
from repro.core import DDBDDConfig
from repro.experiments.report import TableResult
from repro.flow import run_flow


def run_table1(
    circuits: Optional[Sequence[str]] = None,
    config: Optional[DDBDDConfig] = None,
) -> TableResult:
    """Regenerate Table I (depth with vs without Algorithm 2).

    Both rows run the same :mod:`repro.flow` stages; the
    ``collapse=False`` row simply skips the ``collapse`` stage.
    """
    config = config or DDBDDConfig()
    names = list(circuits or TABLE1_SUITE)
    rows = []
    wins = ties = losses = 0
    for name in names:
        net = build_circuit(name)
        with_c = run_flow(net, replace(config, collapse=True))
        without_c = run_flow(net, replace(config, collapse=False))
        rows.append([name, with_c.depth, without_c.depth, with_c.area, without_c.area])
        if with_c.depth < without_c.depth:
            wins += 1
        elif with_c.depth == without_c.depth:
            ties += 1
        else:
            losses += 1
    result = TableResult(
        name="Table I: mapping depth with (Delay_w) vs without (Delay_wo) collapsing",
        columns=["circuit", "Delay_w", "Delay_wo", "Area_w", "Area_wo"],
        rows=rows,
        summary={
            "circuits_where_collapsing_helps": wins,
            "ties": ties,
            "circuits_where_collapsing_hurts": losses,
        },
        notes=[
            "paper claim: collapsing always produces better or equal mapping depth",
        ],
    )
    return result
