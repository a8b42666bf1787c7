"""Timing-aware variable ordering (the paper's future work, implemented).

The paper's conclusion proposes to "explore different variable
reordering techniques based on the timing criticality of BDD nodes".
The default flow reorders each supernode BDD for *size* only, which can
trap a late-arriving variable in the middle of the order where every
decomposition must rebuild logic on top of it.

:func:`timing_sift` runs the ordinary size sift first and then tries to
sink the latest-arriving variables toward the bottom of the order,
accepting each move only if the BDD does not grow beyond
``growth_limit`` times the sifted size.  With a late variable at the
bottom, the dynamic program can split it off as a shallow continuation
(e.g. ``f = early_logic · late_literal``), hiding the late arrival
behind logic that was going to be deep anyway.

Enabled with ``DDBDDConfig(timing_aware_reorder=True)``; the ablation
bench measures its effect on skewed-arrival workloads.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.bdd.manager import BDDManager
from repro.bdd.reorder import _level_rows, _rebuild, sift_inplace


def timing_sift(
    mgr: BDDManager,
    func: int,
    arrivals: Dict[int, int],
    growth_limit: float = 1.5,
) -> Tuple[BDDManager, int, List[int]]:
    """Size-sift, then sink late variables subject to a growth budget.

    ``arrivals`` maps each support variable to its mapping depth.
    Returns ``(manager, function, order)`` like the other reordering
    entry points.
    """
    support = mgr.support_ordered(func)
    work_mgr, work_f = _rebuild(mgr, func, support)
    base_size = sift_inplace(work_mgr, work_f, num_support=len(support))
    budget = max(base_size + 2, int(base_size * growth_limit))

    n = len(support)
    # Latest arrivals first; only variables later than the earliest
    # arrival are worth moving.
    min_arrival = min((arrivals.get(v, 0) for v in support), default=0)
    late_vars = sorted(
        (v for v in support if arrivals.get(v, 0) > min_arrival),
        key=lambda v: -arrivals.get(v, 0),
    )
    floor = n  # positions [floor, n) are already claimed by later vars
    for v in late_vars:
        if floor <= 1:
            break
        target = floor - 1
        pos = work_mgr.level_of(v)
        if pos >= target:
            floor = min(floor, pos)
            continue
        # Walk the variable down with adjacent swaps, tracking size.
        moved_to = pos
        while moved_to < target:
            work_mgr.swap_adjacent_levels(
                moved_to, rows=_level_rows(work_mgr, work_f, moved_to)
            )
            moved_to += 1
            if work_mgr.count_nodes(work_f) > budget:
                # Undo the whole descent: walk back up.
                while moved_to > pos:
                    moved_to -= 1
                    work_mgr.swap_adjacent_levels(
                        moved_to, rows=_level_rows(work_mgr, work_f, moved_to)
                    )
                break
        if moved_to == target:
            floor = target
    order = [v for v in work_mgr.order if v in set(support)]
    final_mgr, final_f = _rebuild(work_mgr, work_f, order)
    return final_mgr, final_f, order
