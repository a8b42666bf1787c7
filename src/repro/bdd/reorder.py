"""Variable reordering.

DDBDD reorders the BDD of every supernode before running the synthesis
dynamic program ("reduce the size of the BDD by a reordering
algorithm", Algorithm 3, citing Rudell's sifting [18]).  Two engines:

* :func:`sift_inplace` — classical Rudell sifting using in-place
  adjacent-level swaps (:meth:`BDDManager.swap_adjacent_levels`):
  each variable is moved through every position and parked where the
  shared node count is smallest.  O(n²·w) where w is a level width —
  fast enough for the ≤200-node supernode BDDs even with dozens of
  support variables.  Requires a *private* manager holding only the
  function being sifted (in-place rewriting invalidates no ids, but
  the level moves are global to the manager).
* :func:`exhaustive_reorder` — all permutations, for tiny supports and
  for cross-checking sifting in tests.

All entry points return ``(manager, function, order)``; the manager is
fresh (the caller's manager is never mutated).
"""

from __future__ import annotations

from itertools import permutations
from typing import Dict, List, Optional, Sequence, Tuple

from repro.bdd.manager import BDDManager


def _rebuild(
    mgr: BDDManager, f: int, order: Sequence[int]
) -> Tuple[BDDManager, int]:
    """Rebuild ``f`` in a fresh manager whose level order is ``order``.

    ``order`` lists *source-manager* variable ids, top level first; it
    must cover at least the support of ``f``.  The new manager reuses
    the same variable ids and names as the source.
    """
    new_order = list(order) + [v for v in range(mgr.num_vars) if v not in set(order)]
    names = [mgr.var_name(v) for v in range(mgr.num_vars)]
    fresh = BDDManager(mgr.num_vars, var_names=names, order=new_order)
    g = mgr.transfer(f, fresh)
    return fresh, g


def _level_rows(mgr: BDDManager, root: int, level: int) -> List[int]:
    """The rows at ``level`` reachable from ``root``, ascending: the
    ``rows`` argument of :meth:`BDDManager.swap_adjacent_levels` for a
    caller that keeps no live rows of its own."""
    x = mgr.var_at_level(level)
    var = mgr._var
    return sorted({h >> 1 for h in mgr.reachable(root) if h > 1 and var[h >> 1] == x})


def reorder_for_size(
    mgr: BDDManager, f: int, effort: str = "sift"
) -> Tuple[BDDManager, int, List[int]]:
    """Minimize the node count of ``f`` by reordering its support.

    ``effort`` is ``"none"``, ``"sift"`` or ``"exact"`` (exhaustive,
    only sensible for supports of ≤ 7 variables; larger supports fall
    back to sifting).  Always returns a fresh manager.
    """
    support = mgr.support_ordered(f)
    if effort == "none" or len(support) <= 1:
        fresh, g = _rebuild(mgr, f, support)
        return fresh, g, support
    if effort == "exact" and len(support) <= 7:
        return exhaustive_reorder(mgr, f)
    if effort not in ("sift", "exact"):
        raise ValueError(f"unknown reorder effort {effort!r}")
    return sift(mgr, f)


def sift(mgr: BDDManager, f: int) -> Tuple[BDDManager, int, List[int]]:
    """Rudell sifting of ``f``; returns a fresh, compacted manager."""
    support = mgr.support_ordered(f)
    work_mgr, work_f = _rebuild(mgr, f, support)
    sift_inplace(work_mgr, work_f, num_support=len(support))
    # Compact: drop the garbage nodes sifting left behind.
    final_order = [v for v in work_mgr.order if v in set(support)]
    final_mgr, final_f = _rebuild(work_mgr, work_f, final_order)
    return final_mgr, final_f, final_order


def sift_inplace(
    mgr: BDDManager,
    root: int,
    num_support: Optional[int] = None,
    audit: bool = False,
) -> int:
    """Sift the top ``num_support`` levels of a private manager in
    place; returns the final shared node count of ``root``.

    Every id reachable from ``root`` keeps its function throughout.
    ``audit`` cross-checks the incremental live set and per-variable
    rows against a from-scratch traversal on exit (tests enable it;
    production runs keep the repo's zero-overhead-by-default
    convention).

    A variable stops moving in a direction once a lower bound shows
    that no further position can beat the best size so far.  While it
    moves down from level ``p``, the levels above ``p`` keep their live
    handles (the set of variables above each of them is fixed), every
    support variable at ``p`` or below keeps at least one node, and the
    live terminals stay; moving up is the mirror image.  Size depends
    only on the position, so the bound skips only positions that cannot
    be strictly smaller: the order found is the unpruned sift's.
    """
    n = num_support if num_support is not None else mgr.num_vars
    if n <= 1:
        return mgr.count_nodes(root)
    # One reachability DFS up front; afterwards the live set is
    # maintained *incrementally* from the edge deltas each swap reports
    # (the classical loop pays a full traversal per swap, which
    # dominates sifting cost).  ``ref[m]`` counts m's live parents,
    # plus a pin on the root; a node dies when its count reaches zero
    # and is reborn — children re-pinned — when a swap re-links it.
    lo_a = mgr._lo
    hi_a = mgr._hi
    var_a = mgr._var
    vat = mgr._var_at_level
    live = mgr.reachable(root)
    ref: Dict[int, int] = {root: 1}
    ref_get = ref.get
    # ``rows_of[v]`` maps each row testing v with a live handle to its
    # number of live polarities (1 or 2); ``width[v]`` sums them, the
    # live handles at v's level.  A swap gets the rows of its upper
    # level from here instead of filtering the whole live set.
    rows_of: List[Dict[int, int]] = [{} for _ in range(mgr.num_vars)]
    width = [0] * mgr.num_vars
    for node in live:
        if node > 1:
            p = node & 1
            i = node >> 1
            c = lo_a[i] ^ p
            ref[c] = ref_get(c, 0) + 1
            c = hi_a[i] ^ p
            ref[c] = ref_get(c, 0) + 1
            v = var_a[i]
            rows_of[v][i] = rows_of[v].get(i, 0) + 1
            width[v] += 1
    live_add = live.add
    live_discard = live.discard
    best_size = len(live)
    terminals = best_size - sum(width)
    # Support is order-independent, and each support variable keeps at
    # least one node in every order; a level without nodes counts 0.
    in_support = [1 if w else 0 for w in width]
    support_size = sum(in_support)
    num_levels = len(vat)
    # Sift variables in decreasing occupancy (Rudell's priority).
    priority = sorted((vat[l] for l in range(n)), key=lambda v: -width[v])
    record: List[Tuple[int, int, int, int, int]] = []

    def swap(pos: int) -> int:
        x = vat[pos]
        rows_x = rows_of[x]
        record.clear()
        if not mgr.swap_adjacent_levels(pos, rows=sorted(rows_x), record=record):
            return len(live)
        rows_y = rows_of[vat[pos]]
        # Apply the edge deltas in two batched passes (all references
        # gained, then all dropped).  Reference counts are additive, and
        # every birth/death transition re-pins/releases its children, so
        # the final live set is independent of the processing order.
        # The record carries *stored* child handles per rewritten row;
        # each live polarity of the row sees the deltas through its own
        # complement bit.  A rewritten row keeps its live polarities and
        # now tests the lower variable.
        incs: List[int] = []
        decs: List[int] = []
        ipush = incs.append
        dpush = decs.append
        moved = 0
        for row, old_lo, old_hi, new_lo, new_hi in record:
            count = rows_x.pop(row)
            rows_y[row] = count
            moved += count
            h = row << 1
            lo_moved = new_lo != old_lo
            hi_moved = new_hi != old_hi
            if h in live:
                if lo_moved:
                    ipush(new_lo)
                    dpush(old_lo)
                if hi_moved:
                    ipush(new_hi)
                    dpush(old_hi)
            h |= 1
            if h in live:
                if lo_moved:
                    ipush(new_lo ^ 1)
                    dpush(old_lo ^ 1)
                if hi_moved:
                    ipush(new_hi ^ 1)
                    dpush(old_hi ^ 1)
        width[x] -= moved
        width[vat[pos]] += moved
        while incs:
            m = incs.pop()
            r = ref_get(m, 0)
            ref[m] = r + 1
            if r == 0:
                live_add(m)
                if m > 1:
                    i = m >> 1
                    v = var_a[i]
                    rows_of[v][i] = rows_of[v].get(i, 0) + 1
                    width[v] += 1
                    ipush(lo_a[i] ^ (m & 1))
                    ipush(hi_a[i] ^ (m & 1))
        while decs:
            m = decs.pop()
            r = ref[m] - 1
            ref[m] = r
            if r == 0:
                live_discard(m)
                if m > 1:
                    i = m >> 1
                    v = var_a[i]
                    rows = rows_of[v]
                    if rows[i] == 1:
                        del rows[i]
                    else:
                        rows[i] = 1
                    width[v] -= 1
                    dpush(lo_a[i] ^ (m & 1))
                    dpush(hi_a[i] ^ (m & 1))
        return len(live)

    for v in priority:
        if not in_support[v]:
            continue  # no position changes the size, so it stays put
        pos = mgr.level_of(v)
        best_pos = pos
        # Live handles above v, and support variables at v's level or
        # below: the levels above keep their handles on the way down.
        above = sum(width[vat[l]] for l in range(pos))
        support_below = sum(in_support[vat[l]] for l in range(pos, num_levels))
        # Move toward the bottom of the sifted region...
        while pos < n - 1 and above + support_below + terminals < best_size:
            size = swap(pos)
            w = vat[pos]  # passed above v, where it stays
            above += width[w]
            support_below -= in_support[w]
            pos += 1
            if size < best_size:
                best_size, best_pos = size, pos
        # ...then toward the top, where the levels below keep theirs...
        below = len(live) - terminals - above - width[v]
        support_above = support_size - support_below + 1
        while pos > 0 and below + support_above + terminals < best_size:
            size = swap(pos - 1)
            w = vat[pos]  # passed below v, where it stays
            below += width[w]
            support_above -= in_support[w]
            pos -= 1
            if size < best_size:
                best_size, best_pos = size, pos
        # ...and back to the best position seen.
        while pos < best_pos:
            swap(pos)
            pos += 1
        while pos > best_pos:
            swap(pos - 1)
            pos -= 1
    if audit:
        reach = mgr.reachable(root)
        expect: List[Dict[int, int]] = [{} for _ in rows_of]
        for h in reach:
            if h > 1:
                rows = expect[var_a[h >> 1]]
                rows[h >> 1] = rows.get(h >> 1, 0) + 1
        if live != reach or rows_of != expect or width != [sum(r.values()) for r in expect]:
            raise AssertionError("incremental live set drifted")
    return len(live)


def exhaustive_reorder(mgr: BDDManager, f: int) -> Tuple[BDDManager, int, List[int]]:
    """Try every permutation of the support (exact minimum size)."""
    support = mgr.support_ordered(f)
    best: Optional[Tuple[int, Tuple[int, ...]]] = None
    for perm in permutations(support):
        cand_mgr, cand_f = _rebuild(mgr, f, perm)
        size = cand_mgr.count_nodes(cand_f)
        if best is None or size < best[0]:
            best = (size, perm)
    assert best is not None
    final_mgr, final_f = _rebuild(mgr, f, list(best[1]))
    return final_mgr, final_f, list(best[1])
