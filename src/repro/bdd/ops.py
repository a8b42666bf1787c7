"""Derived BDD operators beyond the manager's core set.

These round out the engine to the feature set synthesis codebases
expect: generalized cofactors (constrain/restrict), Boolean difference,
variable permutation, implication/containment tests, and the
don't-care-aware minimization primitive used by
:mod:`repro.network.dontcare`, and the cross-manager rebuild
(:func:`translate`) that emission, verification and equivalence
checking share.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence

from repro.bdd.manager import BDDManager


def implies(mgr: BDDManager, f: int, g: int) -> bool:
    """Containment test ``f ≤ g`` (f implies g)."""
    return mgr.apply_and(f, mgr.negate(g)) == mgr.ZERO


def boolean_difference(mgr: BDDManager, f: int, v: int) -> int:
    """∂f/∂v: where toggling ``v`` toggles ``f``."""
    return mgr.apply_xor(mgr.cofactor(f, v, True), mgr.cofactor(f, v, False))


def permute(mgr: BDDManager, f: int, mapping: Dict[int, int]) -> int:
    """Rename variables of ``f`` (``mapping`` old → new, injective)."""
    values = set(mapping.values())
    if len(values) != len(mapping):
        raise ValueError("variable mapping must be injective")
    result = f
    # Compose one variable at a time through fresh temporaries to avoid
    # capture; with BDD compose the safe route is smallest-level last.
    support = mgr.support_ordered(f)
    overlap = values & set(support)
    temp: Dict[int, int] = {}
    work = f
    for old in support:
        if old in mapping and mapping[old] != old:
            t = mgr.add_var(f"_tmp{old}")
            work = mgr.compose(work, old, mgr.var(t))
            temp[t] = mapping[old]
    for t, new in temp.items():
        work = mgr.compose(work, t, mgr.var(new))
    return work


def constrain(mgr: BDDManager, f: int, care: int) -> int:
    """Coudert/Madre generalized cofactor ``f ⇓ care``.

    Agrees with ``f`` wherever ``care`` holds; outside the care set the
    value is taken from the nearest care point, which tends to shrink
    the BDD.  ``care`` must not be constant false.
    """
    if care == mgr.ZERO:
        raise ValueError("care set is empty")
    cache: Dict[tuple, int] = {}

    def walk(ff: int, cc: int) -> int:
        if cc == mgr.ONE or mgr.is_terminal(ff):
            return ff
        key = (ff, cc)
        got = cache.get(key)
        if got is not None:
            return got
        level_f = mgr.level_of(mgr.top_var(ff)) if not mgr.is_terminal(ff) else None
        level_c = mgr.level_of(mgr.top_var(cc))
        if level_f is None or level_c < level_f:
            v = mgr.top_var(cc)
        else:
            v = mgr.top_var(ff)
        c0 = mgr.cofactor(cc, v, False)
        c1 = mgr.cofactor(cc, v, True)
        f0 = mgr.cofactor(ff, v, False)
        f1 = mgr.cofactor(ff, v, True)
        if c0 == mgr.ZERO:
            result = walk(f1, c1)
        elif c1 == mgr.ZERO:
            result = walk(f0, c0)
        else:
            result = mgr.ite(mgr.var(v), walk(f1, c1), walk(f0, c0))
        cache[key] = result
        return result

    return walk(f, care)


def translate(src: BDDManager, f: int, dst: BDDManager, lit_by_var: Dict[int, int]) -> int:
    """Rebuild ``f`` (a BDD of ``src``) inside ``dst``, putting the
    ``dst`` function ``lit_by_var[v]`` in place of each variable ``v``.

    The walk visits hi before lo, so ``dst`` creates its rows in one
    fixed order; covers break DP ties on row numbers.
    """
    return _translate(src, f, dst, lit_by_var, {})


def _translate(
    src: BDDManager, n: int, dst: BDDManager, lit_by_var: Dict[int, int],
    memo: Dict[int, int],
) -> int:
    if n == src.ZERO:
        return dst.ZERO
    if n == src.ONE:
        return dst.ONE
    got = memo.get(n)
    if got is not None:
        return got
    var, lo, hi = src.node(n)
    r = dst.ite(
        lit_by_var[var],
        _translate(src, hi, dst, lit_by_var, memo),
        _translate(src, lo, dst, lit_by_var, memo),
    )
    memo[n] = r
    return r


def minimize_with_dc(mgr: BDDManager, f: int, dont_care: int) -> int:
    """Pick a small cover inside the interval ``[f·¬dc, f+dc]`` using
    the ISOP of the interval (a classic don't-care minimization)."""
    from repro.bdd.isop import isop_interval

    lower = mgr.apply_and(f, mgr.negate(dont_care))
    upper = mgr.apply_or(f, dont_care)
    _, g = isop_interval(mgr, lower, upper)
    return g if mgr.count_nodes(g) <= mgr.count_nodes(f) else f


# ----------------------------------------------------------------------
# Serialization
# ----------------------------------------------------------------------
def serialize(mgr: BDDManager, roots: Sequence[int]) -> dict:
    """Dump functions to a JSON-able dict (shared structure kept)."""
    order: List[int] = []
    index: Dict[int, int] = {0: 0, 1: 1}
    nodes: List[List[int]] = []

    def visit(n: int) -> int:
        if n in index:
            return index[n]
        var, lo, hi = mgr.node(n)
        lo_i = visit(lo)
        hi_i = visit(hi)
        idx = len(nodes) + 2
        index[n] = idx
        nodes.append([var, lo_i, hi_i])
        return idx

    root_ids = [visit(r) for r in roots]
    return {
        "num_vars": mgr.num_vars,
        "var_names": [mgr.var_name(v) for v in range(mgr.num_vars)],
        "order": mgr.order,
        "nodes": nodes,
        "roots": root_ids,
    }


def deserialize(data: dict) -> tuple:
    """Rebuild ``(manager, roots)`` from :func:`serialize` output."""
    mgr = BDDManager(
        data["num_vars"], var_names=data["var_names"], order=data["order"]
    )
    ids: Dict[int, int] = {0: mgr.ZERO, 1: mgr.ONE}
    for offset, (var, lo_i, hi_i) in enumerate(data["nodes"]):
        node = mgr.ite(mgr.var(var), ids[hi_i], ids[lo_i])
        ids[offset + 2] = node
    roots = [ids[r] for r in data["roots"]]
    return mgr, roots
