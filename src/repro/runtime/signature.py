"""Canonical supernode signatures for the content-addressed DP cache.

A supernode's dynamic program is a pure function of

* the supernode's reduced BDD DAG *up to variable renaming* (the DP and
  the reordering engines only look at structure, never at variable ids
  or names),
* the arrival (mapping) depth of each input,
* the polarity with which each input signal reaches the supernode (leaf
  negations are folded into emitted LUT functions), and
* the DP-relevant configuration: ``k``, ``thresh``, the special
  decomposition switch and the reordering effort knobs.

:func:`export_dag` normalizes the first item: support variables are
relabeled ``0..n-1`` in the owning manager's level order and the DAG is
serialized with a deterministic depth-first numbering, so two supernodes
that are identical up to variable renaming (and manager garbage) export
byte-identical DAGs.  :func:`signature` then hashes the DAG together
with the other three items into the cache key.

Deliberately *not* part of the key: signal names, the supernode's name,
manager node ids, collapse parameters (they only shape which supernodes
exist, not how one is synthesized), and ``verify*`` settings (they gate
checking, not results).

The canonical DAG doubles as the wire format for worker processes
(:mod:`repro.runtime.pool`): :func:`rebuild_dag` reconstructs a private
:class:`~repro.bdd.manager.BDDManager` holding exactly the function, on
which the DP behaves exactly as it would on the source manager (the
reordering engines are structural, so canonical relabeling does not
perturb them).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from repro.bdd.manager import BDDManager

#: Bump when the record format or anything entering the hash changes
#: meaning; old cache entries then miss instead of corrupting results.
SIGNATURE_VERSION = 1


@dataclass(frozen=True)
class CanonicalDAG:
    """Order-normalized serialization of one reduced BDD.

    ``nodes[i]`` is ``(var, lo, hi)`` for internal node reference
    ``i + 2``; references ``0``/``1`` are the terminals.  ``var`` is a
    canonical variable index (``0`` = top of the order).  ``var_map``
    retains the *source-manager* variable id behind each canonical
    index, so the caller can translate arrival depths and leaf signals;
    it is not part of the content hash.
    """

    num_vars: int
    nodes: Tuple[Tuple[int, int, int], ...]
    root: int
    var_map: Tuple[int, ...] = field(compare=False)


def export_dag(mgr: BDDManager, func: int) -> CanonicalDAG:
    """Serialize ``func`` into a :class:`CanonicalDAG`.

    Internal nodes are numbered by first visit of a depth-first
    traversal (hi edge before lo edge), which depends only on the DAG's
    structure — never on manager node ids or garbage.
    """
    if mgr.is_terminal(func):
        return CanonicalDAG(0, (), func, ())
    support = mgr.support_ordered(func)
    canon_of_var = {v: i for i, v in enumerate(support)}
    ref_of: Dict[int, int] = {mgr.ZERO: 0, mgr.ONE: 1}
    nodes: List[Tuple[int, int, int]] = []
    root = _export_node(mgr, func, canon_of_var, ref_of, nodes)
    return CanonicalDAG(len(support), tuple(nodes), root, tuple(support))


def _export_node(
    mgr: BDDManager, n: int, canon_of_var: Dict[int, int], ref_of: Dict[int, int],
    nodes: List[Tuple[int, int, int]],
) -> int:
    """Reference of ``n`` in the DAG :func:`export_dag` is building,
    appending its node (after its hi, then lo, subgraph) on first visit."""
    got = ref_of.get(n)
    if got is not None:
        return got
    var, lo, hi = mgr.node(n)
    hi_ref = _export_node(mgr, hi, canon_of_var, ref_of, nodes)
    lo_ref = _export_node(mgr, lo, canon_of_var, ref_of, nodes)
    ref = len(nodes) + 2
    nodes.append((canon_of_var[var], lo_ref, hi_ref))
    ref_of[n] = ref
    return ref


def rebuild_dag(dag: CanonicalDAG) -> Tuple[BDDManager, int]:
    """Reconstruct the function in a fresh private manager.

    The manager has ``dag.num_vars`` variables in identity order, so
    canonical index ``i`` is variable ``i`` at level ``i`` — the same
    relative order the source support had, which keeps the downstream
    reordering and DP bit-compatible with a run on the source manager.
    """
    mgr = BDDManager(dag.num_vars)
    funcs: List[int] = [mgr.ZERO, mgr.ONE]
    for var, lo, hi in dag.nodes:
        funcs.append(mgr._mk(var, funcs[lo], funcs[hi]))
    return mgr, funcs[dag.root]


def dag_size(dag: CanonicalDAG) -> int:
    """Internal node count of the serialized DAG."""
    return len(dag.nodes)


def signature(
    dag: CanonicalDAG,
    arrivals: Sequence[int],
    polarities: Sequence[bool],
    k: int,
    thresh: int,
    use_special_decompositions: bool,
    reorder_effort: str,
    timing_aware_reorder: bool,
) -> str:
    """Content-address of one supernode DP instance (sha256 hex).

    ``arrivals[i]`` / ``polarities[i]`` describe canonical variable
    ``i``: its input mapping depth and whether the leaf signal arrives
    complemented.  Both are per-canonical-variable profiles — the
    normalization in :func:`export_dag` fixes their order, so the sorted
    variable relabeling and the profiles always agree.
    """
    if len(arrivals) != dag.num_vars or len(polarities) != dag.num_vars:
        raise ValueError("arrival/polarity profile length must match the DAG support")
    payload = {
        "v": SIGNATURE_VERSION,
        "dag": [list(n) for n in dag.nodes],
        "root": dag.root,
        "arrivals": list(arrivals),
        "polarities": [1 if p else 0 for p in polarities],
        "k": k,
        "thresh": thresh,
        "special": 1 if use_special_decompositions else 0,
        "reorder": reorder_effort,
        "timing_reorder": 1 if timing_aware_reorder else 0,
    }
    blob = json.dumps(payload, separators=(",", ":"), sort_keys=True)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()
