"""Picklable supernode emission records: export, replay, verification.

Every supernode DP runs against a private manager — in a worker
process or in-process — and may be served from the cache, so its
emission reaches the output network as *data*: an
:class:`EmissionRecord` lists the cells in creation order, each as
(fanin references, truth table), plus the supernode's output reference.

References are strings: ``"v<i>"`` is canonical input variable ``i`` of
the supernode (see :mod:`repro.runtime.signature`), ``"c<j>"`` is the
``j``-th cell of this record.  Truth tables are ``'0'``/``'1'`` strings
of length ``2**len(fanins)``; bit ``k`` of the row index gives the value
of ``fanins[k]`` (LSB first), matching
:meth:`repro.bdd.manager.BDDManager.truth_table` (export) and
:meth:`~repro.bdd.manager.BDDManager.from_truth_table` (replay).

Leaf polarities are already folded into the truth tables (exactly as
:meth:`~repro.core.dp.BDDSynthesizer.emit` folds them via its literal
map), so a record is only valid for the polarity/arrival profile it was
created under — both are part of the cache signature.

:func:`replay_record` splices a record into a target network exactly as
:meth:`~repro.core.dp.BDDSynthesizer.emit` would have written it there:
same creation order, same name counters, same fanin lists, same local
functions.
:func:`verify_record` rebuilds the record as a throwaway network and
audits it against the supernode function with
:func:`repro.analysis.covercheck.check_lut_cover` (K-feasibility plus
spot-simulation equivalence) — the corruption/poisoning gate for cache
hits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.bdd.ops import translate
from repro.network.netlist import BooleanNetwork
from repro.runtime.signature import CanonicalDAG, rebuild_dag


class RecordError(Exception):
    """A malformed or internally inconsistent emission record."""


@dataclass(frozen=True)
class EmissionCell:
    """One emitted LUT: fanin references and its truth table string."""

    fanins: Tuple[str, ...]
    truth: str


@dataclass(frozen=True)
class EmissionRecord:
    """One supernode's complete emission, decoupled from any network.

    ``out_ref`` names the supernode's output (a cell or a canonical
    leaf); ``out_neg`` its polarity relative to the supernode function;
    ``out_depth`` the mapping depth the DP proved.  ``states_visited``,
    ``bdd_size`` and ``num_inputs`` carry the DP statistics into
    :class:`repro.core.dp.SupernodeResult`.
    """

    cells: Tuple[EmissionCell, ...]
    out_ref: str
    out_neg: bool
    out_depth: int
    states_visited: int
    bdd_size: int
    num_inputs: int

    # ------------------------------------------------------------------
    # JSON round-trip (the cache's on-disk format)
    # ------------------------------------------------------------------
    def to_json_obj(self) -> dict:
        return {
            "cells": [[list(c.fanins), c.truth] for c in self.cells],
            "out": [self.out_ref, 1 if self.out_neg else 0, self.out_depth],
            "stats": [self.states_visited, self.bdd_size, self.num_inputs],
        }

    @staticmethod
    def from_json_obj(obj: object) -> "EmissionRecord":
        """Parse and structurally validate a JSON object.

        Raises :class:`RecordError` on any shape violation, so cache
        readers can treat arbitrary on-disk garbage as a miss.
        """
        try:
            assert isinstance(obj, dict)
            raw_cells = obj["cells"]
            out_ref, out_neg, out_depth = obj["out"]
            states, size, num_inputs = obj["stats"]
            cells: List[EmissionCell] = []
            for fanins, truth in raw_cells:
                fanins = tuple(str(f) for f in fanins)
                truth = str(truth)
                if len(truth) != (1 << len(fanins)) or set(truth) - {"0", "1"}:
                    raise RecordError(f"bad truth table {truth!r}")
                for ref in fanins:
                    _check_ref(ref, len(cells))
                cells.append(EmissionCell(fanins, truth))
            out_ref = str(out_ref)
            _check_ref(out_ref, len(cells))
            return EmissionRecord(
                cells=tuple(cells),
                out_ref=out_ref,
                out_neg=bool(out_neg),
                out_depth=int(out_depth),
                states_visited=int(states),
                bdd_size=int(size),
                num_inputs=int(num_inputs),
            )
        except RecordError:
            raise
        except Exception as exc:
            raise RecordError(f"malformed emission record: {exc!r}") from exc


def _check_ref(ref: str, num_cells: int) -> None:
    """Validate one ``v<i>``/``c<j>`` reference (``c`` must be earlier)."""
    kind, idx = ref[:1], ref[1:]
    if kind not in ("v", "c") or not idx.isdigit():
        raise RecordError(f"bad reference {ref!r}")
    if kind == "c" and int(idx) >= num_cells:
        raise RecordError(f"forward cell reference {ref!r}")


# ----------------------------------------------------------------------
# Export (DP side)
# ----------------------------------------------------------------------
def export_emission(
    net: BooleanNetwork,
    created: Sequence[str],
    leaf_ref: Dict[str, str],
    out: Tuple[str, bool, int],
    states_visited: int,
    bdd_size: int,
    num_inputs: int,
) -> EmissionRecord:
    """Serialize the cells ``created`` (in creation order) of ``net``.

    ``leaf_ref`` maps leaf signal names to their canonical ``v<i>``
    references; every cell fanin must be a leaf or an earlier created
    cell.  Truth tables are evaluated over each cell's fanin list (the
    table width is ``2**fanins``, bounded by the LUT size K).
    """
    ref_of: Dict[str, str] = dict(leaf_ref)
    cells: List[EmissionCell] = []
    for name in created:
        node = net.nodes[name]
        try:
            fanins = tuple(ref_of[f] for f in node.fanins)
        except KeyError as exc:
            raise RecordError(f"cell {name!r} uses foreign signal {exc.args[0]!r}") from exc
        variables = [net.var_of(f) for f in node.fanins]
        cells.append(EmissionCell(fanins, net.mgr.truth_table(node.func, variables)))
        ref_of[name] = f"c{len(cells) - 1}"
    out_sig, out_neg, out_depth = out
    if out_sig not in ref_of:
        raise RecordError(f"output {out_sig!r} is neither a leaf nor a created cell")
    return EmissionRecord(
        cells=tuple(cells),
        out_ref=ref_of[out_sig],
        out_neg=out_neg,
        out_depth=out_depth,
        states_visited=states_visited,
        bdd_size=bdd_size,
        num_inputs=num_inputs,
    )


# ----------------------------------------------------------------------
# Replay (parent side)
# ----------------------------------------------------------------------
def replay_record(
    net: BooleanNetwork,
    record: EmissionRecord,
    leaves: Sequence[Tuple[str, bool, int]],
    prefix: str,
) -> Tuple[str, bool, int]:
    """Splice ``record`` into ``net``; returns ``(signal, neg, depth)``.

    ``leaves[i]`` is the ``(signal, negated, depth)`` triple behind
    canonical variable ``i`` — the leaf signal a direct emission would
    have been given.  Negations are already folded into the record's
    truth tables, so only the signal names are consumed here.

    Cells are created with the emitter's naming scheme
    (``fresh_name(f"{prefix}_{counter}_")`` in creation order), so a
    replay is name-identical to a direct emission into ``net``.  A leaf
    reference beyond ``leaves`` raises :class:`RecordError`.
    """
    # ref -> (signal, variable): leaves resolve on first use, cells as
    # they are created.
    resolved: Dict[str, Tuple[str, int]] = {}

    def resolve(ref: str) -> Tuple[str, int]:
        got = resolved.get(ref)
        if got is None:
            idx = int(ref[1:])
            if ref[0] != "v" or idx >= len(leaves):
                raise RecordError(f"reference {ref!r} out of range for this supernode")
            sig = leaves[idx][0]
            got = resolved[ref] = (sig, net.var_of(sig))
        return got

    for i, cell in enumerate(record.cells):
        fanins = [resolve(r) for r in cell.fanins]
        func = net.mgr.from_truth_table(cell.truth, [v for _, v in fanins])
        name = net.fresh_name(f"{prefix}_{i + 1}_")
        net.add_node_function(name, list(dict.fromkeys(s for s, _ in fanins)), func)
        resolved[f"c{i}"] = (name, net.var_of(name))
    return (resolve(record.out_ref)[0], record.out_neg, record.out_depth)


# ----------------------------------------------------------------------
# Verification (cache-hit gate)
# ----------------------------------------------------------------------
def verify_record(
    record: EmissionRecord,
    dag: CanonicalDAG,
    polarities: Sequence[bool],
    k: int,
    sim_patterns: int = 64,
) -> bool:
    """Audit a (possibly cached) record against the supernode function.

    Rebuilds the record as a standalone LUT network over canonical
    inputs and runs :func:`repro.analysis.covercheck.check_lut_cover`
    against a single-node reference network holding the supernode
    function (with the leaf polarities and output negation folded in):
    K-feasibility plus the DD305 spot-simulation equivalence check.
    Returns ``False`` — never raises — on any structural or functional
    violation, so callers can treat bad cache entries as misses.
    """
    from repro.analysis.covercheck import check_lut_cover
    from repro.analysis.diagnostics import errors_of

    try:
        n = dag.num_vars
        cover = BooleanNetwork("record_cover")
        leaves: List[Tuple[str, bool, int]] = []
        for i in range(n):
            cover.add_pi(f"v{i}")
            leaves.append((f"v{i}", False, 0))
        sig, neg, _depth = replay_record(cover, record, leaves, prefix="rc")
        out_name = cover.fresh_name("rc_out_")
        out_lit = cover.mgr.var(cover.var_of(sig))
        cover.add_node_function(out_name, [sig], out_lit)
        cover.add_po("out", out_name)

        ref = BooleanNetwork("record_ref")
        for i in range(n):
            ref.add_pi(f"v{i}")
        priv_mgr, priv_func = rebuild_dag(dag)
        lit_by_var = {}
        for i in range(n):
            v = ref.var_of(f"v{i}")
            lit = ref.mgr.var(v)
            lit_by_var[i] = ref.mgr.negate(lit) if polarities[i] else lit
        ref_func = translate(priv_mgr, priv_func, ref.mgr, lit_by_var)
        if neg:
            ref_func = ref.mgr.negate(ref_func)
        ref.add_node_function("ref_out", [f"v{i}" for i in range(n)], ref_func)
        ref.add_po("out", "ref_out")

        diags = check_lut_cover(cover, k, source=ref, sim_patterns=sim_patterns)
        return not errors_of(diags)
    except Exception:
        return False
