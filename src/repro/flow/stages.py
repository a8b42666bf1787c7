"""Algorithm 1's four stages and the loop that runs them.

Each stage is a plain function over one :class:`FlowState` with a
boundary audit that runs right after it:

* ``sweep`` — constant/buffer/dangling cleanup of the working network.
* ``collapse`` — Algorithm 2 gain-based partial collapsing into
  supernodes.
* ``synth`` — the per-supernode Algorithm 3 dynamic program, run by the
  :mod:`repro.runtime` wavefront engine at every job count and cache
  mode; the output is cell-for-cell the same whatever the job count or
  cache state.
* ``map`` — PO binding, duplicate merging, K-LUT covering/packing and
  the final audits.

:func:`run_stages` times each stage body and its audit and records one
:class:`~repro.runtime.stats.PassTelemetry` row per stage.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, Optional, Sequence, Tuple

try:  # pragma: no cover - absent only on non-POSIX platforms
    import resource
except ImportError:  # pragma: no cover
    resource = None  # type: ignore[assignment]

from repro.analysis.diagnostics import WARNING, raise_on_errors, with_stage
from repro.analysis.failcheck import check_failure_reports
from repro.core.collapse import partial_collapse
from repro.core.config import DDBDDConfig
from repro.flow.state import FlowState
from repro.network.depth import network_depth, output_depths
from repro.network.netlist import BooleanNetwork
from repro.network.transform import sweep
from repro.runtime.schedule import wavefront_supernodes
from repro.runtime.stats import PassTelemetry


def sweep_stage(state: FlowState) -> None:
    """Algorithm 1 step 1: clean the working network."""
    with state.stats.stage("sweep"):
        sweep(state.work)


def collapse_stage(state: FlowState) -> None:
    """Algorithm 1 step 2: cluster the working network into supernodes
    (Algorithm 2), recording its statistics on the state."""
    with state.stats.stage("collapse"):
        state.collapse_stats = partial_collapse(state.work, state.config)


def synth_stage(state: FlowState) -> None:
    """Algorithm 1 step 3: emit each supernode's best delay-driven
    decomposition into a fresh mapped K-LUT network, in topological
    wavefronts (:func:`repro.runtime.schedule.wavefront_supernodes`)."""
    stats = state.stats
    mapped = BooleanNetwork(state.source.name + "_ddbdd")
    for pi in state.source.pis:
        mapped.add_pi(pi)
    state.mapped = mapped
    state.resolve.update({pi: (pi, False, 0) for pi in state.work.pis})
    state.external.update(state.work.pis)

    n_failures_before = len(stats.failures)
    # The engine accounts its own supernode count.
    with stats.stage("supernodes"):
        state.supernode_results = wavefront_supernodes(
            state.work, mapped, state.config, state.verifier,
            state.resolve, state.external, stats,
        )

    # Fold any failures this stage recovered (budget breaches that went
    # down the degradation ladder, worker-pool deaths) into the DD4xx
    # diagnostic vocabulary: warnings accumulate on the verifier like
    # any other stage finding; an unverified recovered cover (DD402)
    # aborts the flow here.
    new_reports = stats.failures[n_failures_before:]
    if new_reports:
        diags = with_stage(check_failure_reports(new_reports), "synth")
        state.verifier.warnings.extend(d for d in diags if d.severity == WARNING)
        raise_on_errors(diags, stage="synth")


def map_stage(state: FlowState) -> None:
    """Algorithm 1 step 4 onward: bind primary outputs (an inverter LUT
    only when a PO needs the complement of a shared signal), then merge
    duplicate LUTs, re-cover and pack the gates into K-LUT cells (the
    paper's "map all the gates to cells implementable by K-LUTs") and
    optionally recover area."""
    work, mapped, config = state.work, state.mapped, state.config
    po_depths: Dict[str, int] = {}
    for po, driver in work.pos.items():
        sig, neg, depth = state.resolve[driver]
        if neg:
            inv = mapped.fresh_name(f"{po}_inv")
            mapped.add_node_function(
                inv, [sig], mapped.mgr.negate(mapped.mgr.var(mapped.var_of(sig)))
            )
            sig, depth = inv, depth + 1
        mapped.add_po(po, sig)
        po_depths[po] = depth

    mapped.check()
    state.verifier.after_po_binding(mapped)
    depth = max(po_depths.values(), default=0)
    assert depth == network_depth(mapped), "structural depth disagrees with DP depths"
    if mapped.max_fanin() > config.k:
        raise AssertionError("emitted a LUT wider than K")

    # Cross-supernode cleanup: identical LUTs created by different
    # supernode emissions merge into one (pure area recovery; depth can
    # only improve), then the gates are covered by K-LUT cells.  These
    # names are looked up at call time, where a tracer may wrap them.
    from repro.core.lutpack import lut_pack
    from repro.mapping.netcover import cover_network
    from repro.network.transform import merge_duplicates

    with state.stats.stage("postprocess"):
        merge_duplicates(mapped)
        if config.final_packing:
            # Depth-optimal re-covering of the emitted gates by K-LUT
            # cells, then residual single-fanout merges.
            mapped = cover_network(mapped, config.k)
            merge_duplicates(mapped)
            lut_pack(mapped, config.k)
        if config.area_recovery:
            from repro.core.area import area_recovery

            area_recovery(mapped, config.k)
    state.mapped = mapped
    state.po_depths = output_depths(mapped)
    state.depth = max(state.po_depths.values(), default=0)


def _final_audit(state: FlowState) -> None:
    state.verifier.final(
        state.mapped, state.depth, state.po_depths, len(state.mapped.nodes),
        source=state.source,
    )


Stage = Callable[[FlowState], None]

#: Algorithm 1 in order: stage name -> (stage body, boundary audit).
STAGES: Dict[str, Tuple[Stage, Optional[Stage]]] = {
    "sweep": (sweep_stage, lambda state: state.verifier.after_sweep(state.work)),
    "collapse": (collapse_stage, lambda state: state.verifier.after_collapse(state.work)),
    "synth": (synth_stage, None),
    "map": (map_stage, _final_audit),
}


def stage_names(config: DDBDDConfig) -> Tuple[str, ...]:
    """The stages Algorithm 1 runs for ``config``: all four, without
    ``collapse`` when ``config.collapse`` is off (Table I's "without
    collapsing" rows)."""
    return tuple(name for name in STAGES if config.collapse or name != "collapse")


def _rss_kb() -> int:
    """Current peak RSS in kB (0 where :mod:`resource` is missing)."""
    if resource is None:
        return 0
    return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


def _bdd_counters(state: FlowState) -> Dict[str, int]:
    """Summed ``cache_stats()`` over the distinct managers in the state."""
    totals: Dict[str, int] = {}
    seen = set()
    for net in (state.work, state.mapped):
        if net is None or id(net.mgr) in seen:
            continue
        seen.add(id(net.mgr))
        for key, value in net.mgr.cache_stats().items():
            totals[key] = totals.get(key, 0) + value
    return totals


def _counter_delta(before: Dict[str, int], after: Dict[str, int], suffix: str) -> int:
    """Non-negative summed delta of every ``*<suffix>`` counter."""
    total = 0
    for key, value in after.items():
        if key.endswith(suffix):
            total += max(0, value - before.get(key, 0))
    return total


def run_stages(state: FlowState, names: Optional[Sequence[str]] = None) -> FlowState:
    """Run the named stages over ``state`` in order (default: every
    stage of :func:`stage_names` for ``state.config``); returns ``state``.

    Each stage's boundary audit runs right after its body, and one
    :class:`~repro.runtime.stats.PassTelemetry` row per stage lands on
    ``state.stats``: ``seconds`` times the body, ``verify_seconds`` the
    audit, plus RSS growth and the BDD-manager counter deltas
    (``cache_stats()``) summed over the managers live in the state.
    """
    for name in stage_names(state.config) if names is None else names:
        body, audit = STAGES[name]
        rss0 = _rss_kb()
        bdd0 = _bdd_counters(state)
        failures0 = len(state.stats.failures)
        t0 = time.perf_counter()
        body(state)
        seconds = time.perf_counter() - t0
        t1 = time.perf_counter()
        if audit is not None:
            audit(state)
        verify_seconds = time.perf_counter() - t1
        bdd1 = _bdd_counters(state)
        rss1 = _rss_kb()
        state.stats.note_pass(
            PassTelemetry(
                name=name,
                seconds=seconds,
                verify_seconds=verify_seconds,
                rss_peak_kb=rss1,
                rss_delta_kb=max(0, rss1 - rss0),
                bdd_nodes_created=max(0, bdd1.get("nodes", 0) - bdd0.get("nodes", 0)),
                bdd_cache_hits=_counter_delta(bdd0, bdd1, "_hits"),
                bdd_cache_misses=_counter_delta(bdd0, bdd1, "_entries"),
                bdd_neg_free=max(0, bdd1.get("neg_free", 0) - bdd0.get("neg_free", 0)),
                bdd_unique_saved=bdd1.get("unique_saved", 0),
                bdd_store_bytes=bdd1.get("store_bytes", 0),
                failures=len(state.stats.failures) - failures0,
            )
        )
    return state
