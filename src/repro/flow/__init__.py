"""repro.flow: the DDBDD synthesis flow (Algorithm 1) as four fixed stages.

    ``sweep ; collapse ; synth ; map``

* :mod:`repro.flow.stages` holds the four stage functions, their
  StageVerifier boundary audits and :func:`run_stages`, the one loop
  that runs named stages over a :class:`~repro.flow.state.FlowState`
  and records one :class:`~repro.runtime.stats.PassTelemetry` row per
  stage.  ``DDBDDConfig.collapse = False`` drops the collapse stage
  (the paper's "without collapsing" ablation).
* :func:`run_flow` is the one flow entrypoint: run every stage for a
  config and wrap the state into a
  :class:`~repro.core.ddbdd.SynthesisResult`.
  ``ddbdd_synthesize`` is a thin alias for it.

Example — the standard flow::

    from repro.flow import run_flow
    from repro.core.config import DDBDDConfig

    result = run_flow(net, DDBDDConfig(jobs=4))

Example — the front half only (experiments that need the collapsed
network)::

    from repro.flow import FlowState, run_stages

    state = run_stages(FlowState.initial(net, config), ("sweep", "collapse"))
    supernodes = state.work
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Callable, Optional

from repro.core.config import DDBDDConfig
from repro.network.netlist import BooleanNetwork
from repro.flow.stages import run_stages, stage_names
from repro.flow.state import FlowState

if TYPE_CHECKING:  # import cycle: repro.core.ddbdd reaches repro.flow lazily
    from repro.core.ddbdd import SynthesisResult
    from repro.runtime.stats import PassTelemetry


def run_flow(
    net: BooleanNetwork,
    config: Optional[DDBDDConfig] = None,
    observer: Optional[Callable[["PassTelemetry"], None]] = None,
) -> "SynthesisResult":
    """Run Algorithm 1 over ``net`` and return a
    :class:`~repro.core.ddbdd.SynthesisResult`.

    ``observer``, if given, is installed as the run's
    :attr:`~repro.runtime.stats.RuntimeStats.pass_observer`: it is
    called with each :class:`~repro.runtime.stats.PassTelemetry` row as
    the stage completes, while later stages are still running — the
    serve daemon's streaming-progress hook.
    """
    # Deferred import: repro.core.ddbdd reaches repro.flow lazily, so
    # importing its result type eagerly here would close a cycle.
    from repro.core.ddbdd import SynthesisResult

    config = config or DDBDDConfig()
    start = time.perf_counter()
    state = FlowState.initial(net, config)
    if observer is not None:
        state.stats.pass_observer = observer
    run_stages(state)
    return SynthesisResult(
        network=state.mapped,
        depth=state.depth,
        area=len(state.mapped.nodes),
        po_depths=state.po_depths,
        collapse_stats=state.collapse_stats,
        supernodes=state.supernode_results,
        runtime_s=time.perf_counter() - start,
        config=config,
        runtime_stats=state.stats,
    )


__all__ = ["FlowState", "run_flow", "run_stages", "stage_names"]
