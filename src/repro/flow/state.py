"""The shared state the Algorithm 1 stages thread between them.

:class:`FlowState` is the single mutable object every stage of
:mod:`repro.flow.stages` reads and writes.  It carries the three
networks of Algorithm 1 (the immutable ``source``, the in-flow ``work``
copy that sweep/collapse mutate, and the ``mapped`` K-LUT output under
construction), the signal-resolution tables the synth stage fills and
the map stage reads, and the run-scoped services (config,
:class:`~repro.analysis.hooks.StageVerifier`,
:class:`~repro.runtime.stats.RuntimeStats`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.analysis.hooks import StageVerifier
from repro.core.collapse import CollapseStats
from repro.core.config import DDBDDConfig
from repro.core.dp import SupernodeResult
from repro.network.netlist import BooleanNetwork
from repro.runtime.stats import RuntimeStats


@dataclass
class FlowState:
    """Everything the Algorithm 1 stages read and write.

    Attributes
    ----------
    source:
        The caller's input network.  Never mutated by any stage.
    config:
        The run's :class:`~repro.core.config.DDBDDConfig`.
    verifier:
        The stage-boundary verifier; the stage loop runs each stage's
        boundary audit against it right after the stage body.
    stats:
        Accumulating runtime telemetry (stages, passes, cache counters).
    work:
        The working copy sweep and collapse mutate (created by
        :meth:`initial`).
    mapped:
        The K-LUT output network (created by the synth stage, replaced
        by the map stage's re-covering).
    resolve:
        supernode/PI signal -> ``(signal in mapped, negated, depth)``.
    external:
        Signals visible outside their own supernode emission; a root
        LUT may only absorb a complement when it is *not* one of these.
    collapse_stats:
        Algorithm 2 statistics (``None`` when collapse did not run).
    supernode_results:
        Per-supernode DP results in serial topological order.
    po_depths / depth:
        Final mapping depths (set by the map stage).
    """

    source: BooleanNetwork
    config: DDBDDConfig
    verifier: StageVerifier
    stats: RuntimeStats
    work: BooleanNetwork
    mapped: Optional[BooleanNetwork] = None
    resolve: Dict[str, Tuple[str, bool, int]] = field(default_factory=dict)
    external: Set[str] = field(default_factory=set)
    collapse_stats: Optional[CollapseStats] = None
    supernode_results: List[SupernodeResult] = field(default_factory=list)
    po_depths: Dict[str, int] = field(default_factory=dict)
    depth: int = 0

    @staticmethod
    def initial(net: BooleanNetwork, config: Optional[DDBDDConfig] = None) -> "FlowState":
        """Fresh state for one synthesis run of ``net``.

        Creates the ``work`` copy (``<name>_work``) plus the verifier
        and stats objects sized from ``config``.
        """
        config = config or DDBDDConfig()
        return FlowState(
            source=net,
            config=config,
            verifier=StageVerifier(config.verify_level, config.k),
            stats=RuntimeStats(jobs=config.effective_jobs, cache_mode=config.cache),
            work=net.copy(net.name + "_work"),
        )
