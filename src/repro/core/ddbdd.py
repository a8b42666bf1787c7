"""The complete DDBDD flow (Algorithm 1).

1. Sweep the input network (constants, buffers, dangling logic).
2. Collapse it into supernodes with Algorithm 2 (unless disabled).
3. Visit supernodes in topological order; for each, run the Algorithm 3
   dynamic program with the already-known mapping depths of its fanins,
   and emit the best decomposition as K-LUT cells into the output
   network.
4. Bind primary outputs (inserting an inverter LUT only in the rare
   case a PO needs the complement of a shared signal).

The result is a K-feasible LUT network: its unit-delay depth is the
paper's "mapping depth" and its node count the paper's "area" (number
of LUTs).

The stage *sequence* lives in :mod:`repro.flow` as a pass pipeline
(``sweep;collapse;synth;map``); :func:`ddbdd_synthesize` is a thin
wrapper that builds and runs the pipeline for its config.  Step 3 is
the ``synth`` pass, which runs the wavefront engine
(:func:`repro.runtime.schedule.wavefront_supernodes`) at every job
count.  This module keeps the flow's result type and entry point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.core.collapse import CollapseStats
from repro.core.config import DDBDDConfig
from repro.core.dp import SupernodeResult
from repro.network.netlist import BooleanNetwork
from repro.runtime.stats import RuntimeStats


@dataclass
class SynthesisResult:
    """Output of the DDBDD flow."""

    network: BooleanNetwork
    depth: int
    area: int
    po_depths: Dict[str, int]
    collapse_stats: Optional[CollapseStats]
    supernodes: List[SupernodeResult]
    runtime_s: float
    config: DDBDDConfig
    runtime_stats: Optional[RuntimeStats] = None

    def summary(self) -> str:
        return (
            f"{self.network.name}: depth={self.depth} area={self.area} "
            f"supernodes={len(self.supernodes)} runtime={self.runtime_s:.2f}s"
        )


def ddbdd_synthesize(
    net: BooleanNetwork, config: Optional[DDBDDConfig] = None
) -> SynthesisResult:
    """Synthesize ``net`` into a K-LUT network optimized for depth.

    Thin wrapper over :func:`repro.flow.run_flow`: builds the pass
    pipeline for ``config`` (``config.flow`` overrides the standard
    ``sweep;collapse;synth;map`` script) and runs it.  Output is
    bit-identical to the historical hard-coded stage sequence.
    """
    from repro.flow import run_flow  # deferred: repro.flow imports this module

    return run_flow(net, config)
