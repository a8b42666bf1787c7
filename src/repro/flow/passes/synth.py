"""The ``synth`` pass: Algorithm 1 step 3 (per-supernode DP synthesis).

Visits the collapsed network's supernodes and emits each one's best
delay-driven decomposition into the mapped K-LUT network, through the
:mod:`repro.runtime` phase A/B engine
(:func:`repro.runtime.schedule.wavefront_supernodes`) at every job
count and cache mode: topological wavefronts through the persistent
content-addressed DP cache and the process-wide fleet, which runs a
wave in-process when it cannot split it (``jobs == 1``, or one job)
and on its process pool otherwise.  The output is cell-for-cell the
same whatever the job count or cache state.

Pass options (flow script: ``synth(jobs=4, cache=readwrite)``) override
the corresponding :class:`~repro.core.config.DDBDDConfig` knobs for
this pass only.
"""

from __future__ import annotations

from dataclasses import replace

from repro.analysis.diagnostics import WARNING, raise_on_errors, with_stage
from repro.analysis.failcheck import check_failure_reports
from repro.core.config import DDBDDConfig
from repro.flow.pipeline import BasePass
from repro.flow.registry import register_pass
from repro.flow.state import FlowState
from repro.network.netlist import BooleanNetwork
from repro.runtime.schedule import wavefront_supernodes


@register_pass("synth")
class SynthPass(BasePass):
    """Per-supernode delay-driven DP synthesis into the mapped network."""

    requires = ("work",)
    provides = ("mapped",)
    option_names = ("jobs", "cache", "cache_dir", "cache_max_entries", "fleet_weight")

    def effective_config(self, config: DDBDDConfig) -> DDBDDConfig:
        """``config`` with this pass's runtime-knob overrides applied
        (validation runs through ``DDBDDConfig.__post_init__``)."""
        overrides = {
            key: self.options[key] for key in self.option_names if key in self.options
        }
        return replace(config, **overrides) if overrides else config

    def run(self, state: FlowState) -> FlowState:
        config = self.effective_config(state.config)
        stats = state.stats
        stats.jobs = config.effective_jobs
        stats.cache_mode = config.cache

        if state.mapped is None:
            mapped = BooleanNetwork(state.source.name + "_ddbdd")
            for pi in state.source.pis:
                mapped.add_pi(pi)
            state.mapped = mapped
        if not state.resolve:
            state.resolve.update({pi: (pi, False, 0) for pi in state.work.pis})
            state.external.update(state.work.pis)

        n_failures_before = len(stats.failures)
        # The engine accounts its own supernode count.
        with stats.stage("supernodes"):
            results = wavefront_supernodes(
                state.work, state.mapped, config, state.verifier,
                state.resolve, state.external, stats,
            )
        state.supernode_results.extend(results)

        # Fold any failures this pass recovered (budget breaches that
        # went down the degradation ladder, worker-pool deaths) into the
        # DD4xx diagnostic vocabulary: warnings accumulate on the
        # verifier like any other stage finding; an unverified recovered
        # cover (DD402) aborts the flow here.
        new_reports = stats.failures[n_failures_before:]
        if new_reports:
            diags = with_stage(check_failure_reports(new_reports), "synth")
            state.verifier.warnings.extend(
                d for d in diags if d.severity == WARNING
            )
            raise_on_errors(diags, stage="synth")
        return state
