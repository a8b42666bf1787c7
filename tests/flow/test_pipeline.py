"""The Pipeline runner: contracts, telemetry, run_flow semantics."""

from __future__ import annotations

import pytest

from repro.benchgen import build_circuit
from repro.core import DDBDDConfig, ddbdd_synthesize
from repro.flow import (
    BasePass,
    FlowError,
    FlowState,
    Pipeline,
    build_pipeline,
    run_flow,
)
from tests.runtime.helpers import net_dump


def test_default_pipeline_records_one_telemetry_row_per_pass():
    result = run_flow(build_circuit("count"), DDBDDConfig())
    stats = result.runtime_stats
    assert stats is not None
    assert [t.name for t in stats.passes] == ["sweep", "collapse", "synth", "map"]
    for t in stats.passes:
        assert t.seconds >= 0.0 and t.verify_seconds >= 0.0
        assert t.rss_peak_kb >= 0 and t.rss_delta_kb >= 0
        assert 0.0 <= t.cache_hit_rate <= 1.0
    # The DP stage builds BDD nodes; its row must show real counters.
    synth_row = stats.passes[2]
    assert synth_row.bdd_nodes_created > 0


def test_telemetry_surfaces_in_render_and_dict():
    result = run_flow(build_circuit("count"), DDBDDConfig())
    stats = result.runtime_stats
    text = stats.render()
    for name in ("sweep", "collapse", "synth", "map"):
        assert name in text
    d = stats.as_dict()
    assert [row["name"] for row in d["passes"]] == ["sweep", "collapse", "synth", "map"]
    assert all("bdd_cache_hit_rate" in row for row in d["passes"])


def test_config_flow_override_equals_collapse_ablation():
    net = build_circuit("sct")
    via_flag = ddbdd_synthesize(net, DDBDDConfig(collapse=False))
    via_script = run_flow(net, DDBDDConfig(flow="sweep;synth;map"))
    assert (via_script.depth, via_script.area) == (via_flag.depth, via_flag.area)
    assert net_dump(via_script.network) == net_dump(via_flag.network)
    assert via_script.collapse_stats is None
    # Telemetry reflects the actual pass list, not the default flow.
    assert [t.name for t in via_script.runtime_stats.passes] == ["sweep", "synth", "map"]


def test_synth_pass_options_do_not_change_output():
    net = build_circuit("misex1")
    base = run_flow(net, DDBDDConfig())
    forced = run_flow(net, DDBDDConfig(flow="sweep;collapse;synth(jobs=2);map"))
    assert (forced.depth, forced.area) == (base.depth, base.area)
    assert net_dump(forced.network) == net_dump(base.network)


def test_run_flow_requires_a_finishing_pass():
    with pytest.raises(FlowError, match="did not finish"):
        run_flow(build_circuit("count"), DDBDDConfig(), script="sweep;collapse;synth")


def test_pipeline_enforces_requires():
    net = build_circuit("count")
    # 'map' requires the synth pass's mapped network.
    with pytest.raises(FlowError, match="requires state field"):
        build_pipeline("sweep;map").run(FlowState.initial(net, DDBDDConfig()))


def test_pipeline_enforces_provides():
    class Hollow(BasePass):
        name = "hollow"
        provides = ("mapped",)

        def run(self, state: FlowState) -> FlowState:
            return state

    net = build_circuit("count")
    with pytest.raises(FlowError, match="did not populate"):
        Pipeline([Hollow()]).run(FlowState.initial(net, DDBDDConfig()))


def test_empty_pipeline_rejected():
    with pytest.raises(FlowError):
        Pipeline([])


def test_unknown_pass_option_rejected_at_build_time():
    with pytest.raises(FlowError, match="does not accept"):
        build_pipeline("sweep;collapse;synth(jbos=2);map")


def test_partial_pipeline_for_front_half():
    net = build_circuit("sct")
    state = build_pipeline("sweep;collapse").run(FlowState.initial(net, DDBDDConfig()))
    assert state.collapse_stats is not None
    assert not state.finished and state.mapped is None
    assert [t.name for t in state.stats.passes] == ["sweep", "collapse"]


def test_verify_level2_runs_stage_boundaries():
    net = build_circuit("count")
    config = DDBDDConfig(verify_level=2)
    state = FlowState.initial(net, config)
    build_pipeline("sweep;collapse;synth;map").run(state)
    stages = state.verifier.stages_run
    assert "sweep" in stages
    assert "collapse" in stages
    assert "po_binding" in stages
    assert "final" in stages
    assert state.verifier.warnings == []
