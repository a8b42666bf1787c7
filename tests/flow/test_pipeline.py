"""The Algorithm 1 stage loop: telemetry, run_flow semantics, audits."""

from __future__ import annotations

from repro.benchgen import build_circuit
from repro.core import DDBDDConfig, ddbdd_synthesize
from repro.flow import FlowState, run_flow, run_stages, stage_names
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


def test_collapse_off_drops_the_collapse_stage():
    net = build_circuit("sct")
    assert stage_names(DDBDDConfig(collapse=False)) == ("sweep", "synth", "map")
    result = run_flow(net, DDBDDConfig(collapse=False))
    assert result.collapse_stats is None
    assert [t.name for t in result.runtime_stats.passes] == ["sweep", "synth", "map"]
    via_alias = ddbdd_synthesize(net, DDBDDConfig(collapse=False))
    assert net_dump(via_alias.network) == net_dump(result.network)


def test_partial_pipeline_for_front_half():
    net = build_circuit("sct")
    state = run_stages(FlowState.initial(net, DDBDDConfig()), ("sweep", "collapse"))
    assert state.collapse_stats is not None
    assert state.mapped is None
    assert [t.name for t in state.stats.passes] == ["sweep", "collapse"]


def test_verify_level2_runs_stage_boundaries():
    net = build_circuit("count")
    config = DDBDDConfig(verify_level=2)
    state = run_stages(FlowState.initial(net, config))
    stages = state.verifier.stages_run
    assert "sweep" in stages
    assert "collapse" in stages
    assert "po_binding" in stages
    assert "final" in stages
    assert state.verifier.warnings == []
