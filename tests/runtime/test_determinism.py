"""The determinism contract: the wavefront engine's output network is
identical — names, fanins, truth tables, depths — to its jobs=1 run's,
for any worker count."""

from __future__ import annotations

import pytest

from repro.core import DDBDDConfig, ddbdd_synthesize
from tests.conftest import assert_equivalent, random_gate_network
from tests.runtime.helpers import net_dump


@pytest.mark.parametrize("seed", [0, 3, 7])
def test_jobs4_matches_serial(seed):
    net = random_gate_network(seed, n_pi=10, n_gates=60, n_po=6)
    serial = ddbdd_synthesize(net, DDBDDConfig(jobs=1))
    par = ddbdd_synthesize(net, DDBDDConfig(jobs=4))
    assert net_dump(par.network) == net_dump(serial.network)
    assert (par.depth, par.area) == (serial.depth, serial.area)
    assert par.po_depths == serial.po_depths
    assert [
        (s.signal, s.negated, s.depth, s.luts_created) for s in par.supernodes
    ] == [(s.signal, s.negated, s.depth, s.luts_created) for s in serial.supernodes]
    assert_equivalent(net, par.network, f"seed {seed} jobs=4")


def test_jobs2_collapse_off_matches_serial():
    net = random_gate_network(5, n_pi=8, n_gates=40, n_po=4)
    cfg = dict(collapse=False)
    serial = ddbdd_synthesize(net, DDBDDConfig(jobs=1, **cfg))
    par = ddbdd_synthesize(net, DDBDDConfig(jobs=2, **cfg))
    assert net_dump(par.network) == net_dump(serial.network)


def test_wavefront_stats_populated():
    net = random_gate_network(2, n_pi=10, n_gates=60, n_po=6)
    result = ddbdd_synthesize(net, DDBDDConfig(jobs=4))
    stats = result.runtime_stats
    assert stats is not None
    assert stats.jobs == 4
    assert stats.wavefront_widths, "parallel run must record wavefront widths"
    assert stats.supernodes == len(result.supernodes)
    assert sum(stats.wavefront_widths) == stats.supernodes
    assert "dp" in stats.stage_seconds
    assert stats.render().startswith("runtime: jobs=4")


def test_jobs1_records_wavefront_stats():
    net = random_gate_network(1, n_gates=25)
    result = ddbdd_synthesize(net, DDBDDConfig(jobs=1))
    stats = result.runtime_stats
    assert stats is not None
    assert stats.jobs == 1 and stats.cache_mode == "off"
    assert sum(stats.wavefront_widths) == stats.supernodes
    assert "supernodes" in stats.stage_seconds


def test_jobs_env_fallback(monkeypatch):
    monkeypatch.setenv("DDBDD_JOBS", "3")
    assert DDBDDConfig().jobs == 3
    monkeypatch.delenv("DDBDD_JOBS")
    assert DDBDDConfig().jobs == 1
    assert DDBDDConfig(jobs=0).effective_jobs >= 1


def test_jobs_env_malformed_rejected(monkeypatch):
    # A typo'd DDBDD_JOBS must fail loudly (naming the variable), not
    # silently fall back to serial.
    for bad in ("not-a-number", "2.5", "-1", "1 2"):
        monkeypatch.setenv("DDBDD_JOBS", bad)
        with pytest.raises(ValueError, match="DDBDD_JOBS"):
            DDBDDConfig()
    monkeypatch.setenv("DDBDD_JOBS", "  4  ")
    assert DDBDDConfig().jobs == 4
    monkeypatch.setenv("DDBDD_JOBS", "")
    assert DDBDDConfig().jobs == 1


def test_invalid_runtime_config_rejected():
    with pytest.raises(ValueError):
        DDBDDConfig(jobs=-1)
    with pytest.raises(ValueError):
        DDBDDConfig(cache="sometimes")
