"""Exact work counters on the eight Table-I circuits.

Timings drift with the host; these counts do not.  One serial cold
pass into an empty readwrite cache root, then a warm pass from sqlite
alone, pin three counts:

* adjacent-level swaps of Rudell sifting (47,198 without the bound
  that stops a variable where no further position can win);
* merge-test composes of Algorithm 2 that run to completion, per pass
  (5,173 without the row budget);
* sqlite connections of the warm pass: at most one per wave (156, one
  per lookup, before the tiers read a wave in one batch).

Each is counted by wrapping the function that does the work, so the
program publishes nothing for this test.  A change that moves a count
must say why in CHANGES.md and update the pin here.
"""

from __future__ import annotations

import sqlite3
from collections import Counter

import pytest

from repro.bdd.manager import BDDManager
from repro.benchgen import TABLE1_SUITE, build_circuit
from repro.core import DDBDDConfig, ddbdd_synthesize
from repro.core import collapse
from repro.runtime import fleet as fleet_mod
from repro.runtime import tiers
from repro.runtime.fleet import reset_fleet

SWAPS_PER_COLD_PASS = 27_410
MERGE_TEST_COMPOSES_PER_PASS = 5_021
WAVES_PER_PASS = 25
WARM_CONNECTS = 21


def _install_counters(monkeypatch: pytest.MonkeyPatch) -> Counter:
    counts: Counter = Counter()
    in_merge_test = [False]

    real_swap = BDDManager.swap_adjacent_levels

    def swap(self, *args, **kwargs):
        counts["swaps"] += 1
        return real_swap(self, *args, **kwargs)

    real_mergable = collapse._mergable

    def mergable(*args, **kwargs):
        in_merge_test[0] = True
        try:
            return real_mergable(*args, **kwargs)
        finally:
            in_merge_test[0] = False

    real_compose = BDDManager.compose

    def compose(self, f, v, g, *args, **kwargs):
        computed = ((f << 64) | (v << 32) | g) not in self._compose_cache
        got = real_compose(self, f, v, g, *args, **kwargs)
        if in_merge_test[0] and computed and got is not None:
            counts["merge_test_composes"] += 1
        return got

    real_connect = sqlite3.connect

    def connect(*args, **kwargs):
        counts["connects"] += 1
        return real_connect(*args, **kwargs)

    real_run_wave = fleet_mod.FleetScheduler.run_wave

    def run_wave(self, *args, **kwargs):
        counts["waves"] += 1
        return real_run_wave(self, *args, **kwargs)

    monkeypatch.setattr(BDDManager, "swap_adjacent_levels", swap)
    monkeypatch.setattr(collapse, "_mergable", mergable)
    monkeypatch.setattr(BDDManager, "compose", compose)
    monkeypatch.setattr(tiers.sqlite3, "connect", connect)
    monkeypatch.setattr(fleet_mod.FleetScheduler, "run_wave", run_wave)
    return counts


def _suite_pass(config: DDBDDConfig, counts: Counter) -> Counter:
    counts.clear()
    for name in TABLE1_SUITE:
        ddbdd_synthesize(build_circuit(name), config)
    return Counter(counts)


def test_table1_cache_rerun_work_counts(tmp_path, monkeypatch):
    counts = _install_counters(monkeypatch)
    config = DDBDDConfig(jobs=1, cache="readwrite", cache_dir=str(tmp_path / "cache"))
    reset_fleet()
    try:
        cold = _suite_pass(config, counts)
        reset_fleet()
        warm = _suite_pass(config, counts)
    finally:
        reset_fleet()
    assert cold["swaps"] == SWAPS_PER_COLD_PASS
    assert cold["merge_test_composes"] == MERGE_TEST_COMPOSES_PER_PASS
    assert warm["merge_test_composes"] == MERGE_TEST_COMPOSES_PER_PASS
    # Every supernode hits sqlite: no DP runs, so nothing is sifted.
    assert warm["swaps"] == 0
    assert cold["waves"] == warm["waves"] == WAVES_PER_PASS
    # Waves whose keys all hit the memory tier open no connection.
    assert warm["connects"] == WARM_CONNECTS <= WAVES_PER_PASS
