"""CI fault-smoke leg (satellite e): with a standing ``DDBDD_FAULTS``
plan in the environment, Table-I circuits must synthesize to exactly the
clean-run golden network — same depth, same area, cell-for-cell.

These tests are skipped in the ordinary suite and armed by the
``fault-smoke`` CI job, which exports a fixed worker-crash +
shard-corruption plan before invoking pytest.  The plan is read at
import time so the assertions stay valid even if other tests scrub the
environment while running.
"""

from __future__ import annotations

import os

import pytest

from repro.benchgen import build_circuit
from repro.core import DDBDDConfig, ddbdd_synthesize
from tests.conftest import assert_equivalent
from tests.runtime.helpers import net_dump

PLAN = os.environ.get("DDBDD_FAULTS", "").strip()

pytestmark = pytest.mark.skipif(
    not PLAN,
    reason="fault-smoke leg only: export DDBDD_FAULTS to arm these tests",
)


@pytest.fixture(autouse=True)
def _force_pool(monkeypatch):
    monkeypatch.setenv("DDBDD_FAULTS", PLAN)


@pytest.mark.parametrize("name", ["cht", "misex1"])
def test_table1_golden_under_env_plan(name, tmp_path):
    net = build_circuit(name)
    clean = ddbdd_synthesize(net, DDBDDConfig(jobs=1, faults=None))
    # No explicit ``faults=``: the config picks the plan up from the
    # environment, exactly as a CI job or an operator shell would.
    faulty = ddbdd_synthesize(net, DDBDDConfig(
        jobs=2, cache="readwrite", cache_dir=str(tmp_path / name),
    ))
    assert faulty.config.faults == PLAN
    assert (faulty.depth, faulty.area) == (clean.depth, clean.area)
    assert net_dump(faulty.network) == net_dump(clean.network)
    assert all(f.verified for f in faulty.runtime_stats.failures)
    assert_equivalent(net, faulty.network, f"{name} under $DDBDD_FAULTS")
