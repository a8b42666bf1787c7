"""Cross-flow integration tests over the benchmark registry.

Every flow must produce a K-feasible network functionally equivalent to
the source circuit, and the mapped result must survive a BLIF
round-trip — the end-to-end contract a downstream user relies on.
"""

import pytest

from repro import (
    DDBDDConfig,
    build_circuit,
    check_equivalence,
    ddbdd_synthesize,
    parse_blif,
)
from repro.baselines import abc_flow, bdspga_synthesize, sis_daomap_flow
from repro.network.blif import network_to_blif

SAMPLE = ["count", "misex1", "9sym", "z4ml", "mux", "priority16", "comp8", "sct"]

FLOWS = [
    ("ddbdd", lambda net: ddbdd_synthesize(net)),
    ("bdspga", lambda net: bdspga_synthesize(net)),
    ("sis", lambda net: sis_daomap_flow(net)),
    ("abc", lambda net: abc_flow(net, passes=2)),
]


@pytest.mark.parametrize("name", SAMPLE)
@pytest.mark.parametrize("label,flow", FLOWS, ids=[f[0] for f in FLOWS])
def test_flow_contract(name, label, flow):
    net = build_circuit(name)
    result = flow(net)
    assert result.network.max_fanin() <= 5, f"{label} emitted a wide LUT"
    eq = check_equivalence(net, result.network)
    assert eq.equivalent, f"{label} on {name}: differs at {eq.failing_output}"
    # BLIF round trip of the mapped network.
    again = parse_blif(network_to_blif(result.network))
    eq2 = check_equivalence(result.network, again)
    assert eq2.equivalent, f"{label} on {name}: BLIF roundtrip broke"


def test_extensions_composable():
    """All extension knobs on together still honor the contract."""
    net = build_circuit("sct")
    cfg = DDBDDConfig(
        timing_aware_reorder=True, area_recovery=True, verify_level=2
    )
    result = ddbdd_synthesize(net, cfg)
    assert check_equivalence(net, result.network).equivalent
    base = ddbdd_synthesize(net)
    assert result.depth <= base.depth + 1
