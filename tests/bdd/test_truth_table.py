"""Truth-table round trip: ``from_truth_table`` and ``truth_table``.

Emission records carry every LUT cell as a truth table, so these two
methods sit on the path of every supernode at every job count.
"""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.bdd.manager import BDDError, BDDManager

NUM_VARS = 8


def minterm_sum(mgr, bits, variables):
    """Reference construction: the OR of one AND of literals per on-row."""
    result = mgr.ZERO
    for i, bit in enumerate(bits):
        if not bit:
            continue
        term = mgr.ONE
        for k, v in enumerate(variables):
            lit = mgr.var(v) if (i >> k) & 1 else mgr.nvar(v)
            term = mgr.apply_and(term, lit)
        result = mgr.apply_or(result, term)
    return result


@st.composite
def tables(draw):
    """A manager in a random order that already holds other functions,
    plus a table over 0-6 shuffled, possibly repeated variables."""
    mgr = BDDManager(NUM_VARS, order=draw(st.permutations(range(NUM_VARS))))
    for _ in range(draw(st.integers(0, 3))):
        others = draw(st.lists(st.integers(0, 1), min_size=16, max_size=16))
        minterm_sum(mgr, others, draw(st.permutations(range(NUM_VARS)))[:4])
    n = draw(st.integers(0, 6))
    variables = draw(
        st.lists(st.integers(0, NUM_VARS - 1), min_size=n, max_size=n)
        | st.permutations(range(NUM_VARS)).map(lambda p: p[:n])
    )
    bits = draw(st.lists(st.integers(0, 1), min_size=1 << n, max_size=1 << n))
    return mgr, list(variables), bits


@settings(max_examples=200, deadline=None)
@given(case=tables())
def test_from_truth_table_equals_the_minterm_sum(case):
    mgr, variables, bits = case
    f = mgr.from_truth_table(bits, variables)
    ref = minterm_sum(mgr, bits, variables)
    for row in range(1 << len(variables)):
        assignment = {v: bool((row >> k) & 1) for k, v in enumerate(variables)}
        assert mgr.eval(f, assignment) == mgr.eval(ref, assignment)
    assert f == ref  # canonical: one function, one handle
    assert mgr.from_truth_table("".join(map(str, bits)), variables) == f


@settings(max_examples=200, deadline=None)
@given(case=tables())
def test_truth_table_inverts_from_truth_table(case):
    mgr, variables, bits = case
    table = "".join(map(str, bits))
    f = mgr.from_truth_table(table, variables)
    if len(set(variables)) == len(variables):
        assert mgr.truth_table(f, variables) == table
    # With repeated variables the contradictory rows read 0, and the
    # table still rebuilds the same function.
    assert mgr.from_truth_table(mgr.truth_table(f, variables), variables) == f


def test_truth_table_rejects_a_variable_outside_the_table():
    mgr = BDDManager(3)
    f = mgr.apply_and(mgr.var(0), mgr.var(2))
    assert mgr.truth_table(f, [2, 0]) == "0001"
    with pytest.raises(BDDError):
        mgr.truth_table(f, [0, 1])
