"""Tests of the benchmark's own code: the output checker, the percentile
helper and span self times.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import statistics
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checker  # noqa: E402
from measure import beyond, percentile  # noqa: E402
from tracer import Tracer  # noqa: E402

SOURCE = """\
.model src
.inputs a b c
.outputs y
.names a b t
11 1
.names t c y
1- 1
-1 1
.end
"""

MAPPED = """\
.model dst
.inputs a b c
.outputs y
.names a b c n1
11- 1
--1 1
.names n1 y
1 1
.end
"""


def test_checker_accepts_a_correct_cover() -> None:
    result = checker.check_mapping(SOURCE, MAPPED, k=3, depth=1, area=1)
    assert result.ok, result.problems
    assert (result.depth, result.luts) == (1, 1)


def test_checker_rejects_a_flipped_cover_row() -> None:
    flipped = MAPPED.replace("11- 1", "10- 1")
    result = checker.check_mapping(SOURCE, flipped, k=3, depth=1, area=1)
    assert result.problems == ["output y differs from the source"]


def test_checker_rejects_a_lut_wider_than_k() -> None:
    result = checker.check_mapping(SOURCE, MAPPED, k=2, depth=1, area=1)
    assert any("more than K=2" in p for p in result.problems)


def test_checker_rejects_a_wrong_reported_depth_or_area() -> None:
    assert any("reported depth 2" in p for p in
               checker.check_mapping(SOURCE, MAPPED, k=3, depth=2, area=1).problems)
    assert any("reported area 2" in p for p in
               checker.check_mapping(SOURCE, MAPPED, k=3, depth=1, area=2).problems)


def test_exhaustive_input_words() -> None:
    words, mask = checker.input_vectors(["a", "b", "c"], seed=0)
    assert mask == 0xFF
    assert (words["a"], words["b"], words["c"]) == (0b10101010, 0b11001100, 0b11110000)


def test_checker_on_a_real_cover() -> None:
    """A real DDBDD cover passes; each corruption of it is caught."""
    from repro.benchgen import build_circuit
    from repro.core import DDBDDConfig, ddbdd_synthesize
    from repro.network import network_to_blif

    source = network_to_blif(build_circuit("z4ml"))
    result = ddbdd_synthesize(build_circuit("z4ml"), DDBDDConfig())
    mapped = network_to_blif(result.network)
    ok = checker.check_mapping(source, mapped, 5, result.depth, result.area)
    assert ok.ok, ok.problems

    lines = mapped.splitlines()
    row = next(i for i, line in enumerate(lines)
               if line.endswith(" 1") and "1" in line.split()[0] and len(line.split()[0]) > 1)
    cube = lines[row].split()[0]
    pos = cube.index("1")
    lines[row] = cube[:pos] + "0" + cube[pos + 1:] + " 1"
    flipped = checker.check_mapping(source, "\n".join(lines) + "\n", 5,
                                    result.depth, result.area)
    assert any("differs from the source" in p for p in flipped.problems)
    assert checker.check_mapping(source, mapped, 2, result.depth, result.area).problems
    assert checker.check_mapping(source, mapped, 5, result.depth + 1, result.area).problems


def test_percentile_on_hand_made_values() -> None:
    # Symmetric samples: the median is the centre.
    assert percentile([5, 1, 3, 2, 4], 50) == pytest.approx(3.0)
    assert percentile([1.0] * 8 + [10.0] * 8, 50) == pytest.approx(5.5)
    assert percentile([7.0], 90) == pytest.approx(7.0)
    assert percentile([2.5] * 9, 90) == pytest.approx(2.5)
    # A large smooth sample agrees with the interpolated percentile.
    values = [i / 10 for i in range(1001)]
    for p in (50, 90):
        want = statistics.quantiles(values, n=100, method="inclusive")[p - 1]
        assert percentile(values, p) == pytest.approx(want, abs=0.05)
    # In a two-cluster sample the median moves smoothly when one fast
    # value slows, instead of jumping to a neighbour.
    base = [0.1, 0.2, 0.3, 0.4, 2.0, 2.1, 2.2, 2.3]
    slower = [0.1, 0.2, 0.3, 0.8, 2.0, 2.1, 2.2, 2.3]
    assert 0 < percentile(slower, 50) - percentile(base, 50) < 0.4
    assert beyond(list(range(100)), 90) == 10
    with pytest.raises(ValueError):
        percentile([], 50)


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_span_self_time_on_hand_made_spans() -> None:
    clock = FakeClock()
    tracer = Tracer(clock)

    def at(t: float) -> None:
        clock.now = t

    a = tracer.enter("a", request="r1")
    at(1.0)
    b = tracer.enter("b")
    at(2.0)
    c = tracer.enter("c")
    at(4.0)
    tracer.exit(c)
    at(5.0)
    tracer.exit(b)
    at(6.0)
    d = tracer.enter("d", record=False)
    at(7.0)
    tracer.exit(d)
    at(10.0)
    tracer.exit(a)

    assert dict(tracer.self_s) == {"a": 5.0, "b": 2.0, "c": 2.0, "d": 1.0}
    assert sum(tracer.self_s.values()) == 10.0
    assert [s.name for s in tracer.spans] == ["c", "b", "a"]
    by_name = {s.name: s for s in tracer.spans}
    assert by_name["c"].parent == by_name["b"].id
    assert by_name["b"].parent == by_name["a"].id
    assert {s.request for s in tracer.spans} == {"r1"}


def test_span_closed_out_of_order_is_an_error() -> None:
    tracer = Tracer(FakeClock())
    outer = tracer.enter("outer")
    tracer.enter("inner")
    with pytest.raises(RuntimeError):
        tracer.exit(outer)
