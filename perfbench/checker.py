"""Output checker that does not rely on the program under test.

It parses BLIF text itself, simulates the source network and the mapped
K-LUT network on the same input vectors, and recomputes the mapped
network's depth (longest LUT path) and LUT count.  Nothing here imports
``repro``: a fault in the program's equivalence checker, BDD manager or
depth code cannot hide a fault in its covers.

Simulation is bit-parallel over Python integers: bit ``i`` of a signal's
word is its value under input vector ``i``.  A circuit with at most
:data:`EXHAUSTIVE_MAX_PIS` inputs is simulated on all ``2**n`` vectors;
a wider one on :data:`RANDOM_VECTORS` vectors drawn from a seeded RNG.

The mapped BLIF comes from ``repro.network.network_to_blif`` (directly,
or as the ``blif`` field of a serve reply).  That writer emits one
``.names <driver> <po>`` / ``1 1`` pass-through per primary output whose
name differs from its driver; such a node is a wire, not a LUT, and is
recognised as one.  Every other ``.names`` block is a LUT.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

EXHAUSTIVE_MAX_PIS = 16
RANDOM_VECTORS = 4096


class BlifError(ValueError):
    """Malformed BLIF text."""


@dataclass
class Circuit:
    """A combinational BLIF model: ``nodes`` maps an output signal to
    ``(fanins, rows)`` where each row is ``(cube, output_bit)``."""

    inputs: List[str] = field(default_factory=list)
    outputs: List[str] = field(default_factory=list)
    nodes: Dict[str, Tuple[List[str], List[Tuple[str, str]]]] = field(default_factory=dict)

    def is_alias(self, name: str) -> bool:
        """A primary-output pass-through (``.names d po`` / ``1 1``)."""
        fanins, rows = self.nodes[name]
        return name in self.outputs and len(fanins) == 1 and rows == [("1", "1")]


@dataclass
class CheckResult:
    depth: int
    luts: int
    problems: List[str]

    @property
    def ok(self) -> bool:
        return not self.problems


def _logical_lines(text: str) -> List[str]:
    lines: List[str] = []
    pending = ""
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].rstrip()
        if line.endswith("\\"):
            pending += line[:-1] + " "
            continue
        line = (pending + line).strip()
        pending = ""
        if line:
            lines.append(line)
    if pending.strip():
        lines.append(pending.strip())
    return lines


def parse_blif(text: str) -> Circuit:
    """Parse one combinational BLIF model."""
    circ = Circuit()
    current: Tuple[List[str], List[Tuple[str, str]]] = ([], [])
    for line in _logical_lines(text):
        words = line.split()
        head = words[0]
        if head == ".model":
            continue
        if head == ".inputs":
            circ.inputs.extend(words[1:])
        elif head == ".outputs":
            circ.outputs.extend(words[1:])
        elif head == ".names":
            if len(words) < 2:
                raise BlifError(".names without an output signal")
            out = words[-1]
            if out in circ.nodes or out in circ.inputs:
                raise BlifError(f"signal {out!r} defined twice")
            current = (words[1:-1], [])
            circ.nodes[out] = current
        elif head == ".end":
            break
        elif head.startswith("."):
            raise BlifError(f"unsupported BLIF construct {head!r}")
        else:
            fanins, rows = current
            if fanins:
                if len(words) != 2 or len(words[0]) != len(fanins):
                    raise BlifError(f"cover row {line!r} does not match {len(fanins)} fanins")
                cube, bit = words
            else:
                if len(words) != 1:
                    raise BlifError(f"constant cover row {line!r} is malformed")
                cube, bit = "", words[0]
            if bit not in ("0", "1") or set(cube) - set("01-"):
                raise BlifError(f"cover row {line!r} is malformed")
            rows.append((cube, bit))
    return circ


def _topological(circ: Circuit) -> List[str]:
    """Node names, each after its fanins (iterative DFS; rejects cycles
    and undefined signals)."""
    pis = set(circ.inputs)
    state: Dict[str, int] = {}
    order: List[str] = []
    for root in circ.nodes:
        if root in state:
            continue
        state[root] = 0
        stack = [(root, iter(circ.nodes[root][0]))]
        while stack:
            name, it = stack[-1]
            for f in it:
                if f in pis or state.get(f) == 1:
                    continue
                if f not in circ.nodes:
                    raise BlifError(f"undefined signal {f!r}")
                if state.get(f) == 0:
                    raise BlifError(f"combinational cycle through {f!r}")
                state[f] = 0
                stack.append((f, iter(circ.nodes[f][0])))
                break
            else:
                stack.pop()
                state[name] = 1
                order.append(name)
    return order


def input_vectors(names: List[str], seed: int) -> Tuple[Dict[str, int], int]:
    """Bit-parallel input words for ``names`` and the all-ones mask."""
    n = len(names)
    if n <= EXHAUSTIVE_MAX_PIS:
        width = 1 << n
        mask = (1 << width) - 1
        words = {}
        for i, name in enumerate(names):
            half = 1 << i
            word = ((1 << half) - 1) << half  # one block: 2**i zeros then 2**i ones
            span = half << 1
            while span < width:
                word |= word << span
                span <<= 1
            words[name] = word & mask
        return words, mask
    rng = random.Random(seed)
    mask = (1 << RANDOM_VECTORS) - 1
    return {name: rng.getrandbits(RANDOM_VECTORS) for name in names}, mask


def simulate(circ: Circuit, values: Dict[str, int], mask: int) -> Dict[str, int]:
    """Words of every primary output under the given input words."""
    sig = dict(values)
    for name in _topological(circ):
        fanins, rows = circ.nodes[name]
        on = 0
        for cube, _bit in rows:
            term = mask
            for f, c in zip(fanins, cube):
                if c == "1":
                    term &= sig[f]
                elif c == "0":
                    term &= ~sig[f]
            on |= term
        # A cover lists either its on-set (output 1) or its off-set.
        if rows and rows[0][1] == "0":
            on = ~on
        sig[name] = on & mask
    missing = [po for po in circ.outputs if po not in sig]
    if missing:
        raise BlifError(f"undriven output(s) {', '.join(missing)}")
    return {po: sig[po] for po in circ.outputs}


def lut_stats(circ: Circuit) -> Tuple[int, int, int]:
    """``(depth, luts, widest)`` of a mapped network: unit delay per
    LUT, primary inputs and output pass-throughs at zero cost."""
    depth: Dict[str, int] = {pi: 0 for pi in circ.inputs}
    luts = widest = 0
    for name in _topological(circ):
        fanins = circ.nodes[name][0]
        if circ.is_alias(name):
            depth[name] = depth[fanins[0]]
            continue
        luts += 1
        widest = max(widest, len(fanins))
        depth[name] = 1 + max((depth[f] for f in fanins), default=-1)
    return max((depth[po] for po in circ.outputs), default=0), luts, widest


def check_mapping(
    source_blif: str,
    mapped_blif: str,
    k: int,
    depth: int,
    area: int,
    seed: int = 0,
) -> CheckResult:
    """Check a mapped network against its source and its reported
    ``depth`` / ``area``; ``problems`` is empty when every check holds."""
    problems: List[str] = []
    try:
        src = parse_blif(source_blif)
        dst = parse_blif(mapped_blif)
        real_depth, luts, widest = lut_stats(dst)
    except BlifError as exc:
        return CheckResult(-1, -1, [f"unreadable BLIF: {exc}"])
    if sorted(src.inputs) != sorted(dst.inputs):
        problems.append("primary inputs differ")
    if sorted(src.outputs) != sorted(dst.outputs):
        problems.append("primary outputs differ")
    if widest > k:
        problems.append(f"a LUT has {widest} fanins, more than K={k}")
    if real_depth != depth:
        problems.append(f"reported depth {depth} != recomputed {real_depth}")
    if luts != area:
        problems.append(f"reported area {area} != recomputed {luts} LUTs")
    if problems:
        return CheckResult(real_depth, luts, problems)
    values, mask = input_vectors(sorted(src.inputs), seed)
    try:
        want = simulate(src, values, mask)
        got = simulate(dst, values, mask)
    except BlifError as exc:
        return CheckResult(real_depth, luts, [f"cannot simulate: {exc}"])
    for po in src.outputs:
        if want[po] != got[po]:
            problems.append(f"output {po} differs from the source")
    return CheckResult(real_depth, luts, problems)
