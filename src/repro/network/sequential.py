"""Sequential circuits and combinational-core extraction.

Several of the paper's benchmarks (the FSM circuits; the larger MCNC
designs like `bigkey`/`s38417` in the VPR suites) are sequential.  The
standard methodology — which the paper follows implicitly by reporting
pure mapping depths — maps their *combinational cores*: every latch
output becomes a pseudo primary input and every latch input a pseudo
primary output.

:class:`SequentialNetwork` wraps a combinational
:class:`~repro.network.netlist.BooleanNetwork` plus latch bindings, can
be parsed from BLIF (``.latch`` lines), extracted to its core, and
re-assembled after the core has been synthesized/mapped.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.network.netlist import BooleanNetwork, NetworkError


@dataclass
class Latch:
    """One D-latch/flip-flop: ``output`` holds ``input``'s last value."""

    input: str
    output: str
    init: str = "0"  # '0', '1', '2' (don't care) or '3' (unknown), as in BLIF


@dataclass
class SequentialNetwork:
    """A netlist with state: combinational logic + latches."""

    core: BooleanNetwork
    latches: List[Latch] = field(default_factory=list)
    name: str = "seq"

    @property
    def state_bits(self) -> int:
        return len(self.latches)

    def check(self) -> None:
        defined = set(self.core.pis) | set(self.core.nodes)
        for latch in self.latches:
            if latch.output not in self.core.pis:
                raise NetworkError(
                    f"latch output {latch.output!r} must be a pseudo-PI of the core"
                )
            if latch.input not in defined:
                raise NetworkError(f"latch input {latch.input!r} is undefined")
        self.core.check()

    def replace_core(self, new_core: BooleanNetwork) -> "SequentialNetwork":
        """Swap in a synthesized/mapped core (same interface)."""
        if set(new_core.pis) != set(self.core.pis):
            raise NetworkError("new core changes the PI interface")
        if set(new_core.pos) != set(self.core.pos):
            raise NetworkError("new core changes the PO interface")
        return SequentialNetwork(new_core, list(self.latches), self.name)

    def simulate(
        self, input_sequence: List[Dict[str, bool]], initial: Optional[Dict[str, bool]] = None
    ) -> List[Dict[str, bool]]:
        """Cycle-accurate simulation; returns PO values per cycle."""
        from repro.network.simulate import simulate as sim

        state: Dict[str, bool] = {}
        for latch in self.latches:
            if initial is not None and latch.output in initial:
                state[latch.output] = initial[latch.output]
            else:
                state[latch.output] = latch.init == "1"
        outputs: List[Dict[str, bool]] = []
        real_pos = [po for po in self.core.pos if not po.startswith("_next_")]
        next_po = {latch.output: f"_next_{latch.output}" for latch in self.latches}
        for vector in input_sequence:
            words = {}
            for pi in self.core.pis:
                if pi in state:
                    words[pi] = 1 if state[pi] else 0
                else:
                    words[pi] = 1 if vector.get(pi, False) else 0
            values = sim(self.core, words, 1)
            outputs.append({po: bool(values[self.core.pos[po]] & 1) for po in real_pos})
            for latch in self.latches:
                driver = self.core.pos[next_po[latch.output]]
                state[latch.output] = bool(values[driver] & 1)
        return outputs


def parse_sequential_blif(text: str, name_hint: str = "seq") -> SequentialNetwork:
    """Parse BLIF *with* ``.latch`` lines into a sequential network.

    The returned network's core is the combinational core: latch
    outputs appear as PIs and latch inputs as pseudo-POs named
    ``_next_<latch output>``.
    """
    from repro.network.blif import _logical_lines, parse_blif

    latches: List[Latch] = []
    passthrough: List[str] = []
    for line in _logical_lines(text):
        tokens = line.split()
        if tokens and tokens[0] == ".latch":
            # .latch <input> <output> [<type> <control>] [<init>]
            if len(tokens) < 3:
                raise NetworkError(f"malformed .latch: {line!r}")
            init = tokens[-1] if tokens[-1] in ("0", "1", "2", "3") and len(tokens) > 3 else "0"
            latches.append(Latch(input=tokens[1], output=tokens[2], init=init))
        else:
            passthrough.append(line)

    if not latches:
        core = parse_blif("\n".join(passthrough), name_hint)
        return SequentialNetwork(core, [], core.name)

    # Promote latch outputs to PIs and latch inputs to pseudo-POs.
    rebuilt: List[str] = []
    for line in passthrough:
        tokens = line.split()
        if tokens and tokens[0] == ".inputs":
            line = ".inputs " + " ".join(tokens[1:] + [l.output for l in latches])
        elif tokens and tokens[0] == ".outputs":
            line = ".outputs " + " ".join(
                tokens[1:] + [f"_next_{l.output}" for l in latches]
            )
        rebuilt.append(line)
    # Define the pseudo-PO pass-through nodes.
    buffers = []
    for latch in latches:
        buffers.append(f".names {latch.input} _next_{latch.output}")
        buffers.append("1 1")
    blif_core = []
    for line in rebuilt:
        if line == ".end":
            blif_core.extend(buffers)
        blif_core.append(line)
    if ".end" not in rebuilt:
        blif_core.extend(buffers)
    core = parse_blif("\n".join(blif_core), name_hint)
    seq = SequentialNetwork(core, latches, core.name)
    seq.check()
    return seq


def read_sequential_blif(path: str) -> SequentialNetwork:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_sequential_blif(fh.read(), name_hint=path)


def write_sequential_blif(seq: SequentialNetwork, path: str) -> None:
    """Write the sequential network back as BLIF with ``.latch`` lines."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(sequential_to_blif(seq))


def sequential_to_blif(seq: SequentialNetwork) -> str:
    from repro.bdd.isop import isop
    import io

    core = seq.core
    latch_outs = {l.output for l in seq.latches}
    next_pos = {f"_next_{l.output}" for l in seq.latches}
    out = io.StringIO()
    out.write(f".model {seq.name}\n")
    out.write(".inputs " + " ".join(p for p in core.pis if p not in latch_outs) + "\n")
    out.write(".outputs " + " ".join(p for p in core.pos if p not in next_pos) + "\n")
    # The parser materializes each latch input as an identity buffer
    # named `_next_<output>`; unwrap those on the way out (and skip
    # emitting them) so the written latch points at the real driver and
    # a re-parse does not collide with the reserved names.
    skip_nodes = set()
    for latch in seq.latches:
        driver = core.pos[f"_next_{latch.output}"]
        node = core.nodes.get(driver)
        if (
            node is not None
            and driver.startswith("_next_")
            and len(node.fanins) == 1
            and node.func == core.mgr.var(core.var_of(node.fanins[0]))
        ):
            skip_nodes.add(driver)
            driver = node.fanins[0]
        out.write(f".latch {driver} {latch.output} re clk {latch.init}\n")
    from repro.network.depth import topological_order

    for name in topological_order(core):
        if name in skip_nodes:
            continue
        node = core.nodes[name]
        out.write(".names " + " ".join(node.fanins + [name]) + "\n")
        if node.func == core.mgr.ZERO:
            continue
        if node.func == core.mgr.ONE:
            out.write(("-" * len(node.fanins) + " 1\n") if node.fanins else "1\n")
            continue
        var_index = {core.var_of(f): i for i, f in enumerate(node.fanins)}
        for cube in isop(core.mgr, node.func):
            chars = ["-"] * len(node.fanins)
            for v, positive in cube.items():
                chars[var_index[v]] = "1" if positive else "0"
            out.write("".join(chars) + " 1\n")
    for po, driver in core.pos.items():
        if po in next_pos:
            continue
        if po != driver and po not in core.nodes and po not in core.pis:
            out.write(f".names {driver} {po}\n1 1\n")
    out.write(".end\n")
    return out.getvalue()
