"""Named benchmark instances standing in for the MCNC circuits.

Every circuit name used in the paper's tables maps here to a seeded
generator recipe from the matching structural family (see DESIGN.md,
"Substitutions").  Sizes are scaled to keep the pure-Python flows —
including place-and-route for Table IV — tractable, while preserving
each circuit's *texture*: PLA-style control logic, XOR/symmetric logic,
or regular datapath.

``build_circuit(name)`` is deterministic: same name → same network.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from repro.benchgen import generators as g
from repro.network.netlist import BooleanNetwork

_BUILDERS: Dict[str, Callable[[], BooleanNetwork]] = {}
_FAMILY: Dict[str, str] = {}


def _register(name: str, family: str, builder: Callable[[], BooleanNetwork]) -> None:
    _BUILDERS[name] = builder
    _FAMILY[name] = family


# ----------------------------------------------------------------------
# Control / random-logic circuits (Tables I, III, V texture)
# ----------------------------------------------------------------------
_register("cht", "control", lambda: g.control_circuit("cht", 201, n_pi=40, n_blocks=10, n_po=30))
_register("cm163a", "control", lambda: g.control_circuit("cm163a", 202, n_pi=16, n_blocks=4, n_po=5))
_register("count", "control", lambda: g.counter_increment("count", 14))
_register("lal", "control", lambda: g.control_circuit("lal", 203, n_pi=26, n_blocks=8, n_po=19))
_register("mux", "control", lambda: g.mux_tree("mux", 4))
_register("pcle", "control", lambda: g.control_circuit("pcle", 204, n_pi=19, n_blocks=5, n_po=9))
_register("sct", "control", lambda: g.control_circuit("sct", 205, n_pi=19, n_blocks=7, n_po=15))
_register("ttt2", "control", lambda: g.control_circuit("ttt2", 206, n_pi=24, n_blocks=9, n_po=21))
_register("unreg", "control", lambda: g.control_circuit("unreg", 207, n_pi=36, n_blocks=6, n_po=16))
_register("cc", "control", lambda: g.pla_block("cc", 21, 13, 40, seed=108))
_register("cu", "control", lambda: g.pla_block("cu", 14, 11, 35, seed=109))
_register("misex1", "control", lambda: g.pla_block("misex1", 8, 7, 28, seed=110, literal_prob=0.6))
_register("misex2", "control", lambda: g.pla_block("misex2", 25, 18, 45, seed=111))
_register("b9", "control", lambda: g.control_circuit("b9", 208, n_pi=41, n_blocks=9, n_po=21))
_register("frg1", "control", lambda: g.pla_block("frg1", 28, 3, 60, seed=113, literal_prob=0.35))
_register("sse", "control", lambda: g.fsm_logic("sse", 16, 7, 7, seed=114))
_register("keyb", "control", lambda: g.fsm_logic("keyb", 19, 7, 2, seed=115))
_register("planet", "control", lambda: g.fsm_logic("planet", 24, 7, 9, seed=116))

# ----------------------------------------------------------------------
# XOR-intensive circuits
# ----------------------------------------------------------------------
_register("9sym", "xor", lambda: g.symmetric_function("9sym", 9, (3, 4, 5, 6)))
_register("t481", "xor", lambda: g.symmetric_function("t481", 14, tuple(range(3, 15))))
_register("parity", "xor", lambda: g.parity_tree("parity", 16))
_register("z4ml", "xor", lambda: g.ripple_adder("z4ml", 4, with_carry_in=False))
_register("cordic", "xor", lambda: g.pla_block("cordic", 23, 2, 60, seed=117, literal_prob=0.4))
_register("my_adder", "xor", lambda: g.ripple_adder("my_adder", 16))

# ----------------------------------------------------------------------
# Datapath circuits (Table IV texture — the ten "largest MCNC")
# ----------------------------------------------------------------------
_register("alu4", "datapath", lambda: g.alu("alu4", 12))
_register("apex2", "datapath", lambda: g.pla_block("apex2", 36, 3, 120, seed=118, literal_prob=0.3))
_register("apex4", "datapath", lambda: g.pla_block("apex4", 9, 19, 140, seed=119, literal_prob=0.7))
_register("des", "datapath", lambda: g.control_circuit("des", 209, n_pi=64, n_blocks=22, n_po=64))
_register("ex1010", "datapath", lambda: g.pla_block("ex1010", 10, 10, 150, seed=121, literal_prob=0.7))
_register("ex5p", "datapath", lambda: g.pla_block("ex5p", 8, 28, 110, seed=122, literal_prob=0.65))
_register("misex3", "datapath", lambda: g.pla_block("misex3", 14, 14, 120, seed=123, literal_prob=0.5))
_register("pdc", "datapath", lambda: g.pla_block("pdc", 16, 20, 140, seed=124, literal_prob=0.45))
_register("seq", "datapath", lambda: g.pla_block("seq", 35, 20, 130, seed=125, literal_prob=0.3))
_register("spla", "datapath", lambda: g.pla_block("spla", 16, 23, 130, seed=126, literal_prob=0.45))
_register("mult8", "datapath", lambda: g.array_multiplier("mult8", 8))
_register("comp16", "datapath", lambda: g.comparator("comp16", 16))

# ----------------------------------------------------------------------
# Additional named circuits (not in the paper's table suites, provided
# for users and wider testing)
# ----------------------------------------------------------------------
_register("apex7", "control", lambda: g.control_circuit("apex7", 210, n_pi=49, n_blocks=12, n_po=37))
_register("term1", "control", lambda: g.control_circuit("term1", 211, n_pi=34, n_blocks=7, n_po=10))
_register("x1", "control", lambda: g.control_circuit("x1", 212, n_pi=51, n_blocks=11, n_po=35))
_register("c8", "control", lambda: g.control_circuit("c8", 213, n_pi=28, n_blocks=6, n_po=18))
_register("example2", "control", lambda: g.control_circuit("example2", 214, n_pi=50, n_blocks=10, n_po=49))
_register("o64", "control", lambda: g.decoder("o64", 6))
_register("alu2", "datapath", lambda: g.alu("alu2", 8))
_register("f51m", "xor", lambda: g.ripple_adder("f51m", 8, with_carry_in=True))
_register("9symml", "xor", lambda: g.symmetric_function("9symml", 9, (3, 4, 5, 6)))
_register("dk16", "control", lambda: g.fsm_logic("dk16", 27, 2, 3, seed=215))
_register("styr", "control", lambda: g.fsm_logic("styr", 30, 5, 5, seed=216))
_register("mult4", "datapath", lambda: g.array_multiplier("mult4", 4))
_register("comp8", "datapath", lambda: g.comparator("comp8", 8))
_register("priority16", "control", lambda: _priority(16))


def _priority(n: int) -> BooleanNetwork:
    """A bare n-way priority encoder (the canonical chain texture)."""
    net = BooleanNetwork(f"priority{n}")
    reqs = [net.add_pi(f"r{i}") for i in range(n)]
    none_above = None
    for i, r in enumerate(reqs):
        if none_above is None:
            net.add_gate(f"g{i}", "buf", [r])
        else:
            net.add_gate(f"g{i}", "and", [r, none_above])
        net.add_gate(f"n{i}", "not", [r])
        if none_above is None:
            none_above = f"n{i}"
        else:
            net.add_gate(f"na{i}", "and", [none_above, f"n{i}"])
            none_above = f"na{i}"
        net.add_po(f"grant{i}", f"g{i}")
    net.check()
    return net


# ----------------------------------------------------------------------
# Suites used by the experiment drivers
# ----------------------------------------------------------------------
#: Circuits for the collapsing ablation.  The paper's Table I shows
#: "some of the circuits" of the comparison suite; we likewise pick
#: circuits where partial collapsing has room to act (multilevel
#: control and XOR logic).  On flat cube-pool PLAs (cc, cordic) our
#: collapsing can *hurt* depth — see the Table I caveat in
#: EXPERIMENTS.md.
TABLE1_SUITE: List[str] = ["cht", "sct", "misex1", "9sym", "sse", "ttt2", "count", "lal"]

#: The BDS-pga comparison suite (Table III): control/random + XOR mix.
TABLE3_SUITE: List[str] = [
    "cht", "cm163a", "count", "lal", "mux", "pcle", "sct", "ttt2", "unreg",
    "cc", "cu", "misex1", "misex2", "b9", "frg1", "9sym", "t481", "parity",
    "z4ml", "cordic", "my_adder", "sse", "keyb", "planet",
]

#: The "ten largest MCNC" (Table IV): datapath-heavy, routed with VPR.
TABLE4_SUITE: List[str] = [
    "alu4", "apex2", "apex4", "des", "ex1010",
    "ex5p", "misex3", "pdc", "seq", "spla",
]

#: Nine control circuits (Table V).
TABLE5_SUITE: List[str] = [
    "cht", "cm163a", "count", "lal", "mux", "pcle", "sct", "ttt2", "unreg",
]

CIRCUITS: Dict[str, str] = dict(_FAMILY)


def build_circuit(name: str) -> BooleanNetwork:
    """Build the named benchmark circuit (deterministic)."""
    try:
        return _BUILDERS[name]()
    except KeyError:
        raise KeyError(f"unknown benchmark circuit {name!r}; known: {sorted(_BUILDERS)}")
