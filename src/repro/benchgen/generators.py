"""Seeded circuit generators for the three MCNC circuit families.

All generators are deterministic given their seed and return fully
checked :class:`~repro.network.netlist.BooleanNetwork` objects.  The
structural signatures matter more than the exact functions:

* **Control / random logic** (PLA covers, FSM logic): wide-fanin nodes
  defined by shared cube covers — the circuits where the paper shows
  DDBDD winning (BDD restructuring beats structure-preserving mappers
  on two-level-ish logic).
* **XOR-intensive logic** (parity, symmetric functions): functions
  whose SOP representations explode, the classic BDS motivation.
* **Datapath** (adders, ALUs, multipliers): regular, well-structured
  logic where the paper concedes DDBDD loses to DAOmap/ABC.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.bdd.manager import BDDManager
from repro.network.netlist import BooleanNetwork


# ----------------------------------------------------------------------
# Control / random logic
# ----------------------------------------------------------------------
def pla_block(
    name: str,
    n_inputs: int,
    n_outputs: int,
    n_cubes: int,
    seed: int,
    literal_prob: float = 0.45,
    cubes_per_output: Optional[Tuple[int, int]] = None,
) -> BooleanNetwork:
    """A multi-output PLA: outputs share a random cube pool.

    Mirrors the two-level origin of most MCNC control benchmarks: each
    output is an OR of a random subset of ``n_cubes`` shared product
    terms, each term a random partial assignment of the inputs.  The
    netlist is emitted in the natural factored shape — one wide AND
    node per product term, one wide OR node per output — which is what
    a PLA looks like after import into a logic network (and keeps every
    local BDD linear in its fanin count).
    """
    rng = random.Random(seed)
    net = BooleanNetwork(name)
    pis = [net.add_pi(f"in{i}") for i in range(n_inputs)]
    counter = [0]

    def tree(op: str, sigs: List[str], fanin: int, tag: str) -> str:
        """Reduce ``sigs`` with ``op`` through a tree of bounded fanin —
        the shape multilevel optimization gives two-level logic, which
        is how the MCNC suite was actually distributed."""
        layer = list(sigs)
        while len(layer) > 1:
            nxt = []
            for i in range(0, len(layer), fanin):
                group = layer[i : i + fanin]
                if len(group) == 1:
                    nxt.append(group[0])
                    continue
                nm = f"{tag}{counter[0]}"
                counter[0] += 1
                net.add_gate(nm, op, group)
                nxt.append(nm)
            layer = nxt
        return layer[0]

    cube_sigs: List[str] = []
    max_cube_width = 6
    for c in range(n_cubes):
        lits: List[str] = []
        for i in rng.sample(range(n_inputs), n_inputs):
            if len(lits) >= max_cube_width:
                break
            if rng.random() < literal_prob:
                if rng.random() < 0.5:
                    lits.append(pis[i])
                else:
                    nm = f"inv{counter[0]}"
                    counter[0] += 1
                    net.add_gate(nm, "not", [pis[i]])
                    lits.append(nm)
        if not lits:
            lits.append(pis[rng.randrange(n_inputs)])
        cube_sigs.append(tree("and", lits, 4, f"cand{c}_") if len(lits) > 1 else lits[0])
    lo, hi = cubes_per_output or (max(2, n_cubes // 4), max(3, (3 * n_cubes) // 4))
    for o in range(n_outputs):
        count = rng.randint(lo, min(hi, n_cubes))
        chosen = rng.sample(cube_sigs, count)
        out = tree("or", chosen, 4, f"oor{o}_")
        if out in net.pis:
            net.add_gate(f"out{o}", "buf", [out])
            out = f"out{o}"
        net.add_po(f"po{o}", out)
    from repro.network.transform import remove_dangling, sweep

    sweep(net)
    remove_dangling(net)
    net.check()
    return net


def fsm_logic(
    name: str,
    n_states: int,
    n_inputs: int,
    n_outputs: int,
    seed: int,
) -> BooleanNetwork:
    """Combinational core of a random FSM (next-state + output logic).

    State bits appear as extra primary inputs, next-state bits as extra
    primary outputs — exactly how sequential MCNC circuits were used in
    combinational mapping experiments.
    """
    rng = random.Random(seed)
    n_bits = max(1, (n_states - 1).bit_length())
    net = BooleanNetwork(name)
    state_pis = [net.add_pi(f"s{i}") for i in range(n_bits)]
    in_pis = [net.add_pi(f"x{i}") for i in range(n_inputs)]
    all_pis = state_pis + in_pis

    # Random transition/output tables over the reachable codes.
    n_words = 1 << n_inputs
    next_state: Dict[Tuple[int, int], int] = {}
    out_word: Dict[Tuple[int, int], int] = {}
    for s in range(n_states):
        for w in range(n_words):
            next_state[(s, w)] = rng.randrange(n_states)
            out_word[(s, w)] = rng.getrandbits(n_outputs) if n_outputs else 0

    def minterm_cube(s: int, w: int) -> str:
        bits = [str((s >> b) & 1) for b in range(n_bits)]
        bits += [str((w >> b) & 1) for b in range(n_inputs)]
        return "".join(bits)

    for b in range(n_bits):
        cubes = [
            minterm_cube(s, w)
            for (s, w), ns in next_state.items()
            if (ns >> b) & 1
        ]
        node = f"ns{b}"
        net.add_node_from_cover(node, all_pis, cubes)
        net.add_po(f"po_ns{b}", node)
    for o in range(n_outputs):
        cubes = [
            minterm_cube(s, w)
            for (s, w), word in out_word.items()
            if (word >> o) & 1
        ]
        node = f"out{o}"
        net.add_node_from_cover(node, all_pis, cubes)
        net.add_po(f"po_out{o}", node)
    net.check()
    return net


def random_logic(
    name: str,
    n_pi: int,
    n_gates: int,
    n_po: int,
    seed: int,
    xor_frac: float = 0.15,
    wide_frac: float = 0.25,
    locality: int = 25,
) -> BooleanNetwork:
    """Random multi-level logic with a mix of small gates and wide
    cover-defined nodes (the "random logic" texture of MCNC nets)."""
    rng = random.Random(seed)
    net = BooleanNetwork(name)
    sigs = [net.add_pi(f"i{k}") for k in range(n_pi)]
    for g in range(n_gates):
        window = sigs[-min(len(sigs), locality):]
        nm = f"g{g}"
        r = rng.random()
        if r < wide_frac and len(window) >= 5:
            # Sparse cover node: few cubes, few literals each — the
            # texture of multilevel-optimized control logic (dense
            # random functions are incompressible and unrealistic).
            width = rng.randint(4, min(7, len(window)))
            fans = rng.sample(window, width)
            n_cubes = rng.randint(2, 4)
            cubes = []
            for _ in range(n_cubes):
                cube = ["-"] * width
                for pos in rng.sample(range(width), rng.randint(1, 3)):
                    cube[pos] = rng.choice("01")
                cubes.append("".join(cube))
            net.add_node_from_cover(nm, fans, cubes)
        elif r < wide_frac + xor_frac:
            fans = rng.sample(window, 2)
            net.add_gate(nm, rng.choice(["xor", "xnor"]), fans)
        else:
            op = rng.choice(["and", "or", "nand", "nor", "mux", "maj"])
            arity = 3 if op in ("mux", "maj") else 2
            fans = rng.sample(window, min(arity, len(window)))
            if len(fans) < arity:
                op = "and"
                fans = fans[:2]
            net.add_gate(nm, op, fans)
        sigs.append(nm)
    outs = rng.sample(sigs[n_pi:], min(n_po, n_gates))
    for k, s in enumerate(outs):
        net.add_po(f"o{k}", s)
    net.check()
    return net


def control_circuit(
    name: str,
    seed: int,
    n_pi: int = 24,
    n_blocks: int = 8,
    n_po: int = 12,
) -> BooleanNetwork:
    """Composite control circuit: the MCNC control-benchmark texture.

    Real control logic (traffic controllers, bus arbiters, decode
    units) is dominated by *priority chains* (case statements, request
    arbitration), sparse decodes, comparisons, small parity checks and
    two-level-ish enables — structured, reconvergent, and naturally
    deep when written as a netlist.  Structure-preserving mappers
    inherit the chains; BDD resynthesis rebalances them, which is
    exactly the optimization margin the paper measures on its control
    suite.  Blocks draw operands from a shared signal pool (locality
    biased) and feed their outputs back, giving realistic reconvergent
    fanout.
    """
    rng = random.Random(seed)
    net = BooleanNetwork(name)
    pool: List[str] = [net.add_pi(f"i{k}") for k in range(n_pi)]
    use_count: Dict[str, int] = {}
    counter = [0]

    def fresh(tag: str) -> str:
        counter[0] += 1
        return f"{tag}{counter[0]}"

    def gate(op: str, fans: List[str]) -> str:
        nm = fresh("g")
        net.add_gate(nm, op, fans)
        for f in fans:
            use_count[f] = use_count.get(f, 0) + 1
        return nm

    def sample(k: int) -> List[str]:
        window = list(dict.fromkeys(pool[-min(len(pool), 30):]))
        k = min(k, len(window))
        return rng.sample(window, k)

    def glue_pair() -> List[str]:
        return sample(2)

    outputs: List[str] = []

    for _ in range(n_blocks):
        kind = rng.choice(
            ["priority", "priority", "encoder", "parity", "pla", "muxtree", "compare"]
        )
        if kind == "priority":
            length = rng.randint(5, 10)
            conds = [gate(rng.choice(["and", "or", "xor"]), glue_pair()) for _ in range(length)]
            datas = [gate(rng.choice(["and", "or", "xnor"]), glue_pair()) for _ in range(length)]
            cur = datas[-1]
            for i in reversed(range(length - 1)):
                cur = gate("mux", [conds[i], datas[i], cur])
                if rng.random() < 0.2:
                    pool.append(cur)  # mid-chain tap
            pool.append(cur)
            outputs.append(cur)
        elif kind == "encoder":
            reqs = sample(rng.randint(4, 8))
            none_above: Optional[str] = None
            for r in reqs:
                grant = r if none_above is None else gate("and", [r, none_above])
                inv = gate("not", [r])
                none_above = inv if none_above is None else gate("and", [none_above, inv])
                pool.append(grant)
            outputs.append(none_above)
            pool.append(none_above)
        elif kind == "parity":
            sigs = sample(rng.randint(4, 7))
            cur = sigs[0]
            for s in sigs[1:]:
                cur = gate("xor", [cur, s])
            pool.append(cur)
            outputs.append(cur)
        elif kind == "pla":
            n_cubes = rng.randint(5, 9)
            cubes = []
            for _ in range(n_cubes):
                lits = []
                for s in sample(rng.randint(2, 3)):
                    lits.append(s if rng.random() < 0.6 else gate("not", [s]))
                cur = lits[0]
                for l in lits[1:]:
                    cur = gate("and", [cur, l])
                cubes.append(cur)
            for _ in range(rng.randint(1, 3)):
                chosen = rng.sample(cubes, rng.randint(2, max(2, n_cubes - 2)))
                cur = chosen[0]
                for c in chosen[1:]:
                    cur = gate("or", [cur, c])
                pool.append(cur)
                outputs.append(cur)
        elif kind == "muxtree":
            n_sel = rng.randint(2, 3)
            data = sample(1 << n_sel)
            sel = sample(n_sel)
            if len(data) < (1 << n_sel) or len(set(sel) & set(data)):
                continue
            layer = data
            for level in range(n_sel):
                nxt = []
                for i in range(0, len(layer), 2):
                    nxt.append(gate("mux", [sel[level], layer[i + 1], layer[i]]))
                layer = nxt
            pool.append(layer[0])
            outputs.append(layer[0])
        else:  # compare: chained equality over signal pairs
            k = rng.randint(3, 5)
            xs, ys = sample(k), sample(k)
            eq: Optional[str] = None
            for a, b in zip(xs, ys):
                if a == b:
                    continue
                e = gate("xnor", [a, b])
                eq = e if eq is None else gate("and", [eq, e])
            if eq is not None:
                pool.append(eq)
                outputs.append(eq)

    # Glue gates sprinkle extra reconvergence.
    for _ in range(n_blocks * 2):
        fans = glue_pair()
        if len(set(fans)) == 2:
            pool.append(gate(rng.choice(["and", "or", "nand", "nor"]), fans))

    candidates = [s for s in dict.fromkeys(outputs + pool[n_pi:])]
    rng.shuffle(candidates)
    for k, s in enumerate(candidates[:n_po]):
        net.add_po(f"o{k}", s)
    from repro.network.transform import remove_dangling, sweep

    sweep(net)
    remove_dangling(net)
    net.check()
    return net


# ----------------------------------------------------------------------
# XOR-intensive logic
# ----------------------------------------------------------------------
def parity_tree(name: str, n_inputs: int, chunk: int = 1) -> BooleanNetwork:
    """Odd parity of ``n_inputs`` bits.

    ``chunk`` > 1 groups inputs into wide XOR nodes (cover-defined), so
    the SOP structure the baselines see is genuinely two-level wide.
    """
    net = BooleanNetwork(name)
    pis = [net.add_pi(f"i{k}") for k in range(n_inputs)]
    layer = pis
    idx = 0
    while len(layer) > 1:
        nxt = []
        step = max(2, chunk + 1) if chunk > 1 else 2
        for i in range(0, len(layer), step):
            group = layer[i : i + step]
            if len(group) == 1:
                nxt.append(group[0])
                continue
            nm = f"x{idx}"
            idx += 1
            net.add_gate(nm, "xor", group[:2])
            cur = nm
            for extra in group[2:]:
                nm = f"x{idx}"
                idx += 1
                net.add_gate(nm, "xor", [cur, extra])
                cur = nm
            nxt.append(cur)
        layer = nxt
    net.add_po("parity", layer[0])
    net.check()
    return net


def symmetric_function(
    name: str, n_inputs: int, on_counts: Sequence[int]
) -> BooleanNetwork:
    """Totally symmetric function: true when the input popcount is in
    ``on_counts`` (9sym is ``symmetric_function("9sym", 9, (3,4,5,6))``).

    Built as a single wide node — the two-level view the MCNC PLA file
    gives the baselines, while BDDs represent it compactly.
    """
    net = BooleanNetwork(name)
    pis = [net.add_pi(f"i{k}") for k in range(n_inputs)]
    # Dynamic program over (inputs consumed, count so far) as BDD layers.
    variables = [net.var_of(pi) for pi in pis]
    func = _count_in(net.mgr, variables, 0, 0, set(on_counts), {})
    net.add_node_function("sym", pis, func)
    net.add_po("po", "sym")
    net.check()
    return net


def _count_in(
    mgr: BDDManager, variables: List[int], i: int, count: int, wanted: Set[int],
    cache: Dict[Tuple[int, int], int],
) -> int:
    """BDD of "the popcount of ``variables[i:]`` plus ``count`` is in
    ``wanted``"."""
    if i == len(variables):
        return mgr.ONE if count in wanted else mgr.ZERO
    key = (i, count)
    got = cache.get(key)
    if got is not None:
        return got
    result = mgr.ite(
        mgr.var(variables[i]),
        _count_in(mgr, variables, i + 1, count + 1, wanted, cache),
        _count_in(mgr, variables, i + 1, count, wanted, cache),
    )
    cache[key] = result
    return result


# ----------------------------------------------------------------------
# Datapath
# ----------------------------------------------------------------------
def ripple_adder(name: str, width: int, with_carry_in: bool = True) -> BooleanNetwork:
    """Ripple-carry adder (``my_adder``-style)."""
    net = BooleanNetwork(name)
    a = [net.add_pi(f"a{i}") for i in range(width)]
    b = [net.add_pi(f"b{i}") for i in range(width)]
    carry = None
    if with_carry_in:
        carry = net.add_pi("cin")
    for i in range(width):
        ab = f"ab{i}"
        net.add_gate(ab, "xor", [a[i], b[i]])
        if carry is None:
            s = ab
            cnew = f"c{i}"
            net.add_gate(cnew, "and", [a[i], b[i]])
        else:
            s = f"s{i}"
            net.add_gate(s, "xor", [ab, carry])
            cnew = f"c{i}"
            net.add_gate(cnew, "maj", [a[i], b[i], carry])
        net.add_po(f"sum{i}", s)
        carry = cnew
    net.add_po("cout", carry)
    net.check()
    return net


def alu(name: str, width: int, seed: int = 0) -> BooleanNetwork:
    """A small ALU (``alu2``/``alu4``-style): add, and, or, xor muxed by
    two opcode bits, plus a zero flag."""
    net = BooleanNetwork(name)
    a = [net.add_pi(f"a{i}") for i in range(width)]
    b = [net.add_pi(f"b{i}") for i in range(width)]
    op0 = net.add_pi("op0")
    op1 = net.add_pi("op1")
    carry = None
    results: List[str] = []
    for i in range(width):
        and_i = f"and{i}"
        or_i = f"or{i}"
        xor_i = f"xor{i}"
        net.add_gate(and_i, "and", [a[i], b[i]])
        net.add_gate(or_i, "or", [a[i], b[i]])
        net.add_gate(xor_i, "xor", [a[i], b[i]])
        if carry is None:
            add_i = xor_i
            carry_next = and_i
        else:
            add_i = f"add{i}"
            net.add_gate(add_i, "xor", [xor_i, carry])
            carry_next = f"cy{i}"
            net.add_gate(carry_next, "maj", [a[i], b[i], carry])
        m0 = f"m0_{i}"
        m1 = f"m1_{i}"
        out = f"res{i}"
        net.add_gate(m0, "mux", [op0, add_i, and_i])
        net.add_gate(m1, "mux", [op0, or_i, xor_i])
        net.add_gate(out, "mux", [op1, m1, m0])
        net.add_po(f"y{i}", out)
        results.append(out)
        carry = carry_next
    # Zero flag: NOR over the result bits.
    prev = results[0]
    for i, r in enumerate(results[1:]):
        nm = f"zor{i}"
        net.add_gate(nm, "or", [prev, r])
        prev = nm
    net.add_gate("zero", "not", [prev])
    net.add_po("zflag", "zero")
    net.check()
    return net


def array_multiplier(name: str, width: int) -> BooleanNetwork:
    """Unsigned array multiplier (carry-save rows)."""
    net = BooleanNetwork(name)
    a = [net.add_pi(f"a{i}") for i in range(width)]
    b = [net.add_pi(f"b{i}") for i in range(width)]
    pp: Dict[Tuple[int, int], str] = {}
    for i in range(width):
        for j in range(width):
            nm = f"pp{i}_{j}"
            net.add_gate(nm, "and", [a[i], b[j]])
            pp[(i, j)] = nm
    # Column-wise carry-save reduction.
    columns: List[List[str]] = [[] for _ in range(2 * width)]
    for (i, j), nm in pp.items():
        columns[i + j].append(nm)
    counter = 0
    for col in range(2 * width):
        bits = columns[col]
        while len(bits) > 1:
            if len(bits) >= 3:
                x, y, z = bits.pop(), bits.pop(), bits.pop()
                s = f"fa_s{counter}"
                c = f"fa_c{counter}"
                counter += 1
                t = f"fa_t{counter}"
                counter += 1
                net.add_gate(t, "xor", [x, y])
                net.add_gate(s, "xor", [t, z])
                net.add_gate(c, "maj", [x, y, z])
                bits.append(s)
                if col + 1 < 2 * width:
                    columns[col + 1].append(c)
            else:
                x, y = bits.pop(), bits.pop()
                s = f"ha_s{counter}"
                c = f"ha_c{counter}"
                counter += 1
                net.add_gate(s, "xor", [x, y])
                net.add_gate(c, "and", [x, y])
                bits.append(s)
                if col + 1 < 2 * width:
                    columns[col + 1].append(c)
        if bits:
            net.add_po(f"p{col}", bits[0])
    net.check()
    return net


def comparator(name: str, width: int) -> BooleanNetwork:
    """Magnitude comparator: ``a > b``, ``a == b`` outputs."""
    net = BooleanNetwork(name)
    a = [net.add_pi(f"a{i}") for i in range(width)]
    b = [net.add_pi(f"b{i}") for i in range(width)]
    gt_prev = None
    eq_prev = None
    for i in reversed(range(width)):  # MSB first
        eq_i = f"eq{i}"
        net.add_gate(eq_i, "xnor", [a[i], b[i]])
        nb = f"nb{i}"
        net.add_gate(nb, "not", [b[i]])
        gt_i = f"gtbit{i}"
        net.add_gate(gt_i, "and", [a[i], nb])
        if gt_prev is None:
            gt_prev, eq_prev = gt_i, eq_i
        else:
            path = f"gtpath{i}"
            net.add_gate(path, "and", [eq_prev, gt_i])
            ng = f"gt{i}"
            net.add_gate(ng, "or", [gt_prev, path])
            ne = f"eqc{i}"
            net.add_gate(ne, "and", [eq_prev, eq_i])
            gt_prev, eq_prev = ng, ne
    net.add_po("gt", gt_prev)
    net.add_po("eq", eq_prev)
    net.check()
    return net


def decoder(name: str, n_select: int) -> BooleanNetwork:
    """Full ``n``-to-``2**n`` decoder (wide AND terms)."""
    net = BooleanNetwork(name)
    sel = [net.add_pi(f"s{i}") for i in range(n_select)]
    for code in range(1 << n_select):
        cube = "".join("1" if (code >> i) & 1 else "0" for i in range(n_select))
        nm = f"d{code}"
        net.add_node_from_cover(nm, sel, [cube])
        net.add_po(f"po{code}", nm)
    net.check()
    return net


def mux_tree(name: str, n_select: int) -> BooleanNetwork:
    """``2**n``-to-1 multiplexer tree (the MCNC ``mux`` texture)."""
    net = BooleanNetwork(name)
    data = [net.add_pi(f"d{i}") for i in range(1 << n_select)]
    sel = [net.add_pi(f"s{i}") for i in range(n_select)]
    layer = data
    counter = 0
    for level in range(n_select):
        nxt = []
        for i in range(0, len(layer), 2):
            nm = f"m{counter}"
            counter += 1
            net.add_gate(nm, "mux", [sel[level], layer[i + 1], layer[i]])
            nxt.append(nm)
        layer = nxt
    net.add_po("y", layer[0])
    net.check()
    return net


def counter_increment(name: str, width: int) -> BooleanNetwork:
    """Increment logic of a ``width``-bit counter (``count`` texture)."""
    net = BooleanNetwork(name)
    q = [net.add_pi(f"q{i}") for i in range(width)]
    en = net.add_pi("en")
    carry = en
    for i in range(width):
        s = f"n{i}"
        net.add_gate(s, "xor", [q[i], carry])
        net.add_po(f"d{i}", s)
        c = f"cc{i}"
        net.add_gate(c, "and", [q[i], carry])
        carry = c
    net.add_po("ovf", carry)
    net.check()
    return net
