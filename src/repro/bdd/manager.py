"""Hash-consed ROBDD manager with complement edges.

The manager owns a struct-of-arrays node store shared by every function
it builds: three parallel list columns (``var``, ``lo``, ``hi``) indexed
by integer *store row*.  A BDD function is an ``int`` **handle**
``(row << 1) | complement``: the low bit tags whether the function is
the stored node or its complement.  Equality of handles is equality of
functions (canonicity).  Store row 0 is the constant-FALSE terminal, so
handle 0 is ZERO and handle 1 (its complement) is ONE.

Canonical form: the stored *then*-edge of every row is a regular
(uncomplemented) handle.  ``_mk`` enforces this by complementing both
children and returning a complemented handle whenever the requested
then-edge is complemented, which

* makes ``negate`` O(1) (``f ^ 1`` — the NOT cache of the previous
  engine disappears entirely), and
* roughly halves the unique table and the node store: a function and
  its complement share one row.

All structural accessors (:meth:`lo`, :meth:`hi`, :meth:`node`,
:meth:`top_var`) resolve the complement bit, so a handle walk sees the
plain cofactor DAG of the function — node counts, supports, cut sets
and exported signatures are exactly what an explicit-polarity store
would produce.  DDBDD's linear expansion (paths to the 1 terminal) is
evaluated on that resolved view, never on raw store rows.

Variables are identified by small integers in creation order.  Each
manager carries a variable *order*: ``level_of(v)`` gives the level
(position from the root) at which variable ``v`` appears.  All
structural algorithms split on the variable of minimum level.  The
order is fixed at construction time (pass ``order=`` or leave the
identity); reordering is done by rebuilding into a fresh manager
(:mod:`repro.bdd.reorder`) or by in-place adjacent-level swaps.

Hot-path engineering
--------------------
The operator suite is the synthesis flow's innermost loop, so it is
tuned for CPython:

* AND and XOR have dedicated binary recursions with per-operator
  caches; OR and XNOR are O(1) complement wrappers (De Morgan:
  ``f ∨ g = ¬(¬f · ¬g)``; ``f ⊙ g = ¬(f ⊕ g)``) that *share* those
  caches, so mixed and/or workloads populate one table instead of two.
* XOR strips the complement bits of both operands up front
  (``¬f ⊕ g = ¬(f ⊕ g)``), quartering its cache key space.
* ``ite`` re-derives the standard-triple normalization for complemented
  handles: the if-operand is made regular (swapping the branches), the
  branch operands are reduced against ``f``/``¬f`` in O(1), the
  ``xor``/``xnor`` triple shapes are detected, and the generic
  recursion canonicalizes the then-branch polarity so an ITE and its
  complement share one cache entry.
* Cache and unique-table keys are packed integers (``v << 64 | lo << 32
  | hi``), not tuples: one hash of one int instead of a tuple
  allocation plus three hashes.  Handles must stay below 2**32, which a
  Python process cannot outlive anyway.
* The five operator entry points (``apply_and``, ``apply_or``,
  ``apply_xor``, ``apply_xnor``, ``ite``) are *compiled per manager*:
  :func:`_build_engines` closes them over the store columns, level maps
  and caches, so the recursive hot loops run with zero attribute
  lookups, the unique-table find-or-create and the top-variable split
  inlined, and cache probes through pre-bound ``dict.get``.
* Operator and derived-query caches are plain dicts with a hard entry
  cap: a cache that reaches :data:`OP_CACHE_CAP` is cleared wholesale.
  For a memo of a pure function the only cost is recomputation —
  canonicity guarantees bit-identical results either way — and an
  inline ``len`` check is far cheaper per insert than per-entry
  eviction bookkeeping on the kernel hot path.
* The operators recurse once per BDD level; a caller with BDDs deeper
  than the interpreter's recursion limit wraps the work in
  :func:`repro.utils.recursion_headroom`, as the DP does.
* Counters (:meth:`cache_stats`) expose unique-table and per-operator
  cache hit rates plus the complement-edge wins (free negations served,
  store rows saved, column bytes) for profiling.

Deterministic consumers that need stable tie-breaks (the DP's cut-set
and level sorts in :mod:`repro.bdd.leveled`) sort by raw handle value:
store rows are appended in a function-determined order, so (row,
complement) order is exactly as reproducible as the node-id creation
order of an explicit-polarity store.
"""

from __future__ import annotations

import sys
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

# Packed-key field widths: key = (v << 64) | (lo << 32) | hi for the
# unique table and ite cache, (f << 32) | g for binary operator caches.
_SHIFT = 32
_MASK = (1 << _SHIFT) - 1

#: Entry cap of each operator / derived-query cache (the unique table is
#: never capped).  Caches are plain dicts; when one reaches the cap it
#: is cleared wholesale — for a memo of a pure function that only costs
#: recomputation, and an inline ``len`` check is far cheaper per insert
#: than per-entry eviction bookkeeping on the kernel hot path.
OP_CACHE_CAP = 1 << 18

# Indices into the shared hit-counter list (a list, not attributes: the
# engine closures bump these on every cache hit and an indexed store is
# the cheapest write CPython offers them).
_H_UNIQUE, _H_ITE, _H_AND, _H_XOR = range(4)

#: Shared empty support (terminals depend on no variable).
_EMPTY_SUPPORT: "frozenset[int]" = frozenset()


class BDDError(Exception):
    """Base class for BDD package errors."""


class NodeLimitExceeded(BDDError):
    """Raised when a manager grows past its configured node limit."""


class _RowBudgetSpent(Exception):
    """A budgeted :meth:`BDDManager.compose` needed more new rows than
    its budget; the compose catches it and returns ``None``."""


#: The row cap of a manager without a node limit.
_NO_ROW_CAP = sys.maxsize


def _over_cap(limit: Optional[int], row: int) -> Exception:
    """The error for creating store row ``row`` at or past the row cap:
    the node limit's own error when ``row`` reaches it, else a spent
    compose budget."""
    if limit is not None and row >= limit:
        return NodeLimitExceeded(f"manager exceeded {limit} nodes")
    return _RowBudgetSpent()


class BDDManager:
    """A complement-edge store of ROBDD nodes with the classical
    operator suite.

    Parameters
    ----------
    num_vars:
        Number of variables to pre-declare (more can be added later with
        :meth:`add_var`).
    var_names:
        Optional human-readable names, used by printing/dot export.
    order:
        Optional permutation: ``order[k]`` is the variable placed at level
        ``k``.  Defaults to the identity.
    node_limit:
        Hard cap on the store row count; exceeded growth raises
        :class:`NodeLimitExceeded`.  ``None`` means unlimited.  Fixed
        for the manager's life.

    The operator entry points are closures compiled for this manager;
    call them only while the manager is alive.
    """

    ZERO = 0
    ONE = 1

    # Compiled per instance by _build_engines() (see module docstring).
    apply_and: Callable[[int, int], int]
    apply_or: Callable[[int, int], int]
    apply_xor: Callable[[int, int], int]
    apply_xnor: Callable[[int, int], int]
    ite: Callable[[int, int, int], int]

    def __init__(
        self,
        num_vars: int = 0,
        var_names: Optional[Sequence[str]] = None,
        order: Optional[Sequence[int]] = None,
        node_limit: Optional[int] = None,
    ) -> None:
        # Struct-of-arrays store indexed by row.  Row 0 is the terminal
        # (pseudo-variable -1, self-children); handle 0 = ZERO, handle
        # 1 = its complement = ONE.  Stored children are handles; the
        # stored hi handle is always regular (canonical form).
        self._var: List[int] = [-1]
        self._lo: List[int] = [0]
        self._hi: List[int] = [0]
        self._unique: Dict[int, int] = {}
        self._ite_cache: Dict[int, int] = {}
        self._and_cache: Dict[int, int] = {}
        self._xor_cache: Dict[int, int] = {}
        # Derived-query memos: composition results, node counts and
        # supports.  Valid while node structure is immutable; in-place
        # level swaps drop them via clear_caches().
        self._compose_cache: Dict[int, int] = {}
        self._cofactor_cache: Dict[int, int] = {}
        self._size_cache: Dict[int, int] = {}
        self._support_cache: Dict[int, "frozenset[int]"] = {}
        self._node_limit = node_limit
        # The row count at which creating a row raises: the node limit,
        # lowered for one budgeted compose.  A one-element list, so the
        # compiled engines read the current value.
        self._row_cap: List[int] = [_NO_ROW_CAP if node_limit is None else node_limit]
        # The unique_saved gauge, kept across reads: a mark per store row
        # that some row's lo edge reaches complemented, the count of
        # marks, and how many rows have been scanned.
        self._saved_marks = bytearray()
        self._saved_count = 0
        self._saved_scanned = 0

        # Statistics counters (see cache_stats()): cache hits indexed by
        # _H_*, plus the free-negation count.
        self._hits: List[int] = [0, 0, 0, 0]
        self._neg_free = 0

        self._names: List[str] = []
        self._level_of: List[int] = []
        self._var_at_level: List[int] = []
        for i in range(num_vars):
            name = var_names[i] if var_names is not None else f"x{i}"
            self._new_var_slot(name)
        if order is not None:
            self.set_order(order)
        # Compile the operator engines as closures over the store
        # columns and caches (see _build_engines).
        (
            self.apply_and,
            self.apply_or,
            self.apply_xor,
            self.apply_xnor,
            self.ite,
        ) = _build_engines(self)

    def __del__(self) -> None:
        # The compiled engines recurse through their own closure cells, a
        # reference cycle that would hold the store columns and caches
        # until the cyclic collector ran.  Emptying the cells ends the
        # cycle, so the store dies with its manager (and an engine called
        # after that raises).  A failed __init__ may have built none.
        for name in ("apply_and", "apply_xor", "ite"):
            engine = self.__dict__.get(name)
            if engine is not None:
                for cell in engine.__closure__:
                    cell.cell_contents = None

    # ------------------------------------------------------------------
    # Variables and order
    # ------------------------------------------------------------------
    def _new_var_slot(self, name: str) -> int:
        v = len(self._names)
        self._names.append(name)
        self._level_of.append(v)
        self._var_at_level.append(v)
        return v

    def add_var(self, name: Optional[str] = None) -> int:
        """Declare a new variable (appended at the bottom of the order)."""
        return self._new_var_slot(name if name is not None else f"x{len(self._names)}")

    def set_order(self, order: Sequence[int]) -> None:
        """Set the variable order.  Only legal while no nodes exist yet."""
        if len(self._var) > 1:
            raise BDDError("cannot change the order of a populated manager")
        if sorted(order) != list(range(self.num_vars)):
            raise BDDError(f"order {order!r} is not a permutation of 0..{self.num_vars - 1}")
        for level, v in enumerate(order):
            self._level_of[v] = level
            self._var_at_level[level] = v

    @property
    def num_vars(self) -> int:
        return len(self._names)

    @property
    def node_limit(self) -> Optional[int]:
        """The store row cap given at construction (``None``: unlimited).
        Read-only: the compiled engines hold it by value."""
        return self._node_limit

    @property
    def num_nodes(self) -> int:
        """Total store rows ever created (terminal row and dead rows
        included).  A row represents a function *and* its complement."""
        return len(self._var)

    def var_name(self, v: int) -> str:
        return self._names[v]

    def level_of(self, v: int) -> int:
        return self._level_of[v]

    def var_at_level(self, level: int) -> int:
        return self._var_at_level[level]

    @property
    def order(self) -> List[int]:
        """Variables from top (level 0) to bottom."""
        return list(self._var_at_level)

    # ------------------------------------------------------------------
    # Node primitives
    # ------------------------------------------------------------------
    def var(self, v: int) -> int:
        """Return the function of the single positive literal ``v``."""
        return self._mk(v, self.ZERO, self.ONE)

    def nvar(self, v: int) -> int:
        """Return the function of the single negative literal ``¬v``."""
        return self._mk(v, self.ONE, self.ZERO)

    @staticmethod
    def _ukey(v: int, lo: int, hi: int) -> int:
        """Packed unique-table / ite-cache key for a stored triple."""
        return (v << (2 * _SHIFT)) | (lo << _SHIFT) | hi

    def _mk(self, v: int, lo: int, hi: int) -> int:
        """Find-or-create the function ``ite(v, hi, lo)`` (with
        reduction and then-edge canonicalization); returns a handle."""
        if lo == hi:
            return lo
        c = hi & 1
        if c:
            lo ^= 1
            hi ^= 1
        key = (v << 64) | (lo << 32) | hi
        var_col = self._var
        row = len(var_col)
        got = self._unique.setdefault(key, row)
        if got == row:
            if row >= self._row_cap[0]:
                del self._unique[key]
                raise _over_cap(self._node_limit, row)
            var_col.append(v)
            self._lo.append(lo)
            self._hi.append(hi)
        else:
            self._hits[_H_UNIQUE] += 1
            row = got
        return (row << 1) | c

    def make_node(self, v: int, lo: int, hi: int) -> int:
        """Public find-or-create of the reduced node ``(v, lo, hi)``.

        The caller must guarantee the order invariant: the top variables
        of ``lo`` and ``hi`` sit at strictly deeper levels than ``v``.
        With that invariant this is exactly ``ite(var(v), hi, lo)`` at a
        fraction of the cost; structural rebuild loops use it.
        """
        return self._mk(v, lo, hi)

    def is_terminal(self, f: int) -> bool:
        return f <= 1

    def top_var(self, f: int) -> int:
        """Variable tested at the root of ``f`` (-1 for terminals)."""
        return self._var[f >> 1]

    def lo(self, f: int) -> int:
        """The 0-edge cofactor handle (``E(u)`` in the paper)."""
        return self._lo[f >> 1] ^ (f & 1)

    def hi(self, f: int) -> int:
        """The 1-edge cofactor handle (``T(u)`` in the paper)."""
        return self._hi[f >> 1] ^ (f & 1)

    def node(self, f: int) -> Tuple[int, int, int]:
        """Return ``(var, lo, hi)`` of ``f`` with the complement bit
        resolved into the children — the cofactor view every structural
        walk sees."""
        i = f >> 1
        p = f & 1
        return (self._var[i], self._lo[i] ^ p, self._hi[i] ^ p)

    def _level(self, f: int) -> int:
        """Level of the variable at the root of ``f``; +inf for terminals."""
        if f <= 1:
            return len(self._names) + 1
        return self._level_of[self._var[f >> 1]]

    # ------------------------------------------------------------------
    # Boolean connectives
    # ------------------------------------------------------------------
    # The operator entry points — apply_and, apply_or, apply_xor,
    # apply_xnor and ite — are instance attributes compiled once per
    # manager by _build_engines() at the bottom of this module (see the
    # module docstring for the hot-path rationale and the factory for
    # the algorithms, normalization rules and cache discipline).

    def negate(self, f: int) -> int:
        """Complement of ``f`` — one bit flip on the handle (O(1))."""
        self._neg_free += 1
        return f ^ 1

    def apply_many(self, op: str, funcs: Sequence[int]) -> int:
        """Fold ``op`` ('and'/'or'/'xor') over ``funcs``."""
        if op == "and":
            acc = self.ONE
            for f in funcs:
                acc = self.apply_and(acc, f)
            return acc
        if op == "or":
            acc = self.ZERO
            for f in funcs:
                acc = self.apply_or(acc, f)
            return acc
        if op == "xor":
            acc = self.ZERO
            for f in funcs:
                acc = self.apply_xor(acc, f)
            return acc
        raise BDDError(f"unknown n-ary operator {op!r}")

    # ------------------------------------------------------------------
    # Cofactor / compose / quantification
    # ------------------------------------------------------------------
    def cofactor(self, f: int, v: int, value: bool) -> int:
        """Restrict: ``f`` with variable ``v`` fixed to ``value``.

        Memoized manager-wide on the *regular* handle (cofactoring
        commutes with complement, so ``¬f`` resolves from ``f``'s entry
        with one bit flip) — the collapse phase restricts the same
        fanout function on the same variable once per merge probe, and
        :meth:`compose` fills both values' entries in one walk.
        """
        return _restrict(
            f, self._level_of[v], (v << 1) | (1 if value else 0),
            self._level_of, self._var, self._lo, self._hi, self._mk, self._cofactor_cache,
        )

    def compose(self, f: int, v: int, g: int, max_new_rows: Optional[int] = None) -> Optional[int]:
        """Substitute function ``g`` for variable ``v`` inside ``f``.

        Results are memoized: the collapse phase probes the same
        (fanin, fanout) substitution once per ``mergable`` test and
        again when the merge commits, and re-probes surviving pairs
        every iteration.  Both cofactors of ``f`` come from one walk.

        ``max_new_rows`` budgets the ``ite`` that joins the cofactors:
        once it would create more store rows than that, the compose
        stops and returns ``None``.  Every row that ``ite`` creates is
        reachable from its result, so ``None`` proves the composed BDD
        has more than ``max_new_rows`` nodes; otherwise the result is
        the unbudgeted one.  The node limit still raises
        :class:`NodeLimitExceeded`.
        """
        key = (f << (2 * _SHIFT)) | (v << _SHIFT) | g
        cache = self._compose_cache
        got = cache.get(key)
        if got is None:
            pos, neg = _restrict_both(
                f, self._level_of[v], v << 1,
                self._level_of, self._var, self._lo, self._hi, self._mk, self._cofactor_cache,
            )
            if max_new_rows is None:
                got = self.ite(g, pos, neg)
            else:
                row_cap = self._row_cap
                cap = row_cap[0]
                row_cap[0] = min(cap, len(self._var) + max_new_rows)
                try:
                    got = self.ite(g, pos, neg)
                except _RowBudgetSpent:
                    return None
                finally:
                    row_cap[0] = cap
            if len(cache) >= OP_CACHE_CAP:
                cache.clear()
            cache[key] = got
        return got

    def exists(self, f: int, variables: Iterable[int]) -> int:
        """Existential quantification over ``variables``."""
        result = f
        for v in variables:
            result = self.apply_or(self.cofactor(result, v, True), self.cofactor(result, v, False))
        return result

    def forall(self, f: int, variables: Iterable[int]) -> int:
        """Universal quantification over ``variables``."""
        result = f
        for v in variables:
            result = self.apply_and(self.cofactor(result, v, True), self.cofactor(result, v, False))
        return result

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def support(self, f: int) -> Set[int]:
        """Set of variables ``f`` explicitly depends on (memoized; a
        fresh mutable set is returned per call)."""
        return set(self.support_frozen(f))

    def support_frozen(self, f: int) -> "frozenset[int]":
        """Memoized support as a shared frozenset (no per-call copy —
        the DP's base-case test probes supports millions of times).

        The memo is *per store row* (a function and its complement have
        the same support), computed post-order: ``support(n) =
        support(lo) ∪ support(hi) ∪ {var(n)}``.  The DP's sub-BDD
        functions share substructure heavily, so most queries resolve
        from already-computed children instead of re-walking the DAG.
        """
        if f <= 1:
            return _EMPTY_SUPPORT
        cache = self._support_cache
        cache_get = cache.get
        root = f >> 1
        result = cache_get(root)
        if result is not None:
            return result
        var = self._var
        lo = self._lo
        hi = self._hi
        stack = [root]
        push = stack.append
        while stack:
            row = stack[-1]
            got = cache_get(row)
            if got is not None:
                stack.pop()
                result = got
                continue
            lc = lo[row] >> 1
            hc = hi[row] >> 1
            ls = _EMPTY_SUPPORT if lc == 0 else cache_get(lc)
            hs = _EMPTY_SUPPORT if hc == 0 else cache_get(hc)
            if ls is None or hs is None:
                if ls is None:
                    push(lc)
                if hs is None:
                    push(hc)
                continue
            stack.pop()
            # The tested variable sits strictly above both children's
            # supports, so the union never needs a membership check.
            result = ls | hs | {var[row]}
            if len(cache) >= OP_CACHE_CAP:
                cache.clear()
            cache[row] = result
        return result

    def support_ordered(self, f: int) -> List[int]:
        """Support variables, top of the order first."""
        return sorted(self.support_frozen(f), key=lambda v: self._level_of[v])

    def count_nodes(self, f: int) -> int:
        """Number of distinct cofactor functions reachable from ``f``,
        including terminals — the plain (explicit-polarity) BDD size
        (memoized — collapse gain scoring sizes the same BDDs over and
        over)."""
        cache = self._size_cache
        got = cache.get(f)
        if got is None:
            got = len(self.reachable(f))
            if len(cache) >= OP_CACHE_CAP:
                cache.clear()
            cache[f] = got
        return got

    def count_nodes_multi(self, roots: Iterable[int]) -> int:
        """Shared node count of several roots, including terminals."""
        seen: Set[int] = set()
        lo = self._lo
        hi = self._hi
        stack = list(roots)
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            if node > 1:
                p = node & 1
                i = node >> 1
                stack.append(lo[i] ^ p)
                stack.append(hi[i] ^ p)
        return len(seen)

    def reachable(self, f: int) -> Set[int]:
        """All handles reachable from ``f`` through cofactor edges
        (terminals included).  This is the node set of the plain BDD of
        ``f``: a row visited through both polarities contributes two
        handles, exactly as an explicit-polarity store would."""
        seen: Set[int] = set()
        stack = [f]
        lo = self._lo
        hi = self._hi
        seen_add = seen.add
        push = stack.append
        pop = stack.pop
        while stack:
            node = pop()
            if node in seen:
                continue
            seen_add(node)
            if node > 1:
                p = node & 1
                i = node >> 1
                push(lo[i] ^ p)
                push(hi[i] ^ p)
        return seen

    def shape_within(
        self, f: int, max_nodes: Optional[int] = None, max_vars: Optional[int] = None
    ) -> Optional[Tuple[int, Set[int]]]:
        """``(count_nodes(f), support(f))`` from one walk that memoizes
        nothing, or ``None`` as soon as the walk has seen more than
        ``max_nodes`` handles (terminals included) or more than
        ``max_vars`` variables.  Every variable tested on a node of a
        reduced BDD is in its support, so ``None`` means exactly that the
        size or the support does not fit."""
        node_cap = _NO_ROW_CAP if max_nodes is None else max_nodes
        var_cap = _NO_ROW_CAP if max_vars is None else max_vars
        seen: Set[int] = set()
        support: Set[int] = set()
        var = self._var
        lo = self._lo
        hi = self._hi
        seen_add = seen.add
        stack = [f]
        push = stack.append
        pop = stack.pop
        while stack:
            node = pop()
            if node in seen:
                continue
            seen_add(node)
            if len(seen) > node_cap:
                return None
            if node > 1:
                i = node >> 1
                v = var[i]
                if v not in support:
                    support.add(v)
                    if len(support) > var_cap:
                        return None
                p = node & 1
                push(lo[i] ^ p)
                push(hi[i] ^ p)
        return len(seen), support

    def eval(self, f: int, assignment: "Dict[int, bool] | Sequence[bool]") -> bool:
        """Evaluate ``f`` under ``assignment`` (dict var→bool or sequence)."""
        node = f
        var = self._var
        lo = self._lo
        hi = self._hi
        while node > 1:
            p = node & 1
            i = node >> 1
            node = (hi[i] if assignment[var[i]] else lo[i]) ^ p
        return node == 1

    def sat_count(self, f: int, num_vars: Optional[int] = None) -> int:
        """Number of satisfying assignments over ``num_vars`` variables."""
        if num_vars is None:
            num_vars = self.num_vars
        count, level = _sat_count(self, f, num_vars, {})
        return count * (1 << level)

    def one_sat(self, f: int) -> Optional[Dict[int, bool]]:
        """A satisfying assignment of ``f`` or ``None`` if unsatisfiable."""
        if f == self.ZERO:
            return None
        assignment: Dict[int, bool] = {}
        node = f
        while node > 1:
            p = node & 1
            i = node >> 1
            hi = self._hi[i] ^ p
            if hi != self.ZERO:
                assignment[self._var[i]] = True
                node = hi
            else:
                assignment[self._var[i]] = False
                node = self._lo[i] ^ p
        return assignment

    def iter_nodes(self, f: int) -> Iterator[Tuple[int, int, int, int]]:
        """Yield ``(handle, var, lo, hi)`` of every nonterminal handle
        under ``f`` (cofactor view, deterministic handle order)."""
        for node in sorted(self.reachable(f)):
            if node > 1:
                p = node & 1
                i = node >> 1
                yield node, self._var[i], self._lo[i] ^ p, self._hi[i] ^ p

    def iter_store_rows(self) -> Iterator[Tuple[int, int, int, int]]:
        """Yield ``(row, var, lo, hi)`` for every nonterminal store row
        with the *stored* child handles (then-edge always regular)."""
        var = self._var
        lo = self._lo
        hi = self._hi
        for row in range(1, len(var)):
            yield row, var[row], lo[row], hi[row]

    # ------------------------------------------------------------------
    # Cache introspection
    # ------------------------------------------------------------------
    def iter_unique_items(self) -> Iterator[Tuple[Tuple[int, int, int], int]]:
        """Yield ``((var, lo, hi), row)`` for every unique-table entry.
        ``lo``/``hi`` are the stored child handles of the row."""
        for key, row in self._unique.items():
            yield (key >> (2 * _SHIFT), (key >> _SHIFT) & _MASK, key & _MASK), row

    def iter_ite_items(self) -> Iterator[Tuple[Tuple[int, int, int], int]]:
        """Yield ``((f, g, h), result)`` for every ite-cache entry
        (normalized handles: ``f`` and ``g`` regular)."""
        for key, r in self._ite_cache.items():
            yield (key >> (2 * _SHIFT), (key >> _SHIFT) & _MASK, key & _MASK), r

    def iter_binary_cache_items(self, op: str) -> Iterator[Tuple[Tuple[int, int], int]]:
        """Yield ``((f, g), result)`` entries of one binary-operator
        cache.  Only ``"and"`` and ``"xor"`` caches physically exist;
        OR/XNOR are complement wrappers over them."""
        cache = {
            "and": self._and_cache,
            "xor": self._xor_cache,
        }[op]
        for key, r in cache.items():
            yield (key >> _SHIFT, key & _MASK), r

    def cache_stats(self, gauges: bool = True) -> Dict[str, int]:
        """Unique-table and operator-cache counters.

        ``*_hits`` counts cache hits since construction; ``*_entries``
        is the current entry count (misses that produced a result).
        ``unique_hits`` counts node find-or-create calls satisfied by an
        existing row.  Complement-edge wins: ``neg_free`` is negations
        served as a bit flip (the previous engine walked and hashed the
        whole DAG per call), ``unique_saved`` is distinct functions
        materialized minus store rows — node entries the complement
        canonicalization avoided storing — and ``store_bytes`` is the
        memory footprint of the three store columns.  Those last two
        gauges are left out when ``gauges`` is false: ``unique_saved``
        scans the store rows added since the last read (all of them
        after an in-place level swap), the rest costs O(1).
        """
        hits = self._hits
        stats = {
            "nodes": len(self._var),
            "unique_entries": len(self._unique),
            "unique_hits": hits[_H_UNIQUE],
            "ite_entries": len(self._ite_cache),
            "ite_hits": hits[_H_ITE],
            "and_entries": len(self._and_cache),
            "and_hits": hits[_H_AND],
            "xor_entries": len(self._xor_cache),
            "xor_hits": hits[_H_XOR],
            "neg_free": self._neg_free,
        }
        if gauges:
            stats["unique_saved"] = self._unique_saved()
            stats["store_bytes"] = (
                sys.getsizeof(self._var) + sys.getsizeof(self._lo) + sys.getsizeof(self._hi)
            )
        return stats

    def _unique_saved(self) -> int:
        """The ``unique_saved`` gauge: distinct rows that some row's lo
        edge reaches complemented.  Rows are only appended, except by
        :meth:`swap_adjacent_levels`, which resets the scan; so a read
        scans only the rows added since the last one."""
        lo_col = self._lo
        marks = self._saved_marks
        marks.extend(bytes(len(lo_col) - len(marks)))
        count = self._saved_count
        for lo in lo_col[self._saved_scanned:]:
            if lo & 1 and not marks[lo >> 1]:
                marks[lo >> 1] = 1
                count += 1
        self._saved_count = count
        self._saved_scanned = len(lo_col)
        return count

    # ------------------------------------------------------------------
    # Transfer between managers
    # ------------------------------------------------------------------
    def transfer(self, f: int, other: "BDDManager", var_map: Optional[Dict[int, int]] = None) -> int:
        """Rebuild ``f`` inside ``other``.

        ``var_map`` maps this manager's variables to ``other``'s variables
        (identity by default).  The destination order may differ from the
        source order; the rebuild is done by Shannon expansion on the
        destination's top remaining variable, so the result is canonical
        under the destination order.  When the destination keeps the
        source's relative order (every reorder rebuild does), the
        expansion reduces to a node-by-node copy, which is taken directly.
        """
        if var_map is None:
            var_map = {v: v for v in self.support(f)}
        src_vars = self.support_ordered(f)
        dst_levels = sorted(
            ((other.level_of(var_map[v]), v) for v in src_vars), key=lambda t: t[0]
        )
        dst_order_src_vars = [v for _, v in dst_levels]
        if dst_order_src_vars == src_vars:
            # The destination keeps the source's relative order: copy node
            # by node.  The walk visits hi before lo, like the expansion
            # below, so it creates the same rows in the same order.
            return _copy(self, f, other._mk, var_map, {})
        return _expand(self, f, 0, other, dst_order_src_vars, var_map, {})

    # ------------------------------------------------------------------
    # In-place reordering support (Rudell sifting)
    # ------------------------------------------------------------------
    def swap_adjacent_levels(
        self,
        level: int,
        rows: Optional[Iterable[int]] = None,
        record: Optional[List[Tuple[int, int, int, int, int]]] = None,
    ) -> int:
        """Swap the variables at ``level`` and ``level + 1`` in place.
        Returns the number of store rows rewritten (0 means no structure
        changed — the two variables never interact, only the level maps
        moved — so callers may skip any reachability recount).

        ``record``, when given, receives one tuple
        ``(row, old_lo, old_hi, new_lo, new_hi)`` per rewritten row with
        the *stored* child handles — exactly the edge deltas a caller
        needs to maintain reachability information incrementally (both
        polarities of the parent row see the deltas through their own
        complement bit; see :func:`repro.bdd.reorder.sift_inplace`).

        Implements the classical adjacent-variable swap: every row
        testing the upper variable ``x`` whose children test the lower
        variable ``y`` is rewritten (in place, so every handle keeps its
        function) to test ``y`` with freshly hashed ``x`` children.
        Canonical form is preserved: the stored then-edge is regular, so
        its cofactors are stored directly and the rebuilt then-child
        ``_mk(x, f01, f11)`` has a regular then-edge again.  All caches
        are dropped.  Intended for single-function managers during
        sifting (:func:`repro.bdd.reorder.sift_inplace`).

        ``rows``, when given, restricts the rewrite to those store rows,
        which must test ``x``; they are rewritten in the order given.
        Pass the rows of ``x`` reachable from the function being sifted,
        ascending (:func:`repro.bdd.reorder.sift_inplace` keeps them per
        variable); dead rows then keep stale structure, which is
        harmless because no valid operation can re-request their
        unique-table keys.  Without it, every row testing ``x`` is
        rewritten.
        """
        x = self._var_at_level[level]
        y = self._var_at_level[level + 1]
        var = self._var
        lo_a = self._lo
        hi_a = self._hi
        unique = self._unique
        mk = self._mk
        if rows is None:
            rows = [n for n in range(1, len(var)) if var[n] == x]
        rewritten = 0
        for n in rows:
            lo, hi = lo_a[n], hi_a[n]
            lc = lo & 1
            li = lo >> 1
            hi_i = hi >> 1
            lo_tests_y = lo > 1 and var[li] == y
            hi_tests_y = hi > 1 and var[hi_i] == y
            if not lo_tests_y and not hi_tests_y:
                continue  # independent of y: moves down a level as-is
            # Stored hi is regular, so its cofactors are stored directly;
            # the lo child resolves through its complement bit.
            f11 = hi_a[hi_i] if hi_tests_y else hi
            f10 = lo_a[hi_i] if hi_tests_y else hi
            f01 = (hi_a[li] ^ lc) if lo_tests_y else lo
            f00 = (lo_a[li] ^ lc) if lo_tests_y else lo
            del unique[(x << 64) | (lo << 32) | hi]
            new_hi = mk(x, f01, f11)
            new_lo = mk(x, f00, f10)
            # n becomes ite(y, new_hi, new_lo); hi' == lo' cannot happen
            # for a reduced node (see tests), so n stays a real row, and
            # new_hi is regular (f11 is), keeping the canonical form.
            var[n] = y
            lo_a[n] = new_lo
            hi_a[n] = new_hi
            unique[(y << 64) | (new_lo << 32) | new_hi] = n
            rewritten += 1
            if record is not None:
                record.append((n, lo, hi, new_lo, new_hi))
        self._var_at_level[level] = y
        self._var_at_level[level + 1] = x
        self._level_of[x] = level + 1
        self._level_of[y] = level
        if rewritten:
            self.clear_caches()
            # Rewritten lo edges invalidate the unique_saved scan.
            self._saved_marks = bytearray()
            self._saved_count = self._saved_scanned = 0
        return rewritten

    # ------------------------------------------------------------------
    # Misc
    # ------------------------------------------------------------------
    def clear_caches(self) -> None:
        """Drop operation and derived-query caches (unique table is
        kept)."""
        self._ite_cache.clear()
        self._and_cache.clear()
        self._xor_cache.clear()
        self._compose_cache.clear()
        self._cofactor_cache.clear()
        self._size_cache.clear()
        self._support_cache.clear()

    def compact(self, roots: Sequence[int]) -> Tuple["BDDManager", List[int]]:
        """Garbage-collect: rebuild only the given roots in a fresh
        manager (same variables, names, and order).  Long-running
        construction (e.g. iterated collapsing) accumulates dead rows;
        this reclaims them.  Returns ``(new_manager, new_roots)`` —
        previously held handles are only valid in the old manager."""
        fresh = BDDManager(
            self.num_vars,
            var_names=[self.var_name(v) for v in range(self.num_vars)],
            order=self.order,
            node_limit=self.node_limit,
        )
        new_roots = [self.transfer(r, fresh) for r in roots]
        return fresh, new_roots

    def live_nodes(self, roots: Sequence[int]) -> int:
        """Shared node count reachable from ``roots`` (vs ``num_nodes``,
        which includes garbage)."""
        return self.count_nodes_multi(roots)

    def from_truth_table(self, bits: "Sequence[int] | str", variables: Sequence[int]) -> int:
        """Build a function from a truth table.

        ``bits[i]`` is the output for the input assignment whose bit ``k``
        (LSB-first over ``variables``) gives the value of
        ``variables[k]``; a ``'0'``/``'1'`` string is read as-is.  A
        repeated variable makes the rows that give it two values
        unreachable, so they are ignored.  Shannon expansion bottom-up
        in level order: at most ``2**len(set(variables)) - 1`` node
        lookups.
        """
        if len(bits) != (1 << len(variables)):
            raise BDDError("truth table length must be 2**len(variables)")
        order, rows = self._table_rows(variables)
        if isinstance(bits, str):
            funcs = [int(bits[r] == "1") for r in rows]
        else:
            funcs = [int(bool(bits[r])) for r in rows]
        mk = self._mk
        for v in reversed(order):
            pairs = iter(funcs)
            funcs = [lo if lo == hi else mk(v, lo, hi) for lo, hi in zip(pairs, pairs)]
        return funcs[0]

    def truth_table(self, f: int, variables: Sequence[int]) -> str:
        """The ``'0'``/``'1'`` truth table of ``f`` over ``variables``,
        the inverse of :meth:`from_truth_table`: one cofactor walk in
        level order.  Rows that give a repeated variable two values read
        ``'0'``.  Raises :class:`BDDError` when ``f`` depends on a
        variable outside ``variables``."""
        order, rows = self._table_rows(variables)
        var_a = self._var
        lo_a = self._lo
        hi_a = self._hi
        nodes = [f]
        for v in order:
            split: List[int] = []
            for node in nodes:
                i = node >> 1  # row 0, the terminal, tests variable -1
                if var_a[i] == v:
                    p = node & 1
                    split += (lo_a[i] ^ p, hi_a[i] ^ p)
                else:
                    split += (node, node)
            nodes = split
        out = ["0"] * (1 << len(variables))
        for row, node in zip(rows, nodes):
            if node:
                if node > 1:
                    raise BDDError("function depends on a variable outside the table")
                out[row] = "1"
        return "".join(out)

    def _table_rows(self, variables: Sequence[int]) -> Tuple[List[int], List[int]]:
        """The distinct ``variables`` top level first, and the table row
        of each of their joint assignments, the deepest variable being
        the least significant bit of the assignment's index."""
        masks: Dict[int, int] = {}
        for k, v in enumerate(variables):
            masks[v] = masks.get(v, 0) | (1 << k)
        order = sorted(masks, key=self._level_of.__getitem__)
        rows = [0]
        for v in reversed(order):
            m = masks[v]
            rows += [r | m for r in rows]
        return order, rows

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<BDDManager vars={self.num_vars} nodes={self.num_nodes}>"


# ----------------------------------------------------------------------
# Recursive walks
# ----------------------------------------------------------------------
# Module-level functions that take their state as arguments: a nested
# function that calls itself is a reference cycle, which would keep the
# walk, and everything it captured, alive until the cyclic collector ran.


def _restrict(
    node: int, target_level: int, tag: int, level_of: List[int], var_a: List[int],
    lo_a: List[int], hi_a: List[int], mk: Callable[[int, int, int], int],
    cache: Dict[int, int],
) -> int:
    """The walk of :meth:`BDDManager.cofactor`: ``tag`` is ``v << 1 |
    value``, ``target_level`` the level of ``v``; lo before hi."""
    if node <= 1:
        return node
    p = node & 1
    node ^= p
    i = node >> 1
    lvl = level_of[var_a[i]]
    if lvl > target_level:
        return node ^ p
    key = (node << _SHIFT) | tag
    got = cache.get(key)
    if got is None:
        if lvl == target_level:
            got = hi_a[i] if tag & 1 else lo_a[i]
        else:
            got = mk(
                var_a[i],
                _restrict(lo_a[i], target_level, tag, level_of, var_a, lo_a, hi_a, mk, cache),
                _restrict(hi_a[i], target_level, tag, level_of, var_a, lo_a, hi_a, mk, cache),
            )
        if len(cache) >= OP_CACHE_CAP:
            cache.clear()
        cache[key] = got
    return got ^ p


def _restrict_both(
    node: int, target_level: int, tag: int, level_of: List[int], var_a: List[int],
    lo_a: List[int], hi_a: List[int], mk: Callable[[int, int, int], int],
    cache: Dict[int, int],
) -> Tuple[int, int]:
    """Both cofactors ``(f|v=1, f|v=0)`` of ``node`` in one walk, which
    reads and fills the cache entries of :func:`_restrict`; ``tag`` is
    ``v << 1``, ``target_level`` the level of ``v``; lo before hi."""
    if node <= 1:
        return node, node
    p = node & 1
    node ^= p
    i = node >> 1
    lvl = level_of[var_a[i]]
    if lvl > target_level:
        return node ^ p, node ^ p
    key = (node << _SHIFT) | tag
    pos = cache.get(key | 1)
    neg = cache.get(key)
    if pos is None or neg is None:
        if lvl == target_level:
            pos = hi_a[i]
            neg = lo_a[i]
        else:
            lo_pos, lo_neg = _restrict_both(
                lo_a[i], target_level, tag, level_of, var_a, lo_a, hi_a, mk, cache
            )
            hi_pos, hi_neg = _restrict_both(
                hi_a[i], target_level, tag, level_of, var_a, lo_a, hi_a, mk, cache
            )
            pos = mk(var_a[i], lo_pos, hi_pos)
            neg = mk(var_a[i], lo_neg, hi_neg)
        if len(cache) >= OP_CACHE_CAP - 1:
            cache.clear()
        cache[key | 1] = pos
        cache[key] = neg
    return pos ^ p, neg ^ p


def _sat_count(mgr: BDDManager, node: int, num_vars: int, cache: Dict[int, int]) -> Tuple[int, int]:
    """``(count, level)`` of ``node`` for :meth:`BDDManager.sat_count`:
    ``count`` is over the variables below ``level``."""
    if node <= 1:
        return node, num_vars
    i = node >> 1
    level_of = mgr._level_of
    if node in cache:
        count = cache[node]
    else:
        p = node & 1
        c0, l0 = _sat_count(mgr, mgr._lo[i] ^ p, num_vars, cache)
        c1, l1 = _sat_count(mgr, mgr._hi[i] ^ p, num_vars, cache)
        my_level = level_of[mgr._var[i]]
        count = c0 * (1 << (l0 - my_level - 1)) + c1 * (1 << (l1 - my_level - 1))
        cache[node] = count
    return count, level_of[mgr._var[i]]


def _copy(
    src: BDDManager, node: int, mk: Callable[[int, int, int], int],
    var_map: Dict[int, int], copies: Dict[int, int],
) -> int:
    """Node-by-node copy of ``node`` for :meth:`BDDManager.transfer`
    into the manager whose ``_mk`` is ``mk``; hi before lo."""
    if node <= 1:
        return node
    got = copies.get(node)
    if got is None:
        var, lo, hi = src.node(node)
        hi_copy = _copy(src, hi, mk, var_map, copies)
        got = copies[node] = mk(var_map[var], _copy(src, lo, mk, var_map, copies), hi_copy)
    return got


def _expand(
    src: BDDManager, node: int, depth: int, dst: BDDManager, order: List[int],
    var_map: Dict[int, int], cache: Dict[Tuple[int, int], int],
) -> int:
    """Shannon expansion of ``node`` for :meth:`BDDManager.transfer` on
    ``order[depth]``, the source variables in destination order; hi
    before lo."""
    if node <= 1:
        return node
    key = (node, depth)
    got = cache.get(key)
    if got is not None:
        return got
    src_v = order[depth]
    hi = _expand(src, src.cofactor(node, src_v, True), depth + 1, dst, order, var_map, cache)
    lo = _expand(src, src.cofactor(node, src_v, False), depth + 1, dst, order, var_map, cache)
    result = dst._mk(var_map[src_v], lo, hi)
    cache[key] = result
    return result


def _build_engines(
    mgr: BDDManager,
) -> Tuple[
    Callable[[int, int], int],
    Callable[[int, int], int],
    Callable[[int, int], int],
    Callable[[int, int], int],
    Callable[[int, int, int], int],
]:
    """Compile the operator engines of ``mgr`` as closures.

    Called once, at the end of ``__init__``.  Returns
    ``(apply_and, apply_or, apply_xor, apply_xnor, ite)``.

    The engines capture the store columns, level maps, caches and the
    hit-counter list as closure cells, so the recursive hot loops run
    with **zero attribute lookups**: cache probes go through pre-bound
    ``dict.get``, the top-variable split and the unique-table
    find-or-create (:meth:`BDDManager._mk`) are inlined, and
    self-recursion binds through a fast cell load instead of a bound
    method.  Every captured container is mutated *in place* by the
    manager (``add_var`` appends to the level maps, ``clear_caches``
    clears the dicts, level swaps rewrite the columns, a budgeted
    :meth:`~BDDManager.compose` lowers the row cap) and never rebound,
    so the closures always see current state.  The row cap is read only
    where a row is created; the node limit is captured by value
    (``node_limit`` is read-only) to tell a node-limit breach from a
    spent compose budget.  No engine refers to the manager itself;
    ``BDDManager.__del__`` empties the cells of the self-recursive
    cores, and an engine is valid only while its manager lives.

    Semantics:

    * ``apply_and`` — dedicated binary recursion.  The complement-pair
      test ``f == ¬g`` is an O(1) xor; ``apply_or`` funnels into the
      same cache via De Morgan (``f ∨ g = ¬(¬f · ¬g)``).
    * ``apply_xor`` — strips the complement bits of both operands up
      front (``¬f ⊕ g = ¬(f ⊕ g)``), so the cache is keyed on regular
      handles only and all four polarity combinations share one entry;
      ``apply_xnor`` is its free-complement wrapper.
    * ``ite`` — re-derives the standard-triple normalization for
      complemented handles: the if-operand is made regular (swapping
      the branches), branch operands equal to ``f``/``¬f`` reduce to
      constants in O(1), constant branches route into the shared
      AND/XOR machinery, and the generic recursion canonicalizes the
      then-branch polarity (``ite(f, ¬g, ¬h) = ¬ite(f, g, h)``) so an
      ITE and its complement share one cache entry.
    * Caches are plain dicts cleared wholesale at :data:`OP_CACHE_CAP`
      entries; canonicity makes the clear invisible to results and node
      counts (recomputation re-requests the same triples and resolves
      through unique-table hits).
    """
    var_a = mgr._var
    lo_a = mgr._lo
    hi_a = mgr._hi
    lvl = mgr._level_of
    vat = mgr._var_at_level
    unique = mgr._unique
    unique_setdefault = unique.setdefault
    and_cache = mgr._and_cache
    and_get = and_cache.get
    xor_cache = mgr._xor_cache
    xor_get = xor_cache.get
    ite_cache = mgr._ite_cache
    ite_get = ite_cache.get
    hits = mgr._hits
    var_append = var_a.append
    lo_append = lo_a.append
    hi_append = hi_a.append
    cap = OP_CACHE_CAP
    limit = mgr._node_limit
    row_cap = mgr._row_cap
    h_unique, h_ite, h_and, h_xor = _H_UNIQUE, _H_ITE, _H_AND, _H_XOR

    # ------------------------------------------------------------------
    # Recursive engines
    # ------------------------------------------------------------------
    # Each binary engine is split into a public entry (terminal rules,
    # operand canonicalization, cache probe) and a *core* that receives
    # the packed cache key it must fill.  Recursion sites inside the
    # cores resolve terminal children and probe the cache inline, so a
    # cache hit — the common steady-state outcome — never pays a Python
    # call, and a miss enters the core directly without re-checking or
    # re-probing.  The inline sequences are exactly the entry's early
    # returns, so results, cache contents and node-creation order are
    # bit-identical to the naive self-recursion.

    def and_core(f: int, g: int, key: int) -> int:
        # Pre: f < g, both nonterminal, not complements, cache missed.
        fi = f >> 1
        gi = g >> 1
        vf = var_a[fi]
        vg = var_a[gi]
        lf = lvl[vf]
        lg = lvl[vg]
        if lf <= lg:
            v = vf
            fc = f & 1
            f0 = lo_a[fi] ^ fc
            f1 = hi_a[fi] ^ fc
            if lg == lf:
                gc = g & 1
                g0 = lo_a[gi] ^ gc
                g1 = hi_a[gi] ^ gc
            else:
                g0 = g1 = g
        else:
            v = vg
            f0 = f1 = f
            gc = g & 1
            g0 = lo_a[gi] ^ gc
            g1 = hi_a[gi] ^ gc
        if f0 < 2:
            lo = g0 if f0 else 0
        elif g0 < 2:
            lo = f0 if g0 else 0
        elif f0 == g0:
            lo = f0
        elif f0 ^ g0 == 1:
            lo = 0
        else:
            if f0 > g0:
                f0, g0 = g0, f0
            k = (f0 << 32) | g0
            lo = and_get(k)
            if lo is not None:
                hits[h_and] += 1
            else:
                lo = and_core(f0, g0, k)
        if f1 < 2:
            hi = g1 if f1 else 0
        elif g1 < 2:
            hi = f1 if g1 else 0
        elif f1 == g1:
            hi = f1
        elif f1 ^ g1 == 1:
            hi = 0
        else:
            if f1 > g1:
                f1, g1 = g1, f1
            k = (f1 << 32) | g1
            hi = and_get(k)
            if hi is not None:
                hits[h_and] += 1
            else:
                hi = and_core(f1, g1, k)
        if lo == hi:
            r = lo
        else:
            c = hi & 1
            if c:
                lo ^= 1
                hi ^= 1
            ukey = (v << 64) | (lo << 32) | hi
            row = len(var_a)
            got = unique_setdefault(ukey, row)
            if got == row:
                if row >= row_cap[0]:
                    del unique[ukey]
                    raise _over_cap(limit, row)
                var_append(v)
                lo_append(lo)
                hi_append(hi)
            else:
                hits[h_unique] += 1
                row = got
            r = (row << 1) | c
        if len(and_cache) >= cap:
            and_cache.clear()
        and_cache[key] = r
        return r

    def apply_and(f: int, g: int) -> int:
        """Conjunction ``f·g``."""
        x = f ^ g
        if x < 2:
            return f if x == 0 else 0
        if f < 2:
            return g if f else 0
        if g < 2:
            return f if g else 0
        if f > g:
            f, g = g, f
        key = (f << 32) | g
        r = and_get(key)
        if r is not None:
            hits[h_and] += 1
            return r
        return and_core(f, g, key)

    def apply_or(f: int, g: int) -> int:
        """Disjunction ``f ∨ g`` — De Morgan wrapper sharing the AND
        cache."""
        return apply_and(f ^ 1, g ^ 1) ^ 1

    def xor_core(f: int, g: int, key: int) -> int:
        # Pre: f < g, both regular nonterminal, distinct, cache missed.
        fi = f >> 1
        gi = g >> 1
        vf = var_a[fi]
        vg = var_a[gi]
        lf = lvl[vf]
        lg = lvl[vg]
        if lf <= lg:
            v = vf
            f0 = lo_a[fi]
            f1 = hi_a[fi]
            if lg == lf:
                g0 = lo_a[gi]
                g1 = hi_a[gi]
            else:
                g0 = g1 = g
        else:
            v = vg
            f0 = f1 = f
            g0 = lo_a[gi]
            g1 = hi_a[gi]
        p0 = (f0 ^ g0) & 1
        f0 &= -2
        g0 &= -2
        if f0 == g0:
            lo = p0
        elif f0 == 0:
            lo = g0 | p0
        elif g0 == 0:
            lo = f0 | p0
        else:
            if f0 > g0:
                f0, g0 = g0, f0
            k = (f0 << 32) | g0
            lo = xor_get(k)
            if lo is not None:
                hits[h_xor] += 1
            else:
                lo = xor_core(f0, g0, k)
            lo ^= p0
        p1 = (f1 ^ g1) & 1
        f1 &= -2
        g1 &= -2
        if f1 == g1:
            hi = p1
        elif f1 == 0:
            hi = g1 | p1
        elif g1 == 0:
            hi = f1 | p1
        else:
            if f1 > g1:
                f1, g1 = g1, f1
            k = (f1 << 32) | g1
            hi = xor_get(k)
            if hi is not None:
                hits[h_xor] += 1
            else:
                hi = xor_core(f1, g1, k)
            hi ^= p1
        if lo == hi:
            r = lo
        else:
            cc = hi & 1
            if cc:
                lo ^= 1
                hi ^= 1
            ukey = (v << 64) | (lo << 32) | hi
            row = len(var_a)
            got = unique_setdefault(ukey, row)
            if got == row:
                if row >= row_cap[0]:
                    del unique[ukey]
                    raise _over_cap(limit, row)
                var_append(v)
                lo_append(lo)
                hi_append(hi)
            else:
                hits[h_unique] += 1
                row = got
            r = (row << 1) | cc
        if len(xor_cache) >= cap:
            xor_cache.clear()
        xor_cache[key] = r
        return r

    def apply_xor(f: int, g: int) -> int:
        """Exclusive-or ``f ⊕ g`` (polarity-stripped cache keys)."""
        c = (f ^ g) & 1
        f &= -2
        g &= -2
        if f == g:
            return c
        if f == 0:
            return g | c
        if g == 0:
            return f | c
        if f > g:
            f, g = g, f
        key = (f << 32) | g
        r = xor_get(key)
        if r is not None:
            hits[h_xor] += 1
            return r ^ c
        return xor_core(f, g, key) ^ c

    def apply_xnor(f: int, g: int) -> int:
        """Equivalence ``f ⊙ g = ¬(f ⊕ g)`` (free complement)."""
        return apply_xor(f, g) ^ 1

    def ite(f: int, g: int, h: int) -> int:
        """If-then-else ``f·g ∨ ¬f·h`` — the universal connective."""
        if f == 1:
            return g
        if f == 0:
            return h
        if g == h:
            return g
        if f & 1:
            f ^= 1
            g, h = h, g
        # f is now a regular nonterminal handle; f ^ 1 == f + 1.
        if g == f:
            g = 1
        elif g == f + 1:
            g = 0
        if h == f:
            h = 0
        elif h == f + 1:
            h = 1
        if g == h:
            return g
        # Constant-branch triples route into the shared binary engines.
        # The operand pairs here are never terminal, equal or complement
        # (those shapes were normalized away above), so the AND entry
        # checks are skipped and the cache is probed directly.
        if g == 1:
            if h == 0:
                return f
            a = f ^ 1  # f ∨ h = ¬(¬f · ¬h)
            b = h ^ 1
            if a > b:
                a, b = b, a
            k = (a << 32) | b
            r = and_get(k)
            if r is not None:
                hits[h_and] += 1
                return r ^ 1
            return and_core(a, b, k) ^ 1
        if g == 0:
            if h == 1:
                return f ^ 1
            a = f ^ 1  # ¬f · h
            b = h
            if a > b:
                a, b = b, a
            k = (a << 32) | b
            r = and_get(k)
            if r is not None:
                hits[h_and] += 1
                return r
            return and_core(a, b, k)
        if h == 0:
            a = f  # f · g
            b = g
            if a > b:
                a, b = b, a
            k = (a << 32) | b
            r = and_get(k)
            if r is not None:
                hits[h_and] += 1
                return r
            return and_core(a, b, k)
        if h == 1:
            a = f  # f → g, i.e. ¬(f · ¬g)
            b = g ^ 1
            if a > b:
                a, b = b, a
            k = (a << 32) | b
            r = and_get(k)
            if r is not None:
                hits[h_and] += 1
                return r ^ 1
            return and_core(a, b, k) ^ 1
        if g ^ h == 1:
            # ite(f, g, ¬g) = f ⊙ h with the XOR engine's parity strip.
            c = (f ^ h) & 1
            a = f & -2
            b = h & -2
            if a == b:
                return c
            if a > b:
                a, b = b, a
            k = (a << 32) | b
            r = xor_get(k)
            if r is not None:
                hits[h_xor] += 1
                return r ^ c
            return xor_core(a, b, k) ^ c
        n = g & 1
        if n:
            g ^= 1
            h ^= 1
        key = (f << 64) | (g << 32) | h
        r = ite_get(key)
        if r is not None:
            hits[h_ite] += 1
            return r ^ n
        fi = f >> 1
        gi = g >> 1
        hj = h >> 1
        vf = var_a[fi]
        vg = var_a[gi]
        vh = var_a[hj]
        level = lvl[vf]
        tmp = lvl[vg]
        if tmp < level:
            level = tmp
        tmp = lvl[vh]
        if tmp < level:
            level = tmp
        v = vat[level]
        if vf == v:
            f0 = lo_a[fi]
            f1 = hi_a[fi]
        else:
            f0 = f1 = f
        if vg == v:
            g0 = lo_a[gi]
            g1 = hi_a[gi]
        else:
            g0 = g1 = g
        if vh == v:
            hc = h & 1
            h0 = lo_a[hj] ^ hc
            h1 = hi_a[hj] ^ hc
        else:
            h0 = h1 = h
        # Inline the callee's first three early returns to skip the
        # Python call on trivial leaves; bit-identical results.
        if f0 == 1:
            lo = g0
        elif f0 == 0:
            lo = h0
        elif g0 == h0:
            lo = g0
        else:
            lo = ite(f0, g0, h0)
        if f1 == 1:
            hi = g1
        elif f1 == 0:
            hi = h1
        elif g1 == h1:
            hi = g1
        else:
            hi = ite(f1, g1, h1)
        if lo == hi:
            r = lo
        else:
            c = hi & 1
            if c:
                lo ^= 1
                hi ^= 1
            ukey = (v << 64) | (lo << 32) | hi
            row = len(var_a)
            got = unique_setdefault(ukey, row)
            if got == row:
                if row >= row_cap[0]:
                    del unique[ukey]
                    raise _over_cap(limit, row)
                var_append(v)
                lo_append(lo)
                hi_append(hi)
            else:
                hits[h_unique] += 1
                row = got
            r = (row << 1) | c
        if len(ite_cache) >= cap:
            ite_cache.clear()
        ite_cache[key] = r
        return r ^ n

    return apply_and, apply_or, apply_xor, apply_xnor, ite
