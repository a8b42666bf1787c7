"""Small shared utilities.

* :func:`recursion_headroom` — the project-standard way to run a deeply
  recursive region.  It must be used as a scoped context manager — never
  a persistent ``sys.setrecursionlimit`` call — because leaving the
  limit raised breaks tools that manage the limit themselves
  (hypothesis's ``ensure_free_stackframes`` warns whenever a test body
  changes the limit behind its back, which is exactly what a persistent
  raise does).
* :class:`BoundedMemo` — a size-capped memo table for DAG walks.  A
  plain ``dict`` memo grows with the number of distinct nodes visited,
  which on pathological supernodes (and inside long-lived worker
  processes, see :mod:`repro.runtime.pool`) is unbounded; the bounded
  variant evicts its oldest entries instead, trading re-computation for
  a hard memory ceiling.
* :func:`usable_cpus` — how many CPUs this process may run on.
"""

from __future__ import annotations

import os
import sys
from contextlib import contextmanager
from typing import Dict, Generic, Iterator, TypeVar


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the
    platform has one (``taskset`` or a cpuset narrows it below the
    machine's count), else ``os.cpu_count()``."""
    try:
        return len(os.sched_getaffinity(0)) or 1
    except (AttributeError, OSError):
        return os.cpu_count() or 1


@contextmanager
def recursion_headroom(limit: int) -> Iterator[None]:
    """Temporarily raise the recursion limit to at least ``limit``.

    No-op when the current limit is already sufficient; otherwise the
    previous limit is restored on exit, even on exceptions.
    """
    old = sys.getrecursionlimit()
    if old >= limit:
        yield
        return
    sys.setrecursionlimit(limit)
    try:
        yield
    finally:
        sys.setrecursionlimit(old)


K = TypeVar("K")
V = TypeVar("V")

#: Default entry cap for :class:`BoundedMemo`.  Far above what any real
#: supernode walk needs (the paper's BDDs stay under ~200 nodes), so
#: eviction only ever triggers on synthetic stress inputs.
DEFAULT_MEMO_CAP = 1 << 18


class BoundedMemo(Dict[K, V], Generic[K, V]):
    """A memo table with a hard entry cap (FIFO eviction).

    Drop-in for the ``cache.get(...)`` / ``cache[key] = value`` pattern
    used by the recursive DAG walks in this repo.  When the cap is
    reached the oldest inserted entry is evicted; for a memoized pure
    function that only costs recomputation, never correctness.

    Subclasses ``dict`` so the read path (``get``, ``in``, ``[]``) is
    the interpreter's C implementation — the memo sits on the kernel
    hot path (BDD operator caches, DAG-walk memos) where a Python-level
    ``get`` wrapper is measurable.  Only insertion goes through Python
    to enforce the cap.
    """

    __slots__ = ("_cap",)

    def __init__(self, cap: int = DEFAULT_MEMO_CAP) -> None:
        if cap < 1:
            raise ValueError("memo cap must be at least 1")
        super().__init__()
        self._cap = cap

    def __setitem__(self, key: K, value: V) -> None:
        if len(self) >= self._cap and key not in self:
            del self[next(iter(self))]
        super().__setitem__(key, value)

    @property
    def cap(self) -> int:
        return self._cap
