"""Small shared utilities.

* :func:`recursion_headroom` — the project-standard way to run a deeply
  recursive region.  It must be used as a scoped context manager — never
  a persistent ``sys.setrecursionlimit`` call — because leaving the
  limit raised breaks tools that manage the limit themselves
  (hypothesis's ``ensure_free_stackframes`` warns whenever a test body
  changes the limit behind its back, which is exactly what a persistent
  raise does).
* :func:`usable_cpus` — how many CPUs this process may run on.
"""

from __future__ import annotations

import os
import sys
from contextlib import contextmanager
from typing import Iterator


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

