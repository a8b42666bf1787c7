"""Spans recorded around calls into the program's layers.

A :class:`Tracer` keeps one stack of open frames per thread.  Entering a
wrapped call pushes a frame; leaving it pops the frame, adds its
duration to the parent's covered time, and books the frame's *self
time* (its duration minus the time its child frames cover) under the
layer's name.  Every frame therefore counts once, and the self times of
all layers under a root span sum to the root's duration exactly.

Coarse layers (one call per supernode or per synthesis) are also kept
as :class:`Span` rows, with name, start, end, parent and request id, and
written out when the run ends.  Hot leaves such as ``LeveledBDD.cut_set``
run hundreds of thousands of times per circuit; they are only folded
into the per-layer totals, which bounds the trace's memory.

:func:`install` patches each layer's function where its caller looks the
name up (``repro.core.dp`` binds ``candidates_for_cut`` and friends at
import time, so patching ``repro.core.linear`` would miss every call).
"""

from __future__ import annotations

import importlib
import itertools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int
    request: str
    self_s: float


class _Frame:
    __slots__ = ("name", "start", "covered", "span_id", "parent_id", "request", "record")

    def __init__(self, name: str, start: float, span_id: int, parent_id: int,
                 request: str, record: bool) -> None:
        self.name = name
        self.start = start
        self.covered = 0.0
        self.span_id = span_id
        self.parent_id = parent_id
        self.request = request
        self.record = record


class Tracer:
    """Per-layer self time, inclusive time and call counts, plus the
    span rows of coarse layers."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: List[Span] = []
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, int] = defaultdict(int)
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()

    def _stack(self) -> List[_Frame]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def enter(self, name: str, record: bool = True, request: str = "") -> _Frame:
        stack = self._stack()
        parent = stack[-1] if stack else None
        frame = _Frame(
            name,
            self.clock(),
            next(self._ids) if record else 0,
            parent.span_id if parent is not None else 0,
            request or (parent.request if parent is not None else ""),
            record,
        )
        stack.append(frame)
        return frame

    def exit(self, frame: _Frame) -> float:
        """Close ``frame`` (the innermost open one); returns its duration."""
        end = self.clock()
        stack = self._stack()
        if not stack or stack[-1] is not frame:
            raise RuntimeError(f"span {frame.name!r} closed out of order")
        stack.pop()
        duration = end - frame.start
        own = duration - frame.covered
        if stack:
            stack[-1].covered += duration
        with self._lock:
            self.self_s[frame.name] += own
            self.calls[frame.name] += 1
            if frame.record:
                self.spans.append(Span(frame.span_id, frame.name, frame.start, end,
                                       frame.parent_id, frame.request, own))
        return duration

    @contextmanager
    def span(self, name: str, request: str = "") -> Iterator[_Frame]:
        frame = self.enter(name, True, request)
        try:
            yield frame
        finally:
            self.exit(frame)

    def count(self, name: str, n: int = 1) -> None:
        with self._lock:
            self.counts[name] += n

    def open_names(self) -> List[str]:
        return [f.name for f in self._stack()]


def _wrap(tracer: Tracer, fn: Callable[..., Any], name: str, record: bool,
          after: Optional[Callable[[Tuple[Any, ...], Any], None]]) -> Callable[..., Any]:
    enter, exit_ = tracer.enter, tracer.exit

    def wrapper(*args: Any, **kwargs: Any) -> Any:
        frame = enter(name, record)
        try:
            result = fn(*args, **kwargs)
        finally:
            exit_(frame)
        if after is not None:
            after(args, result)
        return result

    return wrapper


def install(tracer: Tracer) -> Callable[[], None]:
    """Patch every traced layer; returns a function undoing the patches."""
    patches: List[Tuple[Any, str, Any]] = []

    def patch(module: str, attr: str, name: str, record: bool,
              after: Optional[Callable[[Tuple[Any, ...], Any], None]] = None) -> None:
        owner_path, _, leaf = attr.rpartition(".")
        owner: Any = importlib.import_module(module)
        for part in filter(None, owner_path.split(".")):
            owner = getattr(owner, part)
        original = getattr(owner, leaf)
        patches.append((owner, leaf, original))
        setattr(owner, leaf, _wrap(tracer, original, name, record, after))

    def batch_jobs(args: Tuple[Any, ...], _result: Any) -> None:
        tracer.count("pool.jobs", len(args[1]))

    # Collapse (Algorithm 2): the merge test.
    from repro.network.netlist import BooleanNetwork

    merged = BooleanNetwork.merged_function

    def merged_function(self: Any, *args: Any, **kwargs: Any) -> Any:
        # The map pass's lut_pack reuses the merge test; there it stays
        # part of lut_pack's own time.
        if "map.lut_pack" in tracer.open_names():
            return merged(self, *args, **kwargs)
        frame = tracer.enter("collapse.merge_test", False)
        try:
            return merged(self, *args, **kwargs)
        finally:
            tracer.exit(frame)

    patches.append((BooleanNetwork, "merged_function", merged))
    BooleanNetwork.merged_function = merged_function  # type: ignore[method-assign]

    # Per-supernode DP (Algorithms 3-5), where repro.core.dp looks names up.
    patch("repro.core.dp", "reorder_for_size", "reorder", True)
    patch("repro.core.dp", "candidates_for_cut", "linear.candidates", False)
    patch("repro.core.dp", "pack_or_cost", "binpack.pack_or_cost", False)
    patch("repro.core.dp", "pack_or_gates", "binpack.pack_or_gates", False)
    patch("repro.bdd.leveled", "LeveledBDD.cut_set", "leveled.cut_set", False)
    patch("repro.core.dp", "BDDSynthesizer.synthesize", "dp.synthesize", True)
    patch("repro.core.dp", "BDDSynthesizer.emit", "dp.emit", True)
    # Map pass: these are imported inside MapPass.run at call time.
    patch("repro.mapping.netcover", "cover_network", "map.cover_network", True)
    patch("repro.core.lutpack", "lut_pack", "map.lut_pack", True)
    patch("repro.network.transform", "merge_duplicates", "map.merge_duplicates", True)
    # Wavefront engine, emission records, cache tiers, pool and fleet.
    patch("repro.runtime.schedule", "export_dag", "signature", True)
    patch("repro.runtime.pool", "SupernodeJob.signature", "signature", True)
    patch("repro.runtime.pool", "export_emission", "emission.export", True)
    patch("repro.runtime.schedule", "replay_record", "emission.replay", True)
    patch("repro.runtime.fleet", "verify_record", "emission.verify_record", True)
    patch("repro.runtime.tiers", "TieredEmissionCache.get", "tiers.get", True)
    patch("repro.runtime.tiers", "TieredEmissionCache.put", "tiers.put", True)
    patch("repro.runtime.tiers", "SqliteTier.claim_state", "tiers.claim_poll", False)
    patch("repro.runtime.pool", "JobRunner.run_batch_outcomes", "pool.batch", True,
          after=batch_jobs)
    patch("repro.runtime.fleet", "FleetScheduler.run_wave", "fleet.run_wave", True)

    def restore() -> None:
        for owner, leaf, original in reversed(patches):
            setattr(owner, leaf, original)

    return restore


def write_spans(tracer: Tracer, path: Any, extra: Dict[str, Any]) -> None:
    """Write the recorded spans (one JSON object per line) after a
    header line with ``extra``."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(extra, sort_keys=True) + "\n")
        for s in tracer.spans:
            fh.write(json.dumps({
                "id": s.id, "name": s.name, "start": round(s.start, 6),
                "end": round(s.end, 6), "parent": s.parent,
                "request": s.request, "self_s": round(s.self_s, 6),
            }) + "\n")
