"""Run every experiment and write a consolidated report.

Used by ``results/run_all.py`` and ``ddbdd table all``; kept in the
library so downstream users can regenerate EXPERIMENTS.md-style data
with one call.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional, TextIO, Tuple

from repro.core.config import DDBDDConfig
from repro.experiments.report import TableResult
from repro.experiments.scaling import run_scaling
from repro.experiments.table1 import run_table1
from repro.experiments.table2 import run_table2
from repro.experiments.table3 import run_table3
from repro.experiments.table4 import run_table4
from repro.experiments.table5 import run_table5

_EXPERIMENTS: List[Tuple[str, Callable[..., TableResult], dict]] = [
    ("table1", run_table1, {}),
    ("table2", run_table2, {}),
    ("table3", run_table3, {"verify": True}),
    ("table5", run_table5, {"verify": True}),
    ("scaling", run_scaling, {}),
    ("table4", run_table4, {"place_effort": 0.5}),
]


def run_all(
    out: Optional[TextIO] = None,
    skip: Optional[List[str]] = None,
    overrides: Optional[Dict[str, dict]] = None,
    jobs: Optional[int] = None,
    cache: Optional[str] = None,
    cache_dir: Optional[str] = None,
) -> Dict[str, TableResult]:
    """Run all experiments; stream rendered tables to ``out``.

    ``skip`` omits experiments by name; ``overrides`` merges extra
    keyword arguments into a specific experiment's driver call (e.g.
    ``{"table4": {"place_effort": 0.2}}`` for a quick pass).

    ``jobs`` / ``cache`` / ``cache_dir`` set the runtime knobs of the
    shared :class:`~repro.core.config.DDBDDConfig` passed to every
    experiment (an explicit per-experiment ``config`` override wins).
    """
    results: Dict[str, TableResult] = {}
    skip = skip or []
    overrides = overrides or {}
    runtime_kwargs: dict = {}
    if jobs is not None:
        runtime_kwargs["jobs"] = jobs
    if cache is not None:
        runtime_kwargs["cache"] = cache
    if cache_dir is not None:
        runtime_kwargs["cache_dir"] = cache_dir
    shared_config = DDBDDConfig(**runtime_kwargs) if runtime_kwargs else None
    start = time.perf_counter()
    for label, fn, kwargs in _EXPERIMENTS:
        if label in skip:
            continue
        call_kwargs = dict(kwargs)
        if shared_config is not None:
            call_kwargs["config"] = shared_config
        call_kwargs.update(overrides.get(label, {}))
        t = time.perf_counter()
        result = fn(**call_kwargs)
        results[label] = result
        if out is not None:
            out.write(f"===== {label} ({time.perf_counter() - t:.0f}s) =====\n")
            out.write(result.render())
            out.write("\n\n")
            out.flush()
    if out is not None:
        out.write(f"total {time.perf_counter() - start:.0f}s\n")
    return results
