"""Result containers and text-table rendering for the experiments."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Sequence


@dataclass
class TableResult:
    """One regenerated table: header, per-circuit rows, summary rows."""

    name: str
    columns: List[str]
    rows: List[List[object]]
    summary: Dict[str, float] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)

    def render(self) -> str:
        return format_table(self)


def format_table(result: TableResult) -> str:
    """Render a :class:`TableResult` as an aligned text table."""

    def fmt(x: object) -> str:
        if isinstance(x, float):
            return f"{x:.2f}"
        return str(x)

    rows = [[fmt(c) for c in row] for row in result.rows]
    widths = [len(c) for c in result.columns]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = [result.name]
    lines.append(
        "  ".join(col.ljust(w) for col, w in zip(result.columns, widths))
    )
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
    if result.summary:
        lines.append("")
        for key, value in result.summary.items():
            lines.append(f"  {key}: {value:.3f}" if isinstance(value, float) else f"  {key}: {value}")
    for note in result.notes:
        lines.append(f"  note: {note}")
    return "\n".join(lines)


def geomean_ratio(numerators: Sequence[float], denominators: Sequence[float]) -> float:
    """Geometric mean of pairwise ratios (the normalization the paper's
    "Norm" rows use; zero entries are clamped to 1)."""
    if not numerators:
        return float("nan")
    total = 0.0
    count = 0
    for a, b in zip(numerators, denominators):
        a = max(a, 1e-9)
        b = max(b, 1e-9)
        total += math.log(a / b)
        count += 1
    return math.exp(total / count)
