"""Percentiles for the latency metrics.

Latency percentiles use the Harrell–Davis estimator: a weighted average
of every order statistic, with weights from the Beta(p(n+1), (1-p)(n+1))
distribution.  cache-rerun's latencies come from four fast and four
slow circuits, so their median falls in the gap between two clusters;
interpolating between the two neighbours there jumps whenever two
circuits swap places, while the Harrell–Davis value moves smoothly.  On
serve-mix's hundreds of samples both agree.
"""

from __future__ import annotations

import math
from typing import Sequence

#: Midpoint-rule steps per order statistic when integrating the weights.
_STEPS = 16


def percentile(values: Sequence[float], p: float) -> float:
    """The Harrell–Davis estimate of the ``p``-th percentile (0..100)."""
    if not values:
        raise ValueError("percentile of no values")
    if not 0 < p < 100:
        raise ValueError(f"percentile {p} outside (0, 100)")
    data = sorted(values)
    n = len(data)
    q = p / 100.0
    a, b = q * (n + 1), (1 - q) * (n + 1)
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    step = 1.0 / (n * _STEPS)
    total = weights = 0.0
    for i, x in enumerate(data):
        w = 0.0
        for k in range(_STEPS):
            t = (i * _STEPS + k + 0.5) * step
            w += math.exp((a - 1) * math.log(t) + (b - 1) * math.log1p(-t) - log_beta)
        total += w * x
        weights += w
    return total / weights


def beyond(values: Sequence[float], p: float) -> int:
    """How many samples lie strictly above the ``p``-th percentile."""
    cut = percentile(values, p)
    return sum(1 for v in values if v > cut)
