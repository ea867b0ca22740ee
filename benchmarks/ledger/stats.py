"""Order statistics used by the ledger (exact, no interpolation surprises)."""

from __future__ import annotations

import math
import statistics
from typing import Dict, Sequence

__all__ = ["nearest_rank", "quartile_summary"]


def nearest_rank(values: Sequence[float], q: float) -> float:
    """Exact nearest-rank quantile: the smallest sample whose cumulative
    share is at least ``q``.  Always returns an observed value, unlike
    ``Histogram.quantile`` which returns a log2 bucket edge."""
    if not values:
        raise ValueError("nearest_rank needs at least one sample")
    if not 0.0 < q <= 1.0:
        raise ValueError("q must be in (0, 1]")
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def quartile_summary(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles and the quartile distance as a share of the
    median -- the run-to-run spread ``agree`` weighs against a bound."""
    if not values:
        raise ValueError("quartile_summary needs at least one sample")
    median = statistics.median(values)
    if len(values) >= 2:
        q1, _q2, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = median
    spread = (q3 - q1) / median if median else 0.0
    return {"median": median, "q1": q1, "q3": q3, "spread": spread,
            "n": len(values)}
