"""Lightweight metric primitives: counters, gauges, histograms.

Every fabric/RPC/container layer exposes these so that benchmarks can report
the same observables the paper does (ops/s, MB/s, packets/s, utilization %).
"""

from __future__ import annotations

import math
from typing import Dict, Optional

__all__ = ["Counter", "Gauge", "Histogram"]


class Counter:
    """Monotonic counter."""

    __slots__ = ("name", "value")

    def __init__(self, name: str = ""):
        self.name = name
        self.value = 0.0

    def add(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("Counter.add requires non-negative amount")
        self.value += amount


class Gauge:
    """Instantaneous value with peak tracking."""

    __slots__ = ("name", "value", "peak")

    def __init__(self, name: str = "", value: float = 0.0):
        self.name = name
        self.value = value
        self.peak = value

    def set(self, value: float) -> None:
        self.value = value
        if value > self.peak:
            self.peak = value

    def add(self, delta: float) -> None:
        self.set(self.value + delta)


class Histogram:
    """Fixed-width-bucket histogram in log2 space, for latencies/sizes."""

    def __init__(self, name: str = ""):
        self.name = name
        self.counts: Dict[int, int] = {}
        self.n = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        if value < 0:
            raise ValueError("Histogram.observe requires non-negative value")
        self.n += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        bucket = -64 if value == 0 else int(math.floor(math.log2(value)))
        self.counts[bucket] = self.counts.get(bucket, 0) + 1

    def mean(self) -> float:
        return self.total / self.n if self.n else 0.0

    def quantile(self, q: float) -> float:
        """Approximate quantile from bucket upper bounds.

        The bucket estimate (upper edge ``2**(bucket+1)``) is clamped into
        the observed ``[min, max]`` range, so a single-bucket histogram —
        where the edge can overshoot the largest sample by almost 2x —
        returns a value that was actually observed, and ``q=0``/``q=1``
        return the exact extremes.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError("q must be in [0,1]")
        if self.n == 0:
            return 0.0
        assert self.min is not None and self.max is not None
        if q <= 0.0:
            return self.min
        if q >= 1.0:
            return self.max
        target = q * self.n
        seen = 0
        for bucket in sorted(self.counts):
            seen += self.counts[bucket]
            if seen >= target:
                if bucket == -64:
                    return 0.0
                return min(max(2.0 ** (bucket + 1), self.min), self.max)
        return self.max

    def percentiles(self, qs=(0.5, 0.9, 0.99)) -> Dict[str, float]:
        """Named quantiles (``{"p50": ..., "p90": ..., "p99": ...}``)."""
        return {f"p{100 * q:g}": self.quantile(q) for q in qs}

    def count_above(self, threshold: float) -> int:
        """Samples whose bucket lies entirely above ``threshold``.

        The latency-SLI primitive: "how many requests exceeded the
        objective".  Log2 buckets only know sample counts per
        ``[2**b, 2**(b+1))`` range, so this counts buckets whose *lower*
        edge is >= ``threshold`` — a conservative (under-)estimate that is
        exact whenever ``threshold`` is a bucket boundary.
        """
        if threshold < 0:
            raise ValueError("threshold must be non-negative")
        if self.n == 0 or (self.max is not None and self.max < threshold):
            return 0
        return sum(
            count
            for bucket, count in self.counts.items()
            if bucket != -64 and 2.0 ** bucket >= threshold
        )

    def merge(self, other: "Histogram") -> "Histogram":
        """Fold ``other``'s samples into this histogram (bucket-exact).

        Log2 buckets are position-independent, so the union of two
        histograms is just summed bucket counts — this is how per-node
        metric fleets (``rpc0/exec``, ``rpc1/exec``, ...) roll up into one
        cluster-wide distribution without re-observing samples.
        """
        for bucket, count in other.counts.items():
            self.counts[bucket] = self.counts.get(bucket, 0) + count
        self.n += other.n
        self.total += other.total
        if other.min is not None and (self.min is None or other.min < self.min):
            self.min = other.min
        if other.max is not None and (self.max is None or other.max > self.max):
            self.max = other.max
        return self
