"""The per-simulation metrics registry.

Before this module, every layer built its own ``Counter``/``Gauge``/
``Histogram`` objects ad hoc — the fabric links, the NIC, the RPC client
and server, the coalescer, the fault injector all held private metric
instances with no way to enumerate or export them.  The registry is the
single factory those layers now share: metrics are namespaced by the
same ``<owner>/<metric>`` names they always carried, created lazily on
first request, and returned by identity on repeat lookups (two layers
asking for the same name observe the same metric).

One registry exists per :class:`~repro.simnet.core.Simulator`, attached
lazily by :func:`registry_of` — every layer already holds the ``sim``,
so no constructor signatures change and two independent simulations
(e.g. an A/B benchmark pair) never share state.

Registration is zero-cost on the simulated timeline: factories allocate
plain Python objects and never schedule events, so a run with the
registry is bit-identical to one without it.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Tuple, Union

from typing import Sequence

from repro.simnet.stats import Counter, Gauge, Histogram

__all__ = [
    "MetricsRegistry",
    "SLO_QUANTILES",
    "percentile_summary",
    "registry_of",
]

#: serving-SLO quantile set (p50/p95/p99/p99.9) — the tail percentiles the
#: serving harness and its BENCH_serving.json report
SLO_QUANTILES: Tuple[float, ...] = (0.5, 0.95, 0.99, 0.999)

#: the registry snapshot's historical quantile set (p50/p90/p99)
_SNAPSHOT_QUANTILES: Tuple[float, ...] = (0.5, 0.9, 0.99)


def percentile_summary(
    source: Union[Histogram, Sequence[float]],
    qs: Sequence[float] = _SNAPSHOT_QUANTILES,
) -> Dict[str, float]:
    """One ``{n, mean, min, max, p50, ...}`` dict for any latency source.

    The single quantile-extraction path every harness summary goes
    through: pass a :class:`~repro.simnet.stats.Histogram` (bucketed
    estimates via :meth:`~repro.simnet.stats.Histogram.percentiles`) or a
    plain value sequence (exact nearest-rank quantiles).  Keys follow the
    histogram convention — ``0.999`` becomes ``"p99.9"``.
    """
    if isinstance(source, Histogram):
        return {
            "n": source.n,
            "mean": source.mean(),
            "min": source.min or 0.0,
            "max": source.max or 0.0,
            **source.percentiles(qs),
        }
    values = sorted(source)
    n = len(values)
    out = {
        "n": n,
        "mean": sum(values) / n if n else 0.0,
        "min": values[0] if n else 0.0,
        "max": values[-1] if n else 0.0,
    }
    for q in qs:
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantiles must be in [0,1]")
        if n == 0:
            out[f"p{100 * q:g}"] = 0.0
        else:
            # Nearest-rank: the smallest value with cumulative share >= q.
            rank = max(0, min(n - 1, math.ceil(q * n) - 1))
            out[f"p{100 * q:g}"] = values[rank]
    return out

#: attribute the registry hangs off a Simulator (created lazily)
_SIM_ATTR = "_obs_metrics"

Metric = Union[Counter, Gauge, Histogram]


def _suffix_matches(name: str, suffix: str) -> bool:
    """True when ``suffix`` matches ``name`` at a name-component boundary.

    Rollup suffixes address trailing ``/``-separated components, not raw
    character tails: ``"retries"`` matches ``"rpcc0/retries"`` and a
    metric literally named ``"retries"``, but must *not* silently absorb
    ``"rpc/window_retries"``.  A suffix that already starts with ``/``
    (the idiomatic ``"/retries"`` form) is boundary-anchored by
    construction.
    """
    if not name.endswith(suffix):
        return False
    if len(name) == len(suffix) or suffix.startswith("/"):
        return True
    return name[-len(suffix) - 1] == "/"


class MetricsRegistry:
    """Namespaced, lazily-created metric factory for one simulation."""

    def __init__(self) -> None:
        self._metrics: Dict[str, Metric] = {}

    # -- factories ------------------------------------------------------------
    def _get_or_create(self, name: str, cls, *args) -> Metric:
        metric = self._metrics.get(name)
        if metric is None:
            metric = cls(name, *args)
            self._metrics[name] = metric
            return metric
        if not isinstance(metric, cls):
            raise TypeError(
                f"metric {name!r} already registered as "
                f"{type(metric).__name__}, requested {cls.__name__}"
            )
        return metric

    def counter(self, name: str) -> Counter:
        """Get-or-create the :class:`Counter` called ``name``."""
        return self._get_or_create(name, Counter)

    def gauge(self, name: str) -> Gauge:
        """Get-or-create the :class:`Gauge` called ``name``."""
        return self._get_or_create(name, Gauge)

    def histogram(self, name: str) -> Histogram:
        """Get-or-create the :class:`Histogram` called ``name``."""
        return self._get_or_create(name, Histogram)

    # -- lookup ---------------------------------------------------------------
    def get(self, name: str) -> Optional[Metric]:
        return self._metrics.get(name)

    def names(self, prefix: str = "") -> List[str]:
        """Registered metric names (sorted), optionally prefix-filtered."""
        return sorted(n for n in self._metrics if n.startswith(prefix))

    # -- aggregation ----------------------------------------------------------
    def sum_matching(self, suffix: str, prefix: str = "") -> float:
        """Sum counter/gauge values whose name matches ``prefix``/``suffix``.

        The fleet-wide rollup: per-node metrics share a suffix
        (``rpcc0/retries``, ``rpcc1/retries``, ... -> ``/retries``), so a
        chaos or bench report can total them without holding references
        to every client/server object.  Suffixes match whole trailing
        name components only (``"retries"`` never totals
        ``window_retries``); prefixes stay plain ``startswith`` so
        instance-numbered families (``rpcc`` -> ``rpcc0/...``) keep
        rolling up.
        """
        total = 0.0
        for name, metric in self._metrics.items():
            if not _suffix_matches(name, suffix):
                continue
            if prefix and not name.startswith(prefix):
                continue
            if isinstance(metric, (Counter, Gauge)):
                total += metric.value
        return total

    def merged_histogram(self, suffix: str, prefix: str = "") -> Histogram:
        """Bucket-exact union of every histogram matching ``prefix``/``suffix``.

        The distribution analogue of :meth:`sum_matching`: per-node
        histogram fleets (``rpcc0/latency``, ``rpcc1/latency``, ...) fold
        into one cluster-wide :class:`Histogram` ready for
        :func:`percentile_summary`.
        """
        merged = Histogram(f"{prefix}*{suffix}")
        for name in sorted(self._metrics):
            if not _suffix_matches(name, suffix):
                continue
            if prefix and not name.startswith(prefix):
                continue
            metric = self._metrics[name]
            if isinstance(metric, Histogram):
                merged.merge(metric)
        return merged

    # -- export ---------------------------------------------------------------
    def snapshot(self, prefixes: Optional[Iterable[str]] = None) -> Dict:
        """Flat, deterministic (sorted-key) dict of every metric's state.

        Counters map to their value; gauges to ``{value, peak}``;
        histograms to ``{n, mean, min, max, p50, p90, p99}``.  This is the
        payload behind ``--metrics-out`` and the chaos-soak ``metrics``
        section.
        """
        wanted: Optional[Tuple[str, ...]] = (
            tuple(prefixes) if prefixes is not None else None
        )
        out: Dict = {}
        for name in sorted(self._metrics):
            if wanted is not None and not name.startswith(wanted):
                continue
            metric = self._metrics[name]
            if isinstance(metric, Counter):
                out[name] = metric.value
            elif isinstance(metric, Gauge):
                out[name] = {"value": metric.value, "peak": metric.peak}
            else:  # Histogram
                out[name] = percentile_summary(metric)
        return out


def registry_of(sim) -> MetricsRegistry:
    """The simulation's registry, created lazily on first access.

    Attached as a plain attribute so the simnet kernel stays ignorant of
    the observability layer and Simulator construction cost is unchanged.
    """
    registry = getattr(sim, _SIM_ATTR, None)
    if registry is None:
        registry = MetricsRegistry()
        setattr(sim, _SIM_ATTR, registry)
    return registry


def publish_scheduler_metrics(sim) -> MetricsRegistry:
    """Mirror the kernel's event-queue depth into ``scheduler/queue_depth``,
    so one ``--metrics-out`` snapshot covers the kernel too."""
    registry = registry_of(sim)
    registry.gauge("scheduler/queue_depth").set(
        sim.kernel_stats()["queue_depth"])
    return registry
