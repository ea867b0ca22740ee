"""Hot-partition / hot-key skew detection.

Which partitions and keys carry more than their share of a run's ops.
Two complementary signals:

* **Partition level** — per-partition ``<container>.<i>/ops`` counters
  (already maintained by every container) are read at each flight-recorder
  tick; per-tick deltas give instantaneous load shares, cumulative totals
  give the run-wide imbalance coefficient (max/mean) and coefficient of
  variation.  A partition whose per-tick share exceeds ``HOT_FACTOR`` x
  fair share raises an edge-triggered ``skew.hot_partition`` event.
* **Key level** — the workload driver's exact per-key access counts
  (the dict the run keeps anyway): the :data:`TOP_K` largest are the hot
  keys, ties in first-seen order, so same-seed runs list them alike.

Everything here is pure bookkeeping on the Python heap: no simulator
events, no RNG draws, no resource acquisition — a monitored run keeps
identical simulated results.
"""

from __future__ import annotations

import heapq
from operator import itemgetter
from typing import Dict, List, Optional, Sequence, Tuple

from repro.obs.registry import MetricsRegistry
from repro.simnet.trace import EventLog

__all__ = ["SkewDetector"]

#: a partition is *hot* in a tick when its share of that tick's ops
#: exceeds this multiple of the fair share
HOT_FACTOR = 2.0

#: partitions and keys listed in :meth:`SkewDetector.summary`
TOP_K = 5


class SkewDetector:
    """Per-partition load-share monitor + hot-key ranking.

    Parameters
    ----------
    registry:
        The simulation's metrics registry (op counters are read live).
    sources:
        ``(counter_name, node_id)`` pairs — one per monitored partition,
        e.g. ``("serving-map.3/ops", 3)``.  Harnesses build this from
        ``partition.ops.name`` / ``partition.node_id``.
    event_log:
        Where the edge-triggered ``skew.hot_partition`` /
        ``skew.cooled`` events go (a partition is *hot* above
        :data:`HOT_FACTOR` x the fair share of a tick's ops).
    key_counts:
        key -> accesses so far, filled by the workload driver; read only
        by :meth:`summary`.
    """

    def __init__(self, registry: MetricsRegistry,
                 sources: Sequence[Tuple[str, int]], event_log: EventLog,
                 key_counts: Optional[Dict[object, int]] = None):
        self.registry = registry
        self.sources = list(sources)
        self.events = event_log
        self.key_counts = {} if key_counts is None else key_counts
        self.ticks = 0
        self.hot_events = 0
        self._last: List[float] = [0.0] * len(self.sources)
        self._hot: set = set()

    # -- ticks ----------------------------------------------------------------
    def _read(self) -> List[float]:
        values = []
        for name, _node in self.sources:
            metric = self.registry.get(name)
            values.append(float(metric.value) if metric is not None else 0.0)
        return values

    def tick(self, now: float) -> None:
        """Per-sample hook: compute tick deltas, fire hot/cooled events."""
        self.ticks += 1
        values = self._read()
        deltas = [v - p for v, p in zip(values, self._last)]
        self._last = values
        total = sum(deltas)
        if total <= 0 or not self.sources:
            return
        hot_share = HOT_FACTOR / len(self.sources)
        for i, (name, node) in enumerate(self.sources):
            share = deltas[i] / total
            if share > hot_share:
                if i not in self._hot:
                    self._hot.add(i)
                    self.hot_events += 1
                    self.events.log("skew.hot_partition", {
                        "partition": name,
                        "node": node,
                        "share": share,
                        "fair_share": 1.0 / len(self.sources),
                    })
            elif i in self._hot:
                self._hot.discard(i)
                self.events.log("skew.cooled", {
                    "partition": name,
                    "node": node,
                    "share": share,
                })

    # -- reporting ------------------------------------------------------------
    def summary(self) -> Dict:
        """Run-wide skew report (JSON-ready, deterministic ordering)."""
        values = self._read()
        total = sum(values)
        n = len(values)
        mean = total / n if n else 0.0
        if mean > 0:
            imbalance = max(values) / mean
            var = sum((v - mean) ** 2 for v in values) / n
            cv = var ** 0.5 / mean
        else:
            imbalance = 1.0
            cv = 0.0
        ranked = sorted(range(n),
                        key=lambda i: (-values[i], self.sources[i][0]))
        per_node: Dict[int, float] = {}
        for (name, node), v in zip(self.sources, values):
            per_node[node] = per_node.get(node, 0.0) + v
        return {
            "partitions": n,
            "total_ops": total,
            "imbalance": imbalance,
            "cv": cv,
            "hot_events": self.hot_events,
            "hot_now": sorted(self.sources[i][0] for i in self._hot),
            "top_partitions": [
                {
                    "partition": self.sources[i][0],
                    "node": self.sources[i][1],
                    "ops": values[i],
                    "share": values[i] / total if total else 0.0,
                }
                for i in ranked[:TOP_K]
            ],
            "node_ops": {str(node): per_node[node]
                         for node in sorted(per_node)},
            # nlargest is stable: equal counts keep first-seen order
            "top_keys": [
                {"key": str(key), "count": count}
                for key, count in heapq.nlargest(
                    TOP_K, self.key_counts.items(), key=itemgetter(1))
            ],
            "keys_offered": sum(self.key_counts.values()),
        }
