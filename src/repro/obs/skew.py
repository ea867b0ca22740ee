"""Hot-partition / hot-key skew detection.

ROADMAP item 1's sensing half: the auto-split controller needs to *know*
a partition is hot before it can act.  Two complementary signals:

* **Partition level** — per-partition ``<container>.<i>/ops`` counters
  (already maintained by every container) are read at each flight-recorder
  tick; per-tick deltas give instantaneous load shares, cumulative totals
  give the run-wide imbalance coefficient (max/mean) and coefficient of
  variation.  A partition whose per-tick share exceeds ``HOT_FACTOR`` x
  fair share raises an edge-triggered ``skew.hot_partition`` event.
* **Key level** — a deterministic space-saving heavy-hitter sketch
  (Metwally et al.'s *SpaceSaving*) fed key-by-key from the workload
  driver.  Capacity-bounded, no RNG, FIFO tie-breaking on eviction, so
  same-seed runs produce identical top-k tables; the guarantee that any
  key with true count > N/capacity is retained makes Zipf hot keys
  rank first with even small capacities.

Everything here is pure bookkeeping on the Python heap: no simulator
events, no RNG draws, no resource acquisition — a monitored run keeps
identical simulated results.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.obs.registry import MetricsRegistry
from repro.simnet.trace import EventLog

__all__ = ["SpaceSavingSketch", "SkewDetector"]

#: a partition is *hot* in a tick when its share of that tick's ops
#: exceeds this multiple of the fair share
HOT_FACTOR = 2.0

#: heavy-hitter sketch size for :meth:`SkewDetector.offer_key`
SKETCH_CAPACITY = 64

#: partitions and keys listed in :meth:`SkewDetector.summary`
TOP_K = 5


class SpaceSavingSketch:
    """Deterministic space-saving heavy-hitter sketch.

    Tracks at most ``capacity`` keys; offering an untracked key when full
    evicts the minimum-count entry (FIFO among ties — the entry tracked
    longest goes first) and the newcomer inherits that count as its
    over-estimation ``error``.  For any key, ``count - error`` is a lower
    bound and ``count`` an upper bound on its true frequency.
    """

    def __init__(self, capacity: int):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self.offered = 0
        # key -> [count, error, seq]; seq is a monotonic tracking stamp
        # so eviction and top-k ordering are fully deterministic.
        self._entries: Dict[object, List[float]] = {}
        self._seq = 0

    def offer(self, key, inc: int = 1) -> None:
        self.offered += inc
        entry = self._entries.get(key)
        if entry is not None:
            entry[0] += inc
            return
        self._seq += 1
        if len(self._entries) < self.capacity:
            self._entries[key] = [inc, 0, self._seq]
            return
        victim_key = min(self._entries,
                         key=lambda k: (self._entries[k][0],
                                        self._entries[k][2]))
        floor = self._entries.pop(victim_key)[0]
        self._entries[key] = [floor + inc, floor, self._seq]

    def top(self, k: int = 10) -> List[Tuple[object, int, int]]:
        """The ``k`` heaviest tracked keys as ``(key, count, error)``.

        Ordered by count descending, oldest-tracked first on ties —
        a long-tracked exact count outranks a same-count newcomer whose
        total may be inherited error.
        """
        ranked = sorted(self._entries.items(),
                        key=lambda kv: (-kv[1][0], kv[1][2]))
        return [(key, int(c), int(e)) for key, (c, e, _s) in ranked[:k]]


class SkewDetector:
    """Per-partition load-share monitor + hot-key sketch.

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
    """

    def __init__(self, registry: MetricsRegistry,
                 sources: Sequence[Tuple[str, int]], event_log: EventLog):
        self.registry = registry
        self.sources = list(sources)
        self.events = event_log
        self.sketch = SpaceSavingSketch(SKETCH_CAPACITY)
        self.ticks = 0
        self.hot_events = 0
        self._last: List[float] = [0.0] * len(self.sources)
        self._hot: set = set()

    # -- feeds ----------------------------------------------------------------
    def offer_key(self, key) -> None:
        """Feed one key access into the heavy-hitter sketch."""
        self.sketch.offer(key)

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
            "top_keys": [
                {"key": str(key), "count": count, "error": error}
                for key, count, error in self.sketch.top(TOP_K)
            ],
            "keys_offered": self.sketch.offered,
        }
