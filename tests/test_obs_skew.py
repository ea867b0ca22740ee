"""Tests for the hot-partition / hot-key skew detector."""

import pytest

from repro.obs import MetricsRegistry, SkewDetector
from repro.simnet import EventLog, Simulator


def _rig(per_partition):
    """A registry + detector over ``len(per_partition)`` fake partitions."""
    reg = MetricsRegistry()
    counters = [reg.counter(f"m.{i}/ops") for i in range(len(per_partition))]
    sources = [(f"m.{i}/ops", i % 2) for i in range(len(per_partition))]
    for c, n in zip(counters, per_partition):
        c.add(n)
    return reg, counters, sources


def _log():
    return EventLog(Simulator())


class TestSkewDetector:
    def test_imbalance_and_top_partitions(self):
        reg, _c, sources = _rig([90, 5, 5, 0])
        det = SkewDetector(reg, sources, _log())
        s = det.summary()
        assert s["partitions"] == 4
        assert s["total_ops"] == 100.0
        assert s["imbalance"] == pytest.approx(90 / 25)
        assert s["top_partitions"][0]["partition"] == "m.0/ops"
        assert s["top_partitions"][0]["share"] == pytest.approx(0.9)
        # Node rollup: partitions 0, 2 live on node 0; 1, 3 on node 1.
        assert s["node_ops"] == {"0": 95.0, "1": 5.0}

    def test_uniform_load_is_balanced(self):
        reg, _c, sources = _rig([25, 25, 25, 25])
        det = SkewDetector(reg, sources, _log())
        s = det.summary()
        assert s["imbalance"] == pytest.approx(1.0)
        assert s["cv"] == pytest.approx(0.0)
        assert s["hot_events"] == 0

    def test_hot_event_edge_triggered(self, sim):
        reg, counters, sources = _rig([0, 0, 0, 0])
        log = EventLog(sim)
        det = SkewDetector(reg, sources, log)
        # Tick 1: partition 0 takes 80% of the delta -> hot (fair share 25%).
        counters[0].add(80)
        counters[1].add(20)
        det.tick(1.0)
        # Tick 2: still hot -> edge-triggered, no second event.
        counters[0].add(80)
        counters[1].add(20)
        det.tick(2.0)
        # Tick 3: load evens out -> cooled.
        for c in counters:
            c.add(25)
        det.tick(3.0)
        kinds = [kind for _t, kind, _p in log.entries]
        assert kinds == ["skew.hot_partition", "skew.cooled"]
        assert det.hot_events == 1
        hot_payload = log.entries[0][2]
        assert hot_payload["partition"] == "m.0/ops"
        assert hot_payload["share"] == pytest.approx(0.8)

    def test_idle_tick_fires_nothing(self):
        reg, _c, sources = _rig([10, 10])
        det = SkewDetector(reg, sources, _log())
        det.tick(1.0)  # consumes the initial counts
        det.tick(2.0)  # zero delta: no division, no events
        assert det.ticks == 2 and det.hot_events == 0

    def test_zipf_hot_keys_rank_first(self):
        """Acceptance: the detector ranks known Zipf hot keys first, with
        their exact counts."""
        n_keys = 512
        theta = 0.99
        raw = [(r + 1) ** -theta for r in range(n_keys)]
        norm = sum(raw)
        # Deterministic proportional stream: key i appears ~w_i * N times
        # (the serving harness's Zipf popularity law, exact instead of
        # sampled so the ground-truth ranking is unambiguous).
        counts = [max(1, round(w / norm * 50_000)) for w in raw]
        key_counts = {}
        det = SkewDetector(MetricsRegistry(), [("m.0/ops", 0)], _log(),
                           key_counts=key_counts)
        # Interleave round-robin so heavy keys don't just arrive first.
        remaining = list(counts)
        alive = True
        while alive:
            alive = False
            for i in range(n_keys):
                if remaining[i] > 0:
                    key_counts[i] = key_counts.get(i, 0) + 1
                    remaining[i] -= 1
                    alive = True
        truth = sorted(range(n_keys), key=lambda i: (-counts[i], i))[:5]
        summary = det.summary()
        assert summary["top_keys"] == [
            {"key": str(i), "count": counts[i]} for i in truth]
        assert summary["keys_offered"] == sum(counts)

    def test_tied_keys_rank_in_first_seen_order(self):
        key_counts = {"b": 2, "a": 3, "d": 2, "c": 2}
        det = SkewDetector(MetricsRegistry(), [], _log(),
                           key_counts=key_counts)
        assert [e["key"] for e in det.summary()["top_keys"]] == [
            "a", "b", "d", "c"]

    def test_summary_deterministic(self):
        def run():
            reg, counters, sources = _rig([7, 3, 90])
            key_counts = {}
            det = SkewDetector(reg, sources, _log(), key_counts=key_counts)
            for k in (1, 2, 2, 3, 3, 3):
                key_counts[k] = key_counts.get(k, 0) + 1
            det.tick(0.5)
            return det.summary()

        assert run() == run()
