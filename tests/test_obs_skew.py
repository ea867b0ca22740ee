"""Tests for the hot-partition / hot-key skew detector."""

import pytest

from repro.obs import MetricsRegistry, SkewDetector, SpaceSavingSketch
from repro.simnet import EventLog, Simulator


class TestSpaceSavingSketch:
    def test_exact_below_capacity(self):
        sk = SpaceSavingSketch(capacity=8)
        for key, n in (("a", 5), ("b", 3), ("c", 1)):
            for _ in range(n):
                sk.offer(key)
        assert sk.top(3) == [("a", 5, 0), ("b", 3, 0), ("c", 1, 0)]
        assert sk.offered == 9
        assert len(sk._entries) == 3
        assert "a" in sk._entries and "z" not in sk._entries

    def test_eviction_inherits_floor_as_error(self):
        sk = SpaceSavingSketch(capacity=2)
        sk.offer("a")
        sk.offer("a")
        sk.offer("b")
        sk.offer("c")  # evicts b (count 1): c = count 2, error 1
        assert ("c", 2, 1) in sk.top(2)
        assert "b" not in sk._entries

    def test_fifo_tie_break_is_deterministic(self):
        def run():
            sk = SpaceSavingSketch(capacity=3)
            for key in "a b c a d b e".split():
                sk.offer(key)
            return sk.top(3)

        assert run() == run()

    def test_heavy_key_survives_churn(self):
        """A key with true count > N/capacity is always retained."""
        sk = SpaceSavingSketch(capacity=4)
        stream = []
        for i in range(60):
            stream.append("hot")
            stream.append(f"cold{i}")
        for key in stream:
            sk.offer(key)
        top = sk.top(1)
        assert top[0][0] == "hot"
        assert top[0][1] >= 60  # upper bound never undercounts

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            SpaceSavingSketch(capacity=0)


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
        """Acceptance: the sketch ranks known Zipf hot keys first."""
        n_keys = 512
        theta = 0.99
        raw = [(r + 1) ** -theta for r in range(n_keys)]
        norm = sum(raw)
        # Deterministic proportional stream: key i appears ~w_i * N times
        # (the serving harness's Zipf popularity law, exact instead of
        # sampled so the ground-truth ranking is unambiguous).
        counts = [max(1, round(w / norm * 50_000)) for w in raw]
        det = SkewDetector(MetricsRegistry(), [("m.0/ops", 0)], _log())
        # Interleave round-robin so heavy keys don't just arrive first.
        remaining = list(counts)
        alive = True
        while alive:
            alive = False
            for i in range(n_keys):
                if remaining[i] > 0:
                    det.offer_key(i)
                    remaining[i] -= 1
                    alive = True
        truth = sorted(range(n_keys), key=lambda i: (-counts[i], i))[:5]
        top = [entry["key"] for entry in det.summary()["top_keys"]]
        assert top == [str(i) for i in truth]
        # Counts are exact upper bounds >= the true frequency.
        for entry, i in zip(det.summary()["top_keys"], truth):
            assert entry["count"] >= counts[i]

    def test_summary_deterministic(self):
        def run():
            reg, counters, sources = _rig([7, 3, 90])
            det = SkewDetector(reg, sources, _log())
            for k in (1, 2, 2, 3, 3, 3):
                det.offer_key(k)
            det.tick(0.5)
            return det.summary()

        assert run() == run()
