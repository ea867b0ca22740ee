"""Tests for the event log and statistics primitives."""

import pytest

from repro.simnet import (
    Counter,
    EventLog,
    Gauge,
    Histogram,
)


class TestEventLog:
    def test_log_and_filter(self, sim):
        log = EventLog(sim)
        log.log("send", {"size": 10})
        log.log("recv", {"size": 10})
        log.log("send", {"size": 20})
        assert len(log.entries) == 3
        sends = [p["size"] for _t, kind, p in log.entries if kind == "send"]
        assert sends == [10, 20]

    def test_limit_drops(self, sim):
        log = EventLog(sim, limit=2)
        for i in range(5):
            log.log("x", i)
        assert len(log.entries) == 2
        assert log.dropped == 3


class TestCounters:
    def test_counter(self):
        c = Counter("c")
        c.add()
        c.add(2.5)
        assert c.value == 3.5
        with pytest.raises(ValueError):
            c.add(-1)

    def test_gauge_peak(self):
        g = Gauge("g", value=5.0)
        g.add(3.0)
        g.set(2.0)
        assert g.value == 2.0
        assert g.peak == 8.0


class TestHistogram:
    def test_observe_and_mean(self):
        h = Histogram("lat")
        for v in (1.0, 2.0, 4.0, 8.0):
            h.observe(v)
        assert h.n == 4
        assert h.mean() == pytest.approx(3.75)
        assert h.min == 1.0 and h.max == 8.0

    def test_quantile_monotone(self):
        h = Histogram()
        for i in range(1, 101):
            h.observe(float(i))
        assert h.quantile(0.1) <= h.quantile(0.5) <= h.quantile(0.99)

    def test_zero_values(self):
        h = Histogram()
        h.observe(0.0)
        assert h.quantile(0.5) == 0.0

    def test_negative_rejected(self):
        h = Histogram()
        with pytest.raises(ValueError):
            h.observe(-1.0)
        with pytest.raises(ValueError):
            h.quantile(1.5)
        with pytest.raises(ValueError):
            h.quantile(-0.1)

    def test_empty_quantile(self):
        h = Histogram()
        assert h.quantile(0.5) == 0.0
        assert h.quantile(0.0) == 0.0
        assert h.quantile(1.0) == 0.0

    def test_extreme_quantiles_exact(self):
        h = Histogram()
        for v in (3.0, 5.0, 11.0, 100.0):
            h.observe(v)
        assert h.quantile(0.0) == 3.0
        assert h.quantile(1.0) == 100.0

    def test_single_bucket_clamped(self):
        # 5.0 lands in bucket [4, 8); the raw upper-edge estimate would be
        # 8.0 — the clamp must return a value actually observed.
        h = Histogram()
        h.observe(5.0)
        assert h.quantile(0.5) == 5.0

    def test_single_value_all_quantiles(self):
        h = Histogram()
        h.observe(7.0)
        for q in (0.0, 0.25, 0.5, 0.9, 1.0):
            assert h.quantile(q) == 7.0

    def test_percentiles_keys(self):
        h = Histogram()
        for i in range(1, 101):
            h.observe(float(i))
        p = h.percentiles()
        assert set(p) == {"p50", "p90", "p99"}
        assert p["p50"] <= p["p90"] <= p["p99"]
        custom = h.percentiles(qs=(0.0, 1.0))
        assert custom == {"p0": 1.0, "p100": 100.0}
