"""Tests for the per-simulation MetricsRegistry."""

import pytest

from repro.obs import MetricsRegistry, registry_of
from repro.simnet.core import Simulator
from repro.simnet.stats import Counter, Gauge, Histogram


class TestFactories:
    def test_counter_get_or_create(self):
        reg = MetricsRegistry()
        c = reg.counter("a/ops")
        assert isinstance(c, Counter)
        assert c.name == "a/ops"
        assert reg.counter("a/ops") is c  # identity on repeat lookup

    def test_gauge_and_histogram(self):
        reg = MetricsRegistry()
        g = reg.gauge("a/mem")
        h = reg.histogram("a/lat")
        assert isinstance(g, Gauge) and isinstance(h, Histogram)
        assert reg.gauge("a/mem") is g
        assert reg.histogram("a/lat") is h

    def test_type_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(TypeError):
            reg.gauge("x")
        with pytest.raises(TypeError):
            reg.histogram("x")

    def test_shared_identity_across_layers(self):
        """Two layers asking for the same name observe the same metric."""
        reg = MetricsRegistry()
        reg.counter("link/bytes").add(10)
        reg.counter("link/bytes").add(5)
        assert reg.counter("link/bytes").value == 15.0


class TestLookup:
    def test_names_sorted_and_filtered(self):
        reg = MetricsRegistry()
        for name in ("b/x", "a/y", "a/x"):
            reg.counter(name)
        assert reg.names() == ["a/x", "a/y", "b/x"]
        assert reg.names("a/") == ["a/x", "a/y"]

    def test_get_len_contains(self):
        reg = MetricsRegistry()
        assert reg.get("missing") is None
        c = reg.counter("c")
        assert reg.get("c") is c
        assert len(reg._metrics) == 1
        assert "c" in reg._metrics and "d" not in reg._metrics


class TestSumMatching:
    def test_fleet_rollup(self):
        reg = MetricsRegistry()
        reg.counter("rpcc0/retries").add(2)
        reg.counter("rpcc1/retries").add(3)
        reg.counter("rpcc1/timeouts").add(7)  # different suffix
        reg.counter("other/retries").add(100)  # different prefix
        assert reg.sum_matching("/retries", "rpcc") == 5.0
        assert reg.sum_matching("/retries") == 105.0

    def test_gauges_counted_histograms_not(self):
        reg = MetricsRegistry()
        reg.gauge("n0/mem").set(4.0)
        reg.gauge("n1/mem").set(6.0)
        reg.histogram("n2/mem").observe(99.0)  # no scalar value: excluded
        assert reg.sum_matching("/mem") == 10.0

    def test_suffix_anchored_at_component_boundary(self):
        """``retries`` must not swallow ``window_retries`` (or vice versa)."""
        reg = MetricsRegistry()
        reg.counter("rpcc0/retries").add(2)
        reg.counter("rpc/window_retries").add(9)
        assert reg.sum_matching("retries") == 2.0
        assert reg.sum_matching("window_retries") == 9.0
        # A slash-led suffix is already anchored; exact names still match.
        assert reg.sum_matching("/window_retries") == 9.0
        assert reg.sum_matching("rpc/window_retries") == 9.0

    def test_bare_name_matches_whole_component(self):
        reg = MetricsRegistry()
        reg.counter("ops").add(1)
        reg.counter("a/ops").add(4)
        reg.counter("a/drops").add(16)  # 'ops' is a substring, not a component
        assert reg.sum_matching("ops") == 5.0

    def test_merged_histogram_component_anchored(self):
        reg = MetricsRegistry()
        reg.histogram("rpcc0/latency").observe(1.0)
        reg.histogram("rpcc1/latency").observe(2.0)
        reg.histogram("x/tail_latency").observe(512.0)
        merged = reg.merged_histogram("latency")
        assert merged.n == 2
        assert merged.max == 2.0  # tail_latency excluded


class TestSnapshot:
    def test_shapes(self):
        reg = MetricsRegistry()
        reg.counter("c").add(3)
        reg.gauge("g").set(5.0)
        reg.gauge("g").set(2.0)
        for v in (1.0, 2.0, 4.0):
            reg.histogram("h").observe(v)
        snap = reg.snapshot()
        assert snap["c"] == 3.0
        assert snap["g"] == {"value": 2.0, "peak": 5.0}
        assert snap["h"]["n"] == 3
        assert snap["h"]["min"] == 1.0 and snap["h"]["max"] == 4.0
        assert {"mean", "p50", "p90", "p99"} <= set(snap["h"])

    def test_prefix_filter_and_order(self):
        reg = MetricsRegistry()
        for name in ("z/1", "a/1", "m/1"):
            reg.counter(name)
        snap = reg.snapshot(prefixes=("a", "z"))
        assert list(snap) == ["a/1", "z/1"]  # sorted, filtered

    def test_empty_histogram_snapshot(self):
        reg = MetricsRegistry()
        reg.histogram("h")
        snap = reg.snapshot()
        assert snap["h"]["n"] == 0
        assert snap["h"]["min"] == 0.0 and snap["h"]["max"] == 0.0


class TestRegistryOf:
    def test_lazy_per_sim_attachment(self):
        sim1, sim2 = Simulator(), Simulator()
        r1 = registry_of(sim1)
        assert registry_of(sim1) is r1  # cached on the sim
        assert registry_of(sim2) is not r1  # independent sims never share

    def test_layers_register_on_construction(self):
        """Building a cluster populates the sim's registry."""
        from repro.config import ares_like
        from repro.fabric.topology import Cluster

        cluster = Cluster(ares_like(nodes=2, procs_per_node=1))
        reg = registry_of(cluster.sim)
        assert "switch/transits" in reg.names()
        assert any(n.endswith("/bytes") for n in reg.names())
        assert any(n.startswith("nic0/") for n in reg.names())
