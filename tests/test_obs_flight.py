"""Tests for the flight recorder (continuous registry sampling).

Covers the selector grammar, the pump's zero-perturbation contract
(cadence, ``until``, drain-mode lapse, phases that drain early,
multi-phase monotonicity), ring-buffer bounds, histogram quantile series,
probes, per-tick listeners, and payload determinism (a raising probe:
``tests/test_simnet_trace.py``).
"""

import pytest

from repro.obs import FlightRecorder, registry_of, select_matches


class TestSelectMatches:
    def test_no_selectors_matches_everything(self):
        assert select_matches("anything/at/all", None)
        assert select_matches("x", [])

    def test_slash_prefix(self):
        assert select_matches("serving/latency", ["serving/"])
        assert not select_matches("served/latency", ["serving/"])

    def test_dot_prefix(self):
        assert select_matches("serving-map.0/ops", ["serving-map."])
        assert not select_matches("serving-map0/ops", ["serving-map."])

    def test_star_prefix_for_instance_families(self):
        assert select_matches("rpcc0/retries", ["rpcc*"])
        assert select_matches("rpcc12/latency", ["rpcc*"])
        assert not select_matches("rpc/retries", ["rpcc*"])

    def test_leading_slash_suffix(self):
        assert select_matches("serving-map.3/ops", ["/ops"])
        assert not select_matches("serving-map.3/drops", ["/ops"])

    def test_exact_otherwise(self):
        assert select_matches("rpc/window_stalls", ["rpc/window_stalls"])
        assert not select_matches("rpc/window_stalls2", ["rpc/window_stalls"])

    def test_any_selector_suffices(self):
        sels = ["faults/", "/ops"]
        assert select_matches("faults/injected", sels)
        assert select_matches("m.0/ops", sels)
        assert not select_matches("rpc/retries", sels)


class TestRecorderValidation:
    def test_bad_interval_and_maxlen(self, sim):
        with pytest.raises(ValueError):
            FlightRecorder(sim, interval=0.0)
        with pytest.raises(ValueError):
            FlightRecorder(sim, interval=1.0, maxlen=0)


class TestPumpDiscipline:
    def test_samples_at_cadence(self, sim):
        reg = registry_of(sim)
        c = reg.counter("work/ops")
        c.add(3)
        rec = FlightRecorder(sim, interval=1.0)
        sim.timeout(5.0)
        assert rec.pump(until=5.0) == 5.0
        ts = rec.series["work/ops"]
        assert list(zip(ts.times, ts.values)) == [
            (t, 3.0) for t in (1.0, 2.0, 3.0, 4.0, 5.0)]
        assert rec.samples == 5

    def test_drain_mode_never_advances_idle_clock(self, sim):
        registry_of(sim).counter("work/ops")
        rec = FlightRecorder(sim, interval=0.4)
        sim.timeout(1.0)  # workload ends at t=1.0
        assert rec.pump() == 1.0  # NOT pushed to the next nominal tick
        ts = rec.series["work/ops"]
        assert list(ts.times) == [0.4, 0.8]  # the 1.2 sample lapsed

    def test_multi_phase_times_strictly_increase(self, sim):
        registry_of(sim).counter("work/ops")
        rec = FlightRecorder(sim, interval=1.0)
        sim.timeout(0.5)
        rec.pump()  # phase 1 drains before the first nominal tick
        sim.timeout(4.0)  # phase 2 spawns after phase 1 returned
        rec.pump()
        times = list(rec.series["work/ops"].times)
        assert times == sorted(times)
        assert len(times) == len(set(times))  # re-anchor: no duplicate ticks

    def test_until_bounds_sampling(self, sim):
        registry_of(sim).counter("work/ops")
        rec = FlightRecorder(sim, interval=1.0)
        sim.timeout(3.0)
        assert rec.pump(until=1.5) == 1.5
        assert list(rec.series["work/ops"].times) == [1.0]  # 2.0 > until
        assert rec.pump(until=3.0) == 3.0
        assert list(rec.series["work/ops"].times) == [1.0, 2.0, 3.0]

    def test_early_draining_phase_pauses_the_cadence(self, sim):
        """A phase whose events drain between two ticks ends where it
        would unrecorded; the pending tick waits for the next phase."""
        registry_of(sim).counter("work/ops")
        rec = FlightRecorder(sim, interval=1.0)
        sim.timeout(1.5)
        assert rec.pump() == 1.5  # NOT stretched to the tick due at 2.0
        assert list(rec.series["work/ops"].times) == [1.0]
        sim.timeout(2.0)  # phase 2 spawns after phase 1 returned
        assert rec.pump() == 3.5
        assert list(rec.series["work/ops"].times) == [1.0, 2.0, 3.0]

    def test_mid_run_metrics_start_recording_at_next_tick(self, sim):
        reg = registry_of(sim)
        reg.counter("early")
        rec = FlightRecorder(sim, interval=1.0)

        def spawn_late():
            yield sim.timeout(2.5)
            reg.counter("late").add(1)
            yield sim.timeout(2.5)

        sim.process(spawn_late())
        rec.pump(until=5.0)
        assert rec.series["early"].times[0] == 1.0
        assert rec.series["late"].times[0] == 3.0

    def test_install_routes_cluster_run(self, cluster):
        registry_of(cluster.sim).counter("x")
        rec = FlightRecorder(cluster.sim, interval=1e-6).install(cluster)
        assert cluster.run == rec.pump


class TestRecorderContents:
    def test_ring_bound_and_dropped_in_payload(self, sim):
        registry_of(sim).counter("c")
        rec = FlightRecorder(sim, interval=1.0, maxlen=3)
        sim.timeout(10.0)
        rec.pump(until=10.0)
        assert rec.samples == 10
        entry = rec.payload()["series"]["c"]
        assert entry["times"] == [8.0, 9.0, 10.0]
        assert entry["dropped"] == 7

    def test_histogram_expands_to_quantile_series(self, sim):
        h = registry_of(sim).histogram("lat")
        for v in (1.0, 2.0, 4.0):
            h.observe(v)
        rec = FlightRecorder(sim, interval=1.0)
        sim.timeout(1.0)
        rec.pump(until=1.0)
        assert set(rec.series) == {"lat/n", "lat/p50", "lat/p99"}
        assert list(rec.series["lat/n"].values) == [3.0]

    def test_select_limits_recorded_series(self, sim):
        reg = registry_of(sim)
        reg.counter("keep/ops")
        reg.counter("skip/ops2")
        rec = FlightRecorder(sim, interval=1.0, select=["keep/"])
        sim.timeout(1.0)
        rec.pump(until=1.0)
        assert list(rec.series) == ["keep/ops"]

    def test_probes_record_whatever_select_says_before_the_listeners(self, sim):
        registry_of(sim).counter("keep/ops")
        rec = FlightRecorder(sim, interval=1.0, select=["keep/"])
        clock = rec.add_probe("clock", lambda: sim.now)
        seen = []
        rec.add_listener(lambda now: seen.append(len(clock.values)))
        sim.timeout(2.0)
        rec.pump(until=2.0)
        assert set(rec.series) == {"keep/ops", "clock"}
        assert seen == [1, 2]  # listeners run after the probes
        assert rec.payload()["series"]["clock"] == {
            "times": [1.0, 2.0], "values": [1.0, 2.0], "dropped": 0}

    def test_listeners_called_per_tick_with_now(self, sim):
        registry_of(sim).counter("c")
        rec = FlightRecorder(sim, interval=1.0)
        seen = []
        rec.add_listener(seen.append)
        sim.timeout(3.0)
        rec.pump(until=3.0)
        assert seen == [1.0, 2.0, 3.0]

    def test_payload_deterministic_across_identical_runs(self):
        from repro.simnet import Simulator

        def one_run():
            sim = Simulator()
            c = registry_of(sim).counter("c")

            def work():
                for _ in range(5):
                    c.add(2)
                    yield sim.timeout(0.3)

            sim.process(work())
            rec = FlightRecorder(sim, interval=0.25, maxlen=4)
            rec.pump()
            rec.events.log("marker", {"i": 1})
            return rec.payload()

        assert one_run() == one_run()
