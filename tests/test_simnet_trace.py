"""Tests for the time-series sampling layer.

:mod:`repro.simnet.trace` holds the pieces — ``pump_samples`` (the
zero-perturbation run loop), ``TimeSeries`` and ``EventLog`` — and
:class:`repro.obs.FlightRecorder` is the one sampler built on them.  Here:
the pump's contract on explicit sample times, cadence drift and
probe-exception isolation in the recorder, the ring bound, and the
EventLog bound.  The
recorder's own cadence is covered in ``tests/test_obs_flight.py``.
"""

from collections import deque

import pytest

from repro.obs import FlightRecorder
from repro.simnet import EventLog, TimeSeries
from repro.simnet.trace import pump_samples


class TestSamplerIntervals:
    def test_no_interval_drift(self, sim):
        """100 ticks at interval 0.1 land on exact multiples of 0.1.

        The recorder steps its next tick by ``+ interval`` each time, so
        absolute sample times must not accumulate floating-point drift
        beyond normal summation error.
        """
        recorder = FlightRecorder(sim, interval=0.1)
        clock = recorder.add_probe("t", lambda: sim.now)
        sim.timeout(10.0)
        recorder.pump(until=10.0)
        assert len(clock.values) >= 99
        for i, t in enumerate(clock.times):
            assert t == pytest.approx((i + 1) * 0.1, abs=1e-9)


class TestSamplerProbeErrors:
    def test_probe_exception_isolated(self, sim):
        """A raising probe is counted and skipped; others still record."""
        recorder = FlightRecorder(sim, interval=1.0)

        def bad():
            raise RuntimeError("probe hardware fell over")

        broken = recorder.add_probe("bad", bad)
        good = recorder.add_probe("good", lambda: 42.0)
        recorder.tick()
        recorder.tick()
        assert recorder.probe_errors == 2
        assert list(broken.values) == []
        assert list(good.values) == [42.0, 42.0]

    def test_probe_error_does_not_kill_sampler(self, sim):
        recorder = FlightRecorder(sim, interval=1.0)
        calls = []

        def flaky():
            calls.append(sim.now)
            if len(calls) == 2:
                raise ValueError("transient")
            return float(len(calls))

        series = recorder.add_probe("flaky", flaky)
        sim.timeout(4.0)
        recorder.pump(until=4.0)
        assert calls == [1.0, 2.0, 3.0, 4.0]  # kept ticking past the raise
        assert recorder.probe_errors == 1
        assert list(series.times) == [1.0, 3.0, 4.0]


def _pump(sim, clock, armed, until=None):
    """``pump_samples`` over the sample times left in ``armed`` (a deque),
    recording each firing's sim time into ``clock``."""
    def fire():
        armed.popleft()
        clock.record(sim.now, sim.now)

    return pump_samples(sim, until, lambda: armed[0] if armed else None, fire)


def _clock():
    return TimeSeries("t", maxlen=64)


class TestPump:
    def test_samples_at_exact_armed_times(self, sim):
        clock = _clock()
        sim.timeout(5.0)  # real work spanning the sample window
        _pump(sim, clock, deque([0.5, 1.5, 2.5]), until=5.0)
        assert list(clock.times) == [0.5, 1.5, 2.5]
        assert sim.now == 5.0

    def test_never_advances_an_idle_clock(self, sim):
        """Samples due past the last real event lapse — zero perturbation."""
        clock, armed = _clock(), deque([0.25, 0.75, 2.0, 3.0])
        sim.timeout(1.0)  # workload ends at t=1.0
        _pump(sim, clock, armed)
        assert sim.now == 1.0  # NOT 3.0: samples never drive the clock
        assert list(clock.times) == [0.25, 0.75]
        assert list(armed) == [2.0, 3.0]  # paused, not dropped

    def test_multi_phase_run_unperturbed(self, sim):
        """Samples pause at a phase boundary and resume in the next pump.

        This is the regression the pump exists for: simulator-scheduled
        samples would stretch phase 1 to the last sample time before
        phase 2's events were spawned.
        """
        clock, armed = _clock(), deque([0.5, 1.5, 2.5, 3.5])
        # Phase 1: events drain at t=1.0; samples at 1.5+ must wait.
        sim.timeout(1.0)
        assert _pump(sim, clock, armed) == 1.0
        assert list(clock.times) == [0.5]
        # Phase 2 spawns *after* phase 1's run call returned, as a
        # multi-phase app does.  Later samples fire during phase 2.
        sim.timeout(3.0)
        assert _pump(sim, clock, armed) == 4.0
        assert list(clock.times) == [0.5, 1.5, 2.5, 3.5]

    def test_a_sample_sees_every_entry_at_its_time(self, sim):
        """A sample due at ``t`` fires after every entry at ``t``, those
        pushed at ``t`` while the pump drained up to it included."""
        fired, seen, armed = [], [], deque([1.0])

        def at_one(tag):
            fired.append(tag)
            if tag == "a":
                sim.timeout(0.0).add_callback(
                    lambda _ev: fired.append("pushed"))

        for tag in "abc":
            sim.timeout(1.0).add_callback(lambda _ev, tag=tag: at_one(tag))
        sim.timeout(2.0)

        def fire():
            armed.popleft()
            seen.append((sim.now, list(fired)))

        pump_samples(sim, None, lambda: armed[0] if armed else None, fire)
        assert seen == [(1.0, ["a", "b", "c", "pushed"])]
        assert sim.now == 2.0

    def test_pump_without_armed_samples_is_plain_run(self, sim):
        sim.timeout(2.0)
        # run(until=...) pads the clock
        assert _pump(sim, _clock(), deque(), until=5.0) == 5.0

    def test_until_bounds_sampling(self, sim):
        clock = _clock()
        sim.timeout(3.0)
        _pump(sim, clock, deque([0.5, 1.5]), until=1.0)
        assert list(clock.times) == [0.5]  # the 1.5 sample is beyond `until`
        assert sim.now == 1.0


class TestTimeSeriesRing:
    def test_maxlen_keeps_newest(self):
        ts = TimeSeries("ring", maxlen=3)
        for i in range(5):
            ts.record(float(i), float(i * 10))
        assert list(zip(ts.times, ts.values)) == [
            (2.0, 20.0), (3.0, 30.0), (4.0, 40.0)]
        assert ts.dropped == 2


class TestEventLogBound:
    def test_unbounded_by_default(self, sim):
        log = EventLog(sim)
        for i in range(100):
            log.log("e", i)
        assert len(log.entries) == 100 and log.dropped == 0

    def test_limit_keeps_oldest(self, sim):
        log = EventLog(sim, limit=3)
        for i in range(10):
            log.log("e", i)
        assert [p for _t, _k, p in log.entries] == [0, 1, 2]
        assert log.dropped == 7
