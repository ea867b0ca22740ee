"""Kernel fast paths: the event queue's retire order, ``run(until=)``,
timeout callbacks, AnyOf detach semantics, the ``Resource.use
no-contention path, ``timeout_at`` and a process sleeping on a yielded
delay.

These are the invariants the kernel's speed relies on: the event queue
must retire entries in exactly ``(time, seq)`` order whether they were
pushed in or out of time order, and the inlined paths (bounded drain,
bare callbacks, inline resource grants) must behave event for event like
the plain ones they stand in for.
"""

from __future__ import annotations

import math
import random

import pytest

from repro.simnet.core import _PROCESSED, Event, SimulationError, Simulator
from repro.simnet.resources import Resource, Store
from repro.simnet.trace import pump_samples
from tests.ref_kernel import RefSim


def _call_at(sim, fn, delay=0.0):
    """Run bare ``fn()`` after ``delay``: a timeout with one callback, one
    retired entry (how the fault plan schedules its windows)."""
    sim.timeout(delay).add_callback(lambda _ev: fn())


# ---------------------------------------------------------------------------
# Retire order: in-order and out-of-order pushes, equal-time ties
# ---------------------------------------------------------------------------


class TestLaneHeapOrdering:
    def test_monotone_and_regressive_delays_fire_in_heap_order(self):
        # Schedule a mix of in-order and out-of-order pushes, then check
        # the firing order equals a stable sort by (time, insertion seq).
        sim = Simulator()
        fired = []
        rng = random.Random(7)
        delays = [rng.choice([0.0, 0.001, 0.002, 0.005, 0.01])
                  for _ in range(200)]

        def charge(i, d):
            def cb():
                fired.append(i)
            _call_at(sim, cb, d)

        def driver():
            # First half scheduled up front, in mixed time order.
            for i, d in enumerate(delays[:100]):
                charge(i, d)
            yield sim.timeout(0.003)
            # Second half scheduled mid-run, relative to a later now.
            for i, d in enumerate(delays[100:], start=100):
                charge(i, d)

        sim.run_process(driver())
        base = 0.003
        expected = sorted(
            range(200),
            key=lambda i: (delays[i] if i < 100 else base + delays[i], i),
        )
        assert fired == expected

    def test_equal_time_entries_keep_fifo_order(self):
        sim = Simulator()
        fired = []

        def cb(tag):
            return lambda: fired.append(tag)

        # A later entry first, an earlier one pushed out of order, then
        # two more at exactly the first one's time: ties retire by seq.
        _call_at(sim, cb("later-1"), 1.0)
        _call_at(sim, cb("early"), 0.5)
        _call_at(sim, cb("later-2"), 1.0)
        _call_at(sim, cb("later-3"), 1.0)
        sim.run()
        assert fired == ["early", "later-1", "later-2", "later-3"]

    def test_zero_delay_chain_does_not_starve_later_events(self):
        sim = Simulator()
        fired = []
        counter = [0]

        def reschedule():
            fired.append("tick")
            counter[0] += 1
            if counter[0] < 3:
                _call_at(sim, reschedule, 0.0)

        _call_at(sim, reschedule, 0.0)
        _call_at(sim, lambda: fired.append("later"), 0.0)
        sim.run()
        # The first reschedule lands *after* the already-queued same-time
        # callback: seq order is preserved exactly as a heap would.
        assert fired == ["tick", "later", "tick", "tick"]

    def test_peek_reads_the_queue_head(self):
        sim = Simulator()
        _call_at(sim, lambda: None, 2.0)
        _call_at(sim, lambda: None, 0.25)  # pushed out of order
        assert sim.peek() == 0.25
        sim.run(until=0.25)
        assert sim.peek() == 2.0


# ---------------------------------------------------------------------------
# run(until=): the bounded drain leaves the first past-the-bound entry queued
# ---------------------------------------------------------------------------


class TestRunUntilBound:
    @staticmethod
    def _build(sim, fired):
        def cb(tag):
            return lambda: fired.append((sim.now, tag))

        # In time order: 1.0, 4.0, 5.0.  Then 2.0 and 3.0, pushed after
        # the 5.0 entry, out of time order.
        for t in (1.0, 4.0, 5.0):
            _call_at(sim, cb(f"in-{t}"), t)
        for t in (2.0, 3.0):
            _call_at(sim, cb(f"out-{t}"), t)
        return cb

    def test_bound_between_two_out_of_order_entries(self):
        sim = Simulator()
        fired = []
        self._build(sim, fired)
        sim.run(until=2.5)
        assert [tag for _t, tag in fired] == ["in-1.0", "out-2.0"]
        assert sim.now == 2.5 and sim.events_processed == 2
        # out-3.0 heads the queue (it beats in-4.0) and stays queued.
        assert sim.kernel_stats()["queue_depth"] == 3
        assert sim.peek() == 3.0
        sim.run(until=sim.peek())
        assert fired[-1] == (3.0, "out-3.0") and sim.events_processed == 3

    def test_bound_between_two_in_order_entries(self):
        sim = Simulator()
        fired = []
        cb = self._build(sim, fired)
        sim.run(until=4.5)
        assert fired[-1] == (4.0, "in-4.0")
        assert sim.now == 4.5 and sim.events_processed == 4
        assert sim.kernel_stats()["queue_depth"] == 1  # in-5.0, still queued
        # Pushes after the bounded run still retire in (time, seq)
        # order: one earlier than the queued entry, one tying with it.
        _call_at(sim, cb("early"), 0.25)
        _call_at(sim, cb("tie"), 0.5)
        sim.run()
        assert fired[-3:] == [(4.75, "early"), (5.0, "in-5.0"),
                              (5.0, "tie")]

    def test_matches_reference_kernel_at_every_bound(self):
        runs = []
        for kernel in (Simulator, RefSim):
            sim = kernel()
            fired = []
            cb = self._build(sim, fired)
            seen = []
            for bound in (0.5, 1.0, 2.5, 2.5, 3.5, 4.5, 9.0):
                sim.run(until=bound)
                seen.append((bound, sim.now, sim.events_processed,
                             sim.peek(), list(fired)))
                if bound == 2.5:  # re-arm traffic around a queued entry
                    _call_at(sim, cb("mid"), 0.25)
            runs.append(seen)
        assert runs[0] == runs[1]
        assert runs[0][-1][2] == 7  # five built + two "mid" callbacks


# ---------------------------------------------------------------------------
# AnyOf detach semantics
# ---------------------------------------------------------------------------


class TestConditionDetach:
    def test_any_of_empty_rejected(self, sim):
        with pytest.raises(ValueError):
            sim.any_of([])

    def test_any_of_detaches_losers(self, sim):
        fast = sim.timeout(0.1, value="fast")
        slow = sim.timeout(9.0, value="slow")
        combined = sim.any_of([fast, slow])
        results = []

        def proc():
            results.append((yield combined))

        sim.process(proc())
        sim.run(until=0.2)
        assert results == [(0, "fast")]
        # The loser must carry no leftover callback from the AnyOf.
        assert slow.callbacks == []

    def test_any_of_with_already_processed_child(self, sim):
        done = sim.event()
        done.succeed("early")

        def proc():
            yield sim.timeout(0.1)  # let `done` retire fully
            other = sim.timeout(9.0)
            got = yield sim.any_of([done, other])
            assert got == (0, "early")
            assert other.callbacks == []

        sim.run_process(proc())


# ---------------------------------------------------------------------------
# Resource.use on claim(): the inline and the queued branch
# ---------------------------------------------------------------------------


class TestResourceUseFastPath:
    def test_uncontended_use_timing_matches_request_release(self, sim):
        """``use`` is exactly claim + hold + release_slot, event for event."""
        res = Resource(sim, capacity=1)
        times = []

        def via_use():
            yield from res.use(0.5)
            times.append(sim.now)

        def via_claim():
            yield res.claim()
            try:
                yield sim.timeout(0.5)
            finally:
                res.release_slot()
            times.append(sim.now)

        sim.run_process(via_use())
        used = sim.events_processed
        sim.run_process(via_claim())
        assert times == [0.5, 1.0]
        assert sim.events_processed == 2 * used  # same events either way
        assert res.in_use == 0

    def test_contended_use_is_fifo(self, sim):
        res = Resource(sim, capacity=1)
        order = []

        def worker(i):
            yield from res.use(1.0)
            order.append((i, sim.now))

        for i in range(3):
            sim.process(worker(i))
        sim.run()
        assert order == [(0, 1.0), (1, 2.0), (2, 3.0)]
        assert res.in_use == 0 and not res._queue

    def test_fast_path_release_wakes_queued_requester(self, sim):
        res = Resource(sim, capacity=1)
        log = []

        def fast():
            yield from res.use(1.0)  # free slot: claimed inline
            log.append(("fast", sim.now, res.in_use))

        def queued():
            yield sim.timeout(0.1)
            yield res.claim()  # queues while fast() holds
            log.append(("queued", sim.now, res.in_use))
            res.release_slot()

        sim.process(fast())
        sim.process(queued())
        sim.run()
        # in_use stays 1 across the hand-over: no dip another claimant
        # could slip into.
        assert log == [("fast", 1.0, 1), ("queued", 1.0, 1)]
        assert res.in_use == 0

    def test_busy_accounting_identical_on_both_paths(self, sim):
        res = Resource(sim, capacity=2)

        def worker():
            yield from res.use(1.0)

        sim.process(worker())
        sim.process(worker())
        sim.process(worker())  # third one queues behind capacity 2
        sim.run()
        assert res.busy_time() == pytest.approx(3.0)


# ---------------------------------------------------------------------------
# timeout_at: absolute-deadline scheduling
# ---------------------------------------------------------------------------


class TestTimeoutAt:
    def test_fires_at_absolute_time(self, sim):
        at = []

        def waiter():
            yield sim.timeout(1.0)
            ev = sim.timeout_at(3.5, value="deadline")
            got = yield ev
            at.append((sim.now, got))

        sim.process(waiter())
        sim.run()
        assert at == [(3.5, "deadline")]

    def test_past_deadline_rejected(self, sim):
        def waiter():
            yield sim.timeout(2.0)
            with pytest.raises(ValueError):
                sim.timeout_at(1.0)
            yield sim.timeout(0.0)

        sim.process(waiter())
        sim.run()

    def test_interleaves_with_relative_timeouts(self, sim):
        order = []

        def a():
            yield sim.timeout_at(2.0)
            order.append("abs")

        def b():
            yield sim.timeout(1.0)
            order.append("rel-1")
            yield sim.timeout(1.5)
            order.append("rel-2.5")

        sim.process(a())
        sim.process(b())
        sim.run()
        assert order == ["rel-1", "abs", "rel-2.5"]


# ---------------------------------------------------------------------------
# A yielded delay: the sleeping process is its own entry
# ---------------------------------------------------------------------------


def _mixed_program(sim, spelling, seed=5, workers=6, steps=30):
    """A seeded program of several processes: sleeps, claims on a
    capacity-2 Resource, Store put/get, an ``any_of`` watchdog and waits on
    child processes.  ``spelling`` "timeout" spells every sleep
    ``sim.timeout(d)`` (and a free claim's zero delay as a timeout),
    "delay" yields ``d`` itself, and "mixed" alternates the two, so a
    sleep also follows a timeout's wake.  Delays come from a small grid,
    so same-instant ties — the case ``seq`` decides — are common.  Returns
    the ``(sim.now, pid, step)`` resume trace, filled as it runs, and the
    worker processes."""
    res = Resource(sim, capacity=2)
    store = Store(sim)
    trace = []
    naps = [0]

    def nap(d):
        if not isinstance(d, float) or spelling == "delay":
            return d
        naps[0] += 1
        return d if spelling == "mixed" and naps[0] % 2 else sim.timeout(d)

    def child(pid, rng):
        yield nap(rng.choice([0.0, 0.05, 0.1]))
        trace.append((sim.now, pid, "child"))
        yield nap(0.01)
        return pid

    def worker(pid):
        rng = random.Random(seed * 1000 + pid)
        for step in range(steps):
            kind = rng.randrange(5)
            if kind == 0:
                yield nap(rng.choice([0.0, 0.1, 0.25, 0.5]))
            elif kind == 1:
                yield nap(res.claim())
                try:
                    yield nap(rng.choice([0.0, 0.1, 0.25]))
                finally:
                    res.release_slot()
            elif kind == 2:
                store.try_put((pid, step))
                yield sim.event().succeed(None)
            elif kind == 3:
                # the watchdog stays a kept timeout in both spellings
                yield sim.any_of([store.get(), sim.timeout(0.2)])
            else:
                yield sim.process(child(pid, rng), name=f"child-{pid}")
            trace.append((sim.now, pid, step))
        return pid

    procs = [sim.process(worker(pid), name=f"w{pid}")
             for pid in range(workers)]
    return trace, procs


def _drive(runner, spelling):
    sim = Simulator()
    trace, procs = _mixed_program(sim, spelling)
    if runner == "run":
        sim.run()
    elif runner == "segments":
        for bound in (0.3, 0.3, 1.0, 2.05, 3.0):  # all before the end
            sim.run(until=bound)
        sim.run()
    else:  # pump_samples: one bounded drain per sample
        due = [i * 0.17 for i in range(60)]
        samples = []

        def fire():
            samples.append((due.pop(0), sim.now))

        pump_samples(sim, None, lambda: due[0] if due else None, fire)
        assert samples and all(t == now for t, now in samples)
    assert [p.result for p in procs] == list(range(len(procs)))
    return trace, sim.events_processed, sim.now


class TestYieldedDelay:
    @pytest.mark.parametrize("runner", ["run", "segments", "pump"])
    def test_delay_and_timeout_spellings_resume_identically(self, runner):
        legacy = _drive(runner, "timeout")
        delay = _drive(runner, "delay")
        assert len(delay[0]) > 150
        assert delay == legacy
        assert _drive(runner, "mixed") == legacy
        # and every runner retires the same schedule
        assert delay == _drive("run", "delay")

    @pytest.mark.parametrize("bad", [-1.0, math.nan, True, 1])
    def test_bad_delay_fails_the_process(self, sim, bad):
        def body():
            yield 0.5
            yield bad

        proc = sim.process(body())
        sim.run()
        assert not proc.ok and sim.now == 0.5
        with pytest.raises(SimulationError, match="expected an Event or a delay"):
            _ = proc.result

    def test_rejected_delay_is_thrown_into_the_generator(self, sim):
        def body():
            try:
                yield -1.0
            except SimulationError:
                return "caught"

        assert sim.run_process(body()) == "caught"

    def test_yield_after_a_caught_rejection_is_handled_like_any_other(self, sim):
        def body():
            try:
                yield -1.0
            except SimulationError:
                pass
            yield 0.5
            return "slept"

        proc = sim.process(body())
        sim.run()
        assert proc.done and proc.result == "slept" and sim.now == 0.5

    def test_events_processed_is_exact_mid_run(self, sim):
        seen = []

        def body():
            seen.append(sim.events_processed)  # the start entry
            yield 0.5
            seen.append(sim.events_processed)
            yield sim.timeout(0.5)
            seen.append(sim.events_processed)

        sim.run_process(body())
        assert seen == [1, 2, 3]
        assert sim.events_processed == 4  # and the completion

    def test_a_timeout_is_built_only_by_the_simulator(self, sim):
        """``sim.timeout`` builds a plain Event, already triggered; there
        is no timeout class to construct by hand."""
        to = sim.timeout(1.0, value="v")
        assert type(to) is Event
        assert to.triggered and to._state != _PROCESSED and to.value == "v"
        assert type(sim.timeout_at(2.0)) is Event

    def test_float_subclass_delay_sleeps(self, sim):
        class Seconds(float):
            pass

        def body():
            yield Seconds(0.75)
            return sim.now

        assert sim.run_process(body()) == 0.75

    def test_sleeper_resumes_with_none_and_is_one_event(self, sim):
        got = []

        def body():
            got.append((yield 0.25))
            got.append((yield 0.0))

        sim.run_process(body())
        assert got == [None, None] and sim.now == 0.25
        # start, two wakes, completion
        assert sim.events_processed == 4

    def test_processes_start_in_creation_order_around_a_callback(self, sim):
        order = []

        def body(tag):
            order.append(tag)
            yield 0.0
            order.append(tag + "'")

        def spawn_mid_run():
            sim.process(body("c"))
            _call_at(sim, lambda: order.append("cb2"))
            sim.process(body("d"))

        sim.process(body("a"))
        _call_at(sim, lambda: order.append("cb1"))
        sim.process(body("b"))
        _call_at(sim, spawn_mid_run, 1.0)
        sim.run()
        assert order == ["a", "cb1", "b", "a'", "b'",
                         "c", "cb2", "d", "c'", "d'"]
