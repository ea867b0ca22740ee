"""Kernel fast paths: the event queue's retire order, ``run(until=)``,
``schedule_callback``, AnyOf/AllOf detach semantics, the ``Resource.use``
no-contention path and ``timeout_at``.

These are the invariants the kernel's speed relies on: the event queue
must retire entries in exactly ``(time, seq)`` order whether they were
pushed in or out of time order, and the inlined paths (bounded drain,
bare callbacks, inline resource grants) must behave event for event like
the plain ones they stand in for.
"""

from __future__ import annotations

import random

import pytest

from repro.simnet.core import Simulator
from repro.simnet.resources import Resource


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
            sim.schedule_callback(cb, d)

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
        sim.schedule_callback(cb("later-1"), 1.0)
        sim.schedule_callback(cb("early"), 0.5)
        sim.schedule_callback(cb("later-2"), 1.0)
        sim.schedule_callback(cb("later-3"), 1.0)
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
                sim.schedule_callback(reschedule, 0.0)

        sim.schedule_callback(reschedule, 0.0)
        sim.schedule_callback(lambda: fired.append("later"), 0.0)
        sim.run()
        # The first reschedule lands *after* the already-queued same-time
        # callback: seq order is preserved exactly as a heap would.
        assert fired == ["tick", "later", "tick", "tick"]

    def test_peek_reads_the_queue_head(self):
        sim = Simulator()
        sim.schedule_callback(lambda: None, 2.0)
        sim.schedule_callback(lambda: None, 0.25)  # pushed out of order
        assert sim.peek() == 0.25
        sim.run(until=0.25)
        assert sim.peek() == 2.0


# ---------------------------------------------------------------------------
# run(until=): the bounded drain leaves the first past-the-bound entry queued
# ---------------------------------------------------------------------------


def _reference_run_until(sim, until):
    """``run(until=)`` spelled with the public one-event primitives."""
    while sim.peek() <= until:
        sim.step()
    if sim.now < until:
        sim.now = until


class TestRunUntilBound:
    @staticmethod
    def _build(sim, fired):
        def cb(tag):
            return lambda: fired.append((sim.now, tag))

        # In time order: 1.0, 4.0, 5.0.  Then 2.0 and 3.0, pushed after
        # the 5.0 entry, out of time order.
        for t in (1.0, 4.0, 5.0):
            sim.schedule_callback(cb(f"in-{t}"), t)
        for t in (2.0, 3.0):
            sim.schedule_callback(cb(f"out-{t}"), t)
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
        sim.step()
        assert fired[-1] == (3.0, "out-3.0")

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
        sim.schedule_callback(cb("early"), 0.25)
        sim.schedule_callback(cb("tie"), 0.5)
        sim.run()
        assert fired[-3:] == [(4.75, "early"), (5.0, "in-5.0"),
                              (5.0, "tie")]

    def test_matches_peek_step_reference_at_every_bound(self):
        runs = []
        for drive in (lambda sim, u: sim.run(until=u), _reference_run_until):
            sim = Simulator()
            fired = []
            cb = self._build(sim, fired)
            seen = []
            for bound in (0.5, 1.0, 2.5, 2.5, 3.5, 4.5, 9.0):
                drive(sim, bound)
                seen.append((bound, sim.now, sim.events_processed,
                             sim.peek(), list(fired)))
                if bound == 2.5:  # re-arm traffic around a queued entry
                    sim.schedule_callback(cb("mid"), 0.25)
            runs.append(seen)
        assert runs[0] == runs[1]
        assert runs[0][-1][2] == 7  # five built + two "mid" callbacks


# ---------------------------------------------------------------------------
# schedule_callback
# ---------------------------------------------------------------------------


class TestScheduleCallback:
    def test_fires_at_the_right_time(self):
        sim = Simulator()
        at = []
        sim.schedule_callback(lambda: at.append(sim.now), 0.75)
        sim.run()
        assert at == [0.75]

    def test_counts_as_one_processed_event(self):
        sim = Simulator()
        before = sim.events_processed
        for _ in range(10):
            sim.schedule_callback(lambda: None, 0.1)
        sim.run()
        assert sim.events_processed == before + 10

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(Exception):
            sim.schedule_callback(lambda: None, -0.1)

    def test_interleaves_with_timeouts_in_seq_order(self):
        sim = Simulator()
        order = []

        def proc():
            sim.schedule_callback(lambda: order.append("cb"), 0.5)
            yield sim.timeout(0.5)
            order.append("proc")

        sim.run_process(proc())
        assert order == ["cb", "proc"]


# ---------------------------------------------------------------------------
# AnyOf / AllOf detach semantics
# ---------------------------------------------------------------------------


class TestConditionDetach:
    def test_any_of_empty_rejected(self, sim):
        with pytest.raises(ValueError):
            sim.any_of([])

    def test_all_of_empty_succeeds_immediately(self, sim):
        combined = sim.all_of([])
        assert combined.triggered
        assert combined.value == []

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

    def test_all_of_failure_first_detaches_survivors(self, sim):
        bad = sim.event()
        pending = sim.timeout(9.0)
        combined = sim.all_of([bad, pending])
        bad.fail(RuntimeError("boom"))
        failures = []

        def proc():
            try:
                yield combined
            except RuntimeError as err:
                failures.append(str(err))

        sim.process(proc())
        sim.run(until=1.0)
        assert failures == ["boom"]
        assert pending.callbacks == []

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
        assert res.in_use == 0 and res.queue_length == 0

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
