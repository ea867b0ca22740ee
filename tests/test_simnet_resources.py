"""Tests for Resource and Store."""

import pytest

from repro.simnet import Event, Resource, SimulationError, Store


class TestResource:
    def test_capacity_validation(self, sim):
        with pytest.raises(ValueError):
            Resource(sim, capacity=0)

    def test_immediate_grant_within_capacity(self, sim):
        # A free slot is taken inline: claim() returns a zero delay, counts
        # the slot and schedules nothing until the caller yields it.
        res = Resource(sim, capacity=2)
        c1, c2 = res.claim(), res.claim()
        assert c1 == 0.0 and type(c1) is float
        assert c2 == 0.0 and type(c2) is float
        assert res.in_use == 2 and not res._queue
        assert sim.kernel_stats()["queue_depth"] == 0

    def test_queueing_and_handover(self, sim):
        res = Resource(sim, capacity=1)
        c1 = res.claim()
        c2 = res.claim()
        assert c1 == 0.0 and type(c1) is float
        assert isinstance(c2, Event) and not c2.triggered
        assert res.in_use == 1 and len(res._queue) == 1
        res.release_slot()
        assert c2.triggered
        assert res.in_use == 1  # handed over: no dip
        assert not res._queue
        res.release_slot()
        assert res.in_use == 0

    def test_free_grant_is_one_event_at_the_claim_instant(self, sim):
        """A free claim yielded by a process retires exactly one kernel
        event, at the instant of the claim, and the process resumes there."""
        res = Resource(sim, capacity=1)
        seen = []

        def body(claim):
            yield 0.5
            before = sim.events_processed
            if claim:
                yield res.claim()
                seen.append((sim.now, sim.events_processed - before,
                             res.in_use))
                res.release_slot()

        for claim in (False, True):
            proc = sim.process(body(claim))
            sim.run()
            assert proc.ok
        # the grant is the one entry retired between the claim and the
        # resume, at the claim instant (the second run claims at 1.0)
        assert seen == [(1.0, 1, 1)] and res.in_use == 0
        # start, wake and completion per run, plus the one grant
        assert sim.events_processed == 7

    def test_fifo_order(self, sim):
        res = Resource(sim, capacity=1)
        order = []

        def worker(i):
            yield res.claim()
            order.append(i)
            yield sim.timeout(1.0)
            res.release_slot()

        for i in range(4):
            sim.process(worker(i))
        sim.run()
        assert order == [0, 1, 2, 3]
        assert sim.now == 4.0

    def test_claim_costs_one_event_on_either_branch(self, sim):
        """The invariant ``claim`` owns: one kernel event at the instant of
        the grant, whether the slot was free (inline) or handed over."""
        res = Resource(sim, capacity=1)
        granted = []

        def worker(i):
            yield res.claim()
            granted.append((i, sim.now))
            yield sim.timeout(1.0)
            res.release_slot()

        sim.process(worker(0))
        sim.process(worker(1))
        sim.run()
        assert granted == [(0, 0.0), (1, 1.0)]
        # per worker: process start + grant + hold + process end
        assert sim.events_processed == 8

    def test_try_acquire_takes_a_free_slot_without_an_event(self, sim):
        res = Resource(sim, capacity=1)
        assert res.try_acquire() and res.in_use == 1
        assert not res.try_acquire()
        res.release_slot()
        assert res.in_use == 0
        sim.run()
        assert sim.events_processed == 0

    def test_release_with_nothing_held_raises(self, sim):
        """An unpaired release is refused: it would leave ``in_use`` at -1,
        and two later claimers would then both hold a capacity-1
        resource at once."""
        res = Resource(sim, capacity=1, name="line")

        def once():
            yield res.claim()
            res.release_slot()

        sim.run_process(once())
        with pytest.raises(SimulationError, match="idle resource 'line'"):
            res.release_slot()
        assert res.in_use == 0
        held = []

        def holder(i):
            yield res.claim()
            held.append((i, sim.now, res.in_use))
            yield 1.0
            res.release_slot()

        sim.process(holder(0))
        sim.process(holder(1))
        sim.run()
        assert held == [(0, 0.0, 1), (1, 1.0, 1)]

    def test_use_helper_serializes(self, sim):
        res = Resource(sim, capacity=1)

        def worker():
            yield from res.use(2.0)

        for _ in range(3):
            sim.process(worker())
        sim.run()
        assert sim.now == 6.0

    def test_parallel_capacity(self, sim):
        res = Resource(sim, capacity=3)

        def worker():
            yield from res.use(2.0)

        for _ in range(3):
            sim.process(worker())
        sim.run()
        assert sim.now == 2.0

    def test_utilization_accounting(self, sim):
        res = Resource(sim, capacity=2)

        def worker():
            yield from res.use(4.0)

        sim.process(worker())
        sim.run()
        # one of two servers busy for the whole window
        assert res.busy_time() == pytest.approx(4.0)

    def test_utilization_spans_from_creation(self, sim):
        # Built at t=5, busy over [5, 6), read at t=7: one busy second,
        # integrated from creation on.
        holder = []

        def late():
            yield sim.timeout(5.0)
            res = Resource(sim, capacity=1)
            holder.append(res)
            yield from res.use(1.0)
            yield sim.timeout(1.0)

        sim.run_process(late())
        assert sim.now == 7.0
        assert holder[0].busy_time() == 1.0


class TestStore:
    def test_put_then_get(self, sim):
        store = Store(sim)

        def body():
            store.try_put("a")
            store.try_put("b")
            x = yield store.get()
            y = yield store.get()
            return x, y

        assert sim.run_process(body()) == ("a", "b")

    def test_get_blocks_until_put(self, sim):
        store = Store(sim)
        got = []

        def consumer():
            item = yield store.get()
            got.append((sim.now, item))

        def producer():
            yield sim.timeout(5.0)
            store.try_put("late")

        sim.process(consumer())
        sim.process(producer())
        sim.run()
        assert got == [(5.0, "late")]

    def test_try_get(self, sim):
        store = Store(sim)
        ok, item = store.try_get()
        assert not ok and item is None
        store.try_put("x")
        ok, item = store.try_get()
        assert ok and item == "x"
        assert len(store) == 0

    def test_try_put_hands_to_waiting_getter(self, sim):
        store = Store(sim)
        got = []

        def consumer():
            got.append((yield store.get()))

        sim.process(consumer())
        sim.run()
        store.try_put("x")
        sim.run()
        assert got == ["x"] and len(store) == 0

    def test_clear_drops_queued_items(self, sim):
        store = Store(sim)
        for item in "abc":
            store.try_put(item)
        assert store.clear() == 3
        assert len(store) == 0 and store.try_get() == (False, None)
